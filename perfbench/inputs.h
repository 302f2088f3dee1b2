// Workload definitions and their seeded inputs. `perfbench gen` builds a
// workload's catalog objects and query traces from a seed, runs the
// independent oracle over them, and writes all of it to one directory;
// `perfbench run` reads it back, so input generation never shares a
// process (or a peak-RSS figure) with the measured program.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"
#include "query/query.h"
#include "storage/file_store.h"
#include "storage/object.h"
#include "util/status.h"
#include "workload/trace_gen.h"

namespace perfbench {

/// One benchmark workload: the inputs' make-up and how the engine runs them.
struct WorkloadSpec {
  std::string name;
  /// true: a real-I/O closed batch over a FileStore archive (every query
  /// submitted at t=0). false: the modeled open-loop serving run over a
  /// MemStore catalog.
  bool drain = true;
  size_t catalog_objects = 0;
  /// The archive is one fixed catalog per workload, like the paper's SDSS
  /// archive; the run's seed draws the query traces and arrival times.
  uint64_t catalog_seed = 0;
  size_t objects_per_bucket = 0;
  liferaft::storage::BucketFormat format =
      liferaft::storage::BucketFormat::kColumnarV2;
  liferaft::workload::TraceConfig trace;
  size_t volumes = 1;
  size_t join_threads = 1;
  size_t cache_capacity = 20;
  size_t prefetch_depth = 0;  // 0 = prefetch off
  double alpha = 0.0;
  /// Serving: Poisson arrival rate on the virtual clock.
  double rate_qps = 0.0;
  /// Queries with at most this many bucket parts are interactive.
  size_t interactive_max_parts = 8;
  /// Independent traces, each served on its own. Serving pools several:
  /// one trace's figures hinge on where its dominant hotspot falls, so
  /// pooling is what makes a run's figures steady.
  size_t traces = 1;
  /// Set-ups per run; setup_s is their median. Serving's set-up is short,
  /// so it takes more of them to be as steady as a drain's.
  int setup_reps = 5;
};

/// The named workload at full size, or at smoke size (every check, seconds
/// of work) when `smoke` is set.
liferaft::Result<WorkloadSpec> FindWorkload(const std::string& name,
                                            bool smoke);

/// One query trace and the oracle's match bounds per query, in trace
/// order (query ids are 1..n).
struct Trace {
  std::vector<liferaft::query::CrossMatchQuery> queries;
  std::vector<MatchBounds> expected;
};

/// Everything a run consumes, generated from one seed.
struct Inputs {
  std::vector<liferaft::storage::CatalogObject> catalog;
  std::vector<Trace> traces;
};

/// Generates the workload's inputs and oracle bounds from `seed`.
liferaft::Result<Inputs> GenerateInputs(const WorkloadSpec& spec,
                                        uint64_t seed);

/// Writes the inputs into the existing directory `dir`: the catalog objects
/// and each trace's oracle bounds as flat arrays, each trace with
/// workload::SaveTrace.
liferaft::Status WriteInputs(const std::string& dir, const Inputs& inputs);
/// Reads back the first `traces` traces written by WriteInputs.
/// workload::LoadTrace rebuilds the query objects' HTM covers.
liferaft::Result<Inputs> ReadInputs(const std::string& dir, size_t traces);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
