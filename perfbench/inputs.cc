#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <type_traits>

#include "workload/catalog_gen.h"
#include "workload/trace_io.h"

namespace perfbench {

using liferaft::Result;
using liferaft::Status;
using liferaft::storage::CatalogObject;

namespace {

// Traces are independent, so they are generated and loaded a few at a
// time. Both happen before any timed phase.
constexpr size_t kInputThreads = 4;

// Full-size workloads. Sizes keep one serve of a trace between a tenth of
// a second and a few seconds, so a ten-second run takes the median of
// several (see README.md).
WorkloadSpec DrainColumnar() {
  WorkloadSpec s;
  s.name = "drain-columnar";
  s.drain = true;
  s.catalog_objects = 1'000'000;
  s.catalog_seed = 43;
  s.objects_per_bucket = 10'000;
  s.format = liferaft::storage::BucketFormat::kColumnarV2;
  liferaft::workload::TraceConfig& t = s.trace;
  t.num_queries = 2000;
  // Sky-spanning, low-density cones beside a share of small footprints,
  // so both QoS classes exist for the modeled twin.
  t.p_hotspot = 0.0;
  t.p_stay = 0.0;
  t.min_radius_deg = 0.5;
  t.max_radius_deg = 60.0;
  t.p_small = 0.5;
  t.small_max_radius_deg = 3.0;
  t.objects_per_sq_deg = 0.02;
  t.min_objects_per_query = 4;
  t.max_objects_per_query = 120;
  // ~24 catalog objects per square degree: a 600" circle holds about two.
  t.match_radius_arcsec = 600.0;
  s.volumes = 2;
  s.join_threads = 2;
  s.prefetch_depth = 2;
  // At most 2 of 100 buckets, about the share of the archive serving's
  // 8 of 500 buckets is.
  s.interactive_max_parts = 2;
  return s;
}

WorkloadSpec DrainRow() {
  WorkloadSpec s = DrainColumnar();
  s.name = "drain-row";
  s.format = liferaft::storage::BucketFormat::kRowV1;
  // Join-light: few query objects and a radius of tens of arcsec, so the
  // owner mostly waits for page reads and decodes on the I/O workers.
  s.trace.objects_per_sq_deg = 0.008;
  s.trace.min_objects_per_query = 2;
  s.trace.max_objects_per_query = 60;
  s.trace.match_radius_arcsec = 60.0;
  return s;
}

WorkloadSpec ServeSkyQuery() {
  WorkloadSpec s;
  s.name = "serve-skyquery";
  s.drain = false;
  // bench/bench_common.h's standard experiment: 500k objects in
  // 1,000-object buckets, the long-running SkyQuery trace.
  s.catalog_objects = 500'000;
  s.catalog_seed = 17;
  s.objects_per_bucket = 1'000;
  s.format = liferaft::storage::BucketFormat::kRowV1;  // unused: MemStore
  s.trace = liferaft::workload::LongRunningSkyQueryPreset();
  s.trace.num_queries = 500;
  s.trace.max_objects_per_query = 800;
  s.trace.min_radius_deg = 0.5;
  s.trace.p_small = 0.5;
  s.trace.small_max_radius_deg = 2.0;
  s.trace.match_radius_arcsec = 60.0;
  s.volumes = 1;
  s.join_threads = 1;
  s.alpha = 0.75;
  s.rate_qps = 1.3;
  s.traces = 48;
  s.setup_reps = 15;
  return s;
}

// Runs fn(0) .. fn(n - 1) on up to kInputThreads threads; returns the
// first error.
Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(n);
  const size_t workers = std::min(n, kInputThreads);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < n; i += workers) status[i] = fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : status) LIFERAFT_RETURN_IF_ERROR(st);
  return Status::OK();
}

std::string TracePath(const std::string& dir, size_t i) {
  return dir + "/trace-" + std::to_string(i) + ".bin";
}
std::string BoundsPath(const std::string& dir, size_t i) {
  return dir + "/bounds-" + std::to_string(i) + ".bin";
}

// Flat arrays of trivially copyable records: the catalog objects and the
// oracle's bounds. A file whose size is not a whole number of records is
// malformed.
template <typename T>
Status WriteArray(const std::string& path, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  f.close();
  if (!f) return Status::IOError("cannot write " + path);
  return Status::OK();
}

template <typename T>
Result<std::vector<T>> ReadArray(const std::string& path) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::IOError("cannot open " + path);
  const auto size = static_cast<size_t>(f.tellg());
  if (size % sizeof(T) != 0) {
    return Status::Corruption("malformed inputs file " + path);
  }
  std::vector<T> v(size / sizeof(T));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(size));
  if (!f) return Status::IOError("cannot read " + path);
  return v;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name, bool smoke) {
  WorkloadSpec s;
  if (name == "drain-columnar") {
    s = DrainColumnar();
  } else if (name == "drain-row") {
    s = DrainRow();
  } else if (name == "serve-skyquery") {
    s = ServeSkyQuery();
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  if (smoke) {
    s.catalog_objects /= 20;
    s.objects_per_bucket /= 10;
    s.trace.num_queries /= 10;
    s.traces = std::max<size_t>(1, s.traces / 4);
  }
  return s;
}

Result<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  liferaft::workload::CatalogGenConfig gen;
  gen.num_objects = spec.catalog_objects;
  gen.seed = spec.catalog_seed;
  LIFERAFT_ASSIGN_OR_RETURN(in.catalog,
                            liferaft::workload::GenerateCatalog(gen));
  const ZoneGrid grid(in.catalog, spec.trace.match_radius_arcsec);
  in.traces.resize(spec.traces);
  LIFERAFT_RETURN_IF_ERROR(ParallelFor(spec.traces, [&](size_t i) -> Status {
    liferaft::workload::TraceConfig tc = spec.trace;
    tc.seed = seed * 1000 + 2 + i;
    LIFERAFT_ASSIGN_OR_RETURN(in.traces[i].queries,
                              liferaft::workload::GenerateTrace(tc));
    in.traces[i].expected = grid.CrossMatch(in.traces[i].queries);
    return Status::OK();
  }));
  return in;
}

Status WriteInputs(const std::string& dir, const Inputs& in) {
  LIFERAFT_RETURN_IF_ERROR(WriteArray(dir + "/catalog.bin", in.catalog));
  for (size_t i = 0; i < in.traces.size(); ++i) {
    LIFERAFT_RETURN_IF_ERROR(
        liferaft::workload::SaveTrace(TracePath(dir, i), in.traces[i].queries));
    LIFERAFT_RETURN_IF_ERROR(
        WriteArray(BoundsPath(dir, i), in.traces[i].expected));
  }
  return Status::OK();
}

Result<Inputs> ReadInputs(const std::string& dir, size_t traces) {
  Inputs in;
  LIFERAFT_ASSIGN_OR_RETURN(in.catalog,
                            ReadArray<CatalogObject>(dir + "/catalog.bin"));
  in.traces.resize(traces);
  LIFERAFT_RETURN_IF_ERROR(ParallelFor(traces, [&](size_t i) -> Status {
    Trace& t = in.traces[i];
    LIFERAFT_ASSIGN_OR_RETURN(t.queries,
                              liferaft::workload::LoadTrace(TracePath(dir, i)));
    LIFERAFT_ASSIGN_OR_RETURN(t.expected,
                              ReadArray<MatchBounds>(BoundsPath(dir, i)));
    if (t.expected.size() != t.queries.size()) {
      return Status::Corruption("bounds do not match " + TracePath(dir, i));
    }
    return Status::OK();
  }));
  return in;
}

}  // namespace perfbench
