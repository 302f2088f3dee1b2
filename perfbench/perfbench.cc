// The end-to-end benchmark program (see README.md).
//
//   perfbench gen --workload W --seed S --out DIR [--smoke]
//       generates the workload's inputs and oracle match bounds into the
//       existing directory DIR.
//   perfbench run --workload W --seed S --inputs DIR --work DIR
//                 --seconds N --trace 0|1 [--smoke]
//       sets the program up, serves the workload's traces in turn for N
//       seconds, checks every serve's outputs and prints one JSON result
//       line. --trace 1 reports per-layer metrics from traced passes over
//       the traces alternated with untraced ones, and writes the per-layer
//       totals (DIR/<workload>-layers.json) and the last traced pass's
//       spans (DIR/<workload>-spans.json).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "inputs.h"
#include "query/preprocessor.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "storage/catalog.h"
#include "storage/file_store.h"
#include "storage/partitioner.h"
#include "traced.h"
#include "util/logging.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using liferaft::Result;
using liferaft::Status;
using liferaft::TimeMs;
namespace sim = liferaft::sim;
namespace storage = liferaft::storage;
namespace sched = liferaft::sched;

// Serves of a trace run before timing starts: the first in-process serve
// is up to 60% slower (cold allocator, cold caches) than later ones.
constexpr int kWarmupServes = 1;
// A run measures at least this many serves, and at least one serve of
// every trace, even past --seconds.
constexpr size_t kMinServes = 3;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(const std::vector<double>& v, double p) {
  liferaft::Percentiles pct;
  for (double x : v) pct.Add(x);
  return pct.Percentile(p);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

struct Flags {
  std::map<std::string, std::string> values;
  bool smoke = false;

  static Result<Flags> Parse(int argc, char** argv) {
    Flags f;
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key == "--smoke") {
        f.smoke = true;
        continue;
      }
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        return Status::InvalidArgument("bad argument " + key);
      }
      f.values[key.substr(2)] = argv[++i];
    }
    return f;
  }
  Result<std::string> Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) return Status::InvalidArgument("missing --" + key);
    return it->second;
  }
  Result<uint64_t> GetUint(const std::string& key) const {
    LIFERAFT_ASSIGN_OR_RETURN(std::string v, Get(key));
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0') {
      return Status::InvalidArgument("--" + key + " needs a whole number");
    }
    return static_cast<uint64_t>(n);
  }
};

// ------------------------------------------------------------ results --

/// What one run prints, plus the failures its checks found.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const {
    std::string out = std::string("{\"correct\": ") +
                      (errors.empty() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    char value[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
  }
  void Print() const {
    for (const std::string& e : errors) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    for (const Entry& m : metrics) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", Json().c_str());
    std::fflush(stdout);
  }
};

// Checks one trace's outcomes: every query completed, each with a match
// count inside the oracle's bounds. Returns the failed query count.
uint64_t CheckOutcomes(const std::vector<sim::QueryOutcome>& outcomes,
                       const Trace& trace, const std::string& what,
                       Report* report) {
  std::vector<char> seen(trace.queries.size(), 0);
  uint64_t failed = 0;
  for (const sim::QueryOutcome& o : outcomes) {
    const size_t i = static_cast<size_t>(o.id - 1);  // ids are 1..n
    if (o.id == 0 || i >= seen.size() || seen[i]) {
      report->Error(what + ": unexpected outcome for query " +
                    std::to_string(o.id));
      ++failed;
      continue;
    }
    seen[i] = 1;
    const MatchBounds& b = trace.expected[i];
    if (o.matches < b.lo || o.matches > b.hi) {
      report->Error(what + ": query " + std::to_string(o.id) + " has " +
                    std::to_string(o.matches) + " matches, oracle says [" +
                    std::to_string(b.lo) + ", " + std::to_string(b.hi) + "]");
      ++failed;
    }
  }
  const uint64_t missing =
      static_cast<uint64_t>(std::count(seen.begin(), seen.end(), 0));
  if (missing > 0) {
    report->Error(what + ": " + std::to_string(missing) +
                  " queries never completed");
  }
  return failed + missing;
}

// ------------------------------------------------------------- set-up --

struct SetupTimes {
  std::vector<double> total_s, create_ms, open_ms;
};

// Set-up runs spec.setup_reps times and its median is reported: single
// set-ups of the same archive spread by tens of percent (fsync, page-cache
// state).
//
// Drains: partition, write the archive (FileStore::Create fsyncs), open it
// and rebuild the index from it. Returns the last set-up's catalog.
Result<std::unique_ptr<storage::Catalog>> SetUpArchive(
    const WorkloadSpec& spec, const Inputs& in, const std::string& path,
    SetupTimes* times) {
  std::unique_ptr<storage::Catalog> catalog;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    catalog.reset();
    std::vector<storage::CatalogObject> objects = in.catalog;  // not timed
    const auto t0 = std::chrono::steady_clock::now();
    LIFERAFT_ASSIGN_OR_RETURN(
        storage::PartitionResult part,
        storage::PartitionCatalog(std::move(objects), spec.objects_per_bucket));
    LIFERAFT_RETURN_IF_ERROR(
        storage::FileStore::Create(path, part.buckets, spec.format));
    part = storage::PartitionResult{};
    const auto t1 = std::chrono::steady_clock::now();
    LIFERAFT_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileStore> store,
                              storage::FileStore::Open(path));
    LIFERAFT_ASSIGN_OR_RETURN(catalog,
                              storage::Catalog::FromStore(std::move(store)));
    const auto t2 = std::chrono::steady_clock::now();
    times->create_ms.push_back(Seconds(t0, t1) * 1e3);
    times->open_ms.push_back(Seconds(t1, t2) * 1e3);
    times->total_s.push_back(Seconds(t0, t2));
  }
  return catalog;
}

// Serving: partition into a MemStore and build the index.
Result<std::unique_ptr<storage::Catalog>> SetUpMemCatalog(
    const WorkloadSpec& spec, const Inputs& in, SetupTimes* times) {
  std::unique_ptr<storage::Catalog> catalog;
  storage::CatalogOptions options;
  options.objects_per_bucket = spec.objects_per_bucket;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    catalog.reset();
    std::vector<storage::CatalogObject> objects = in.catalog;  // not timed
    const auto t0 = std::chrono::steady_clock::now();
    LIFERAFT_ASSIGN_OR_RETURN(
        catalog, storage::Catalog::Build(std::move(objects), options));
    const auto t1 = std::chrono::steady_clock::now();
    times->create_ms.push_back(Seconds(t0, t1) * 1e3);
    times->open_ms.push_back(0.0);
    times->total_s.push_back(Seconds(t0, t1));
  }
  return catalog;
}

// -------------------------------------------------------------- engine --

storage::DiskModelParams DiskFor(const WorkloadSpec& spec) {
  return spec.drain ? storage::DiskModelParams{}
                    : liferaft::bench::ScaledDiskParams();
}

sim::EngineConfig EngineFor(const WorkloadSpec& spec, bool real_io) {
  sim::EngineConfig c;
  c.io_mode = real_io ? sim::IoMode::kReal : sim::IoMode::kModeled;
  c.disk = DiskFor(spec);
  c.cache_capacity = spec.cache_capacity;
  c.topology.num_volumes = spec.volumes;
  c.num_threads = spec.join_threads;
  c.enable_prefetch = spec.prefetch_depth > 0;
  c.prefetch_depth = std::max<size_t>(spec.prefetch_depth, 1);
  c.collect_matches = true;  // per-query counts are checked
  return c;
}

sched::LifeRaftConfig SchedulerConfig(const WorkloadSpec& spec) {
  sched::LifeRaftConfig c;
  c.alpha = spec.alpha;
  return c;
}

std::unique_ptr<sched::Scheduler> MakeScheduler(const WorkloadSpec& spec,
                                                storage::Catalog* catalog,
                                                Tracer* tracer) {
  const storage::DiskModel model(DiskFor(spec));
  if (tracer != nullptr) {
    return std::make_unique<TracedScheduler>(catalog->store(), model,
                                             SchedulerConfig(spec), tracer);
  }
  return std::make_unique<sched::LifeRaftScheduler>(catalog->store(), model,
                                                    SchedulerConfig(spec));
}

sim::ServeConfig ServeFor(const WorkloadSpec& spec, size_t n, uint64_t seed,
                          size_t trace_index) {
  sim::ServeConfig s;
  s.interactive_max_parts = spec.interactive_max_parts;
  if (spec.drain) {
    // The modeled twin of a closed batch: every query arrives at t=0.
    s.arrivals.kind = sim::ArrivalSpec::Kind::kTrace;
    s.arrivals.trace.assign(n, 0.0);
  } else {
    s.arrivals.kind = sim::ArrivalSpec::Kind::kPoisson;
    s.arrivals.rate_qps = spec.rate_qps;
    s.arrivals.seed = seed * 1000 + 500 + trace_index;
  }
  return s;  // shedding bounds stay 0: every arrival is admitted
}

// Checks a Serve result's completeness.
void CheckServed(const sim::RunMetrics& m, const std::string& what,
                 Report* report) {
  if (m.queries_shed != 0 || m.queries_completed != m.queries_offered) {
    report->Error(what + ": completed " + std::to_string(m.queries_completed) +
                  " of " + std::to_string(m.queries_offered) + " offered");
  }
}

// ------------------------------------------------------------- serves --

/// One trace served once on one engine.
struct Served {
  /// Wall time inside the engine call.
  double wall_ms = 0;
  size_t queries = 0;
  /// Response times per QoS class.
  std::vector<double> class_responses[sim::kNumQosClasses];
  sim::RunMetrics metrics;
  /// Each query's match count by id.
  std::vector<uint64_t> matches;
};

enum class Call {
  kDrain,  // SimEngine::Run, every query at t=0
  kServe,  // SimEngine::Serve (open loop, or the drain's modeled twin)
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Inputs& in, uint64_t seed,
         Report* report)
      : spec_(spec), in_(in), seed_(seed), report_(report),
        reference_json_(in.traces.size()) {}

  /// Serves trace `t` once and checks it: match counts against the
  /// oracle, every query completed, no failed or corrupt read, and for
  /// Serve no shed query and a RunMetricsJson equal to the first serve of
  /// the same trace.
  Served Run(sim::SimEngine* engine, Call call, const std::string& what,
             size_t t) {
    Served s;
    const Trace& trace = in_.traces[t];
    const size_t n = trace.queries.size();
    const std::string label = what + " trace " + std::to_string(t + 1);
    const auto t0 = std::chrono::steady_clock::now();
    Result<sim::RunMetrics> m =
        call == Call::kDrain
            ? engine->Run(trace.queries, std::vector<TimeMs>(n, 0.0))
            : engine->Serve(trace.queries, ServeFor(spec_, n, seed_, t));
    s.wall_ms = Seconds(t0, std::chrono::steady_clock::now()) * 1e3;
    s.queries = n;
    report_->attempted += n;
    if (!m.ok()) {
      report_->Error(label + ": " + m.status().ToString());
      report_->failed += n;
      return s;
    }
    report_->failed +=
        CheckOutcomes(engine->outcomes(), trace, label, report_);
    s.matches.assign(n + 1, 0);
    for (const sim::QueryOutcome& o : engine->outcomes()) {
      s.class_responses[static_cast<size_t>(o.qos)].push_back(o.ResponseMs());
      if (o.id <= n) s.matches[o.id] = o.matches;
    }
    for (const storage::AsyncVolumeStats& v : m->real_io) {
      if (v.failures != 0 || v.checksum_failures != 0) {
        report_->Error(label + ": " + std::to_string(v.failures) +
                       " failed reads, " +
                       std::to_string(v.checksum_failures) +
                       " checksum failures");
      }
    }
    if (call == Call::kServe) {
      CheckServed(*m, label, report_);
      const std::string json = sim::RunMetricsJson(*m);
      if (reference_json_[t].empty()) {
        reference_json_[t] = json;
      } else if (json != reference_json_[t]) {
        report_->Error(label + ": RunMetricsJson differs from the first run");
      }
    }
    s.metrics = std::move(*m);
    return s;
  }

 private:
  const WorkloadSpec& spec_;
  const Inputs& in_;
  uint64_t seed_;
  Report* report_;
  std::vector<std::string> reference_json_;
};

// Median over a pass's traces of one per-trace statistic, skipping traces
// it does not apply to (NaN). A trace's response level hinges on where its
// dominant hotspot falls, so single traces spread widely, and so does a
// tail pooled over traces, which the worst few decide; the median of many
// traces is what stays steady.
double MedianOverTraces(const std::vector<Served>& pass,
                        const std::function<double(const Served&)>& stat) {
  std::vector<double> v;
  for (const Served& s : pass) {
    const double x = stat(s);
    if (!std::isnan(x)) v.push_back(x);
  }
  return Median(v);
}

// A trace's p99 response of one QoS class; NaN when it has none.
double ClassP99(const Served& s, sim::QosClass qos) {
  const std::vector<double>& v = s.class_responses[static_cast<size_t>(qos)];
  return v.empty() ? std::nan("") : Percentile(v, 99);
}

// The virtual-clock figures of a pass of Serve calls: throughput over all
// its traces, and the typical trace's mean response and per-class p99.
void ReportVirtual(const std::vector<Served>& pass, Report* report) {
  double completed = 0, makespan_s = 0;
  size_t counts[sim::kNumQosClasses] = {};
  for (const Served& s : pass) {
    completed += static_cast<double>(s.metrics.queries_completed);
    makespan_s += s.metrics.makespan_ms / 1e3;
    for (size_t c = 0; c < sim::kNumQosClasses; ++c) {
      counts[c] += s.class_responses[c].size();
    }
  }
  for (size_t c = 0; c < sim::kNumQosClasses; ++c) {
    if (counts[c] == 0) {
      report->Error(std::string("no ") +
                    sim::QosClassName(static_cast<sim::QosClass>(c)) +
                    " queries on the virtual clock");
    }
  }
  report->Metric("virtual_qps", makespan_s > 0 ? completed / makespan_s : 0,
                 "1/s");
  report->Metric("virtual_response_mean_ms",
                 MedianOverTraces(pass,
                                  [](const Served& s) {
                                    return s.metrics.avg_response_ms;
                                  }),
                 "ms");
  report->Metric("virtual_interactive_p99_ms",
                 MedianOverTraces(pass,
                                  [](const Served& s) {
                                    return ClassP99(
                                        s, sim::QosClass::kInteractive);
                                  }),
                 "ms");
  report->Metric("virtual_batch_p99_ms",
                 MedianOverTraces(pass,
                                  [](const Served& s) {
                                    return ClassP99(s, sim::QosClass::kBatch);
                                  }),
                 "ms");
}

// ---------------------------------------------------------- per layer --

// Per-layer figures of one traced pass over the traces.
struct LayerSample {
  double wall_ms = 0;   // the traced serves
  double plain_ms = 0;  // the untraced serves of the same traces
  double pick_ms = 0, peek_ms = 0, wait_ms = 0, split_ms = 0;
  double read_ms = 0, queue_wait_ms = 0, read_p99_ms = 0;
  double pick_calls = 0, peek_calls = 0, parts = 0;
};

double Ms(const LayerTotal& t) { return static_cast<double>(t.ns) / 1e6; }

// Times the query layer's split of every query, as the engine does it at
// admission.
void TimeSplit(const storage::Catalog& catalog, const Inputs& in,
               LayerSample* s) {
  const auto t0 = std::chrono::steady_clock::now();
  size_t parts = 0;
  for (const Trace& t : in.traces) {
    for (const auto& q : t.queries) {
      parts +=
          liferaft::query::SplitQueryByBucket(q, catalog.bucket_map()).size();
    }
  }
  s->split_ms = Seconds(t0, std::chrono::steady_clock::now()) * 1e3;
  s->parts = static_cast<double>(parts);
}

void FillLayerSample(Tracer& t, LayerSample* s) {
  s->pick_ms = Ms(t.Total("sched.pick"));
  s->pick_calls = static_cast<double>(t.Total("sched.pick").calls);
  s->peek_ms = Ms(t.Total("sched.peek"));
  s->peek_calls = static_cast<double>(t.Total("sched.peek").calls);
  s->wait_ms = Ms(t.Total("exec.claim_wait"));
  s->read_ms = Ms(t.Total("storage.read")) + Ms(t.Total("storage.owner_read"));
  s->queue_wait_ms = Ms(t.Total("storage.queue_wait"));
  s->read_p99_ms = t.ReadP99Ms();
}

void ReportLayers(const std::vector<LayerSample>& samples,
                  const std::vector<Served>& traced, const SetupTimes& setup,
                  Report* report) {
  auto med = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> self;
  for (const LayerSample& s : samples) {
    self.push_back(s.wall_ms - s.pick_ms - s.peek_ms - s.wait_ms - s.split_ms);
  }
  // Counters of the last traced pass, summed over its traces.
  double scan = 0, indexed = 0, probes = 0, matches = 0, batches = 0;
  double hits = 0, misses = 0, evictions = 0, wasted_mb = 0, hidden_ms = 0;
  double issued = 0, claimed = 0, offered = 0, completed = 0, depth = 0;
  double reads = 0, read_mb = 0;
  for (const Served& served : traced) {
    const sim::RunMetrics& m = served.metrics;
    scan += m.evaluator.scan_batches;
    indexed += m.evaluator.indexed_batches;
    probes += m.evaluator.index_probes;
    batches += m.evaluator.batches;
    matches += m.total_matches;
    hits += m.cache.hits;
    misses += m.cache.misses;
    evictions += m.cache.evictions;
    wasted_mb += m.cache.prefetch_wasted_bytes / 1e6;
    hidden_ms += m.prefetch_hidden_ms;
    for (const storage::VolumeIoStats& v : m.volumes) {
      issued += v.prefetch_issued;
      claimed += v.prefetch_claims;
    }
    for (const storage::AsyncVolumeStats& v : m.real_io) {
      reads += v.reads;
      read_mb += v.bytes / 1e6;
      depth = std::max(depth, static_cast<double>(v.max_queue_depth));
    }
    offered += m.queries_offered != 0 ? m.queries_offered
                                      : m.queries_completed;
    completed += m.queries_completed;
  }
  const double traced_ms = med(&LayerSample::wall_ms);
  const double untraced_ms = med(&LayerSample::plain_ms);

  report->Metric("join.evaluate_ms", Median(self), "ms");
  report->Metric("join.scan_batches", scan, "count");
  report->Metric("join.indexed_batches", indexed, "count");
  report->Metric("join.index_probes", probes, "count");
  report->Metric("join.matches", matches, "count");
  report->Metric("storage.read.calls", reads, "count");
  report->Metric("storage.read_ms", med(&LayerSample::read_ms), "ms");
  report->Metric("storage.read_mb", read_mb, "MB");
  report->Metric("storage.queue_wait_ms", med(&LayerSample::queue_wait_ms),
                 "ms");
  report->Metric("storage.read_p99_ms", med(&LayerSample::read_p99_ms), "ms");
  report->Metric("storage.queue_depth_max", depth, "count");
  report->Metric("exec.claim_wait_ms", med(&LayerSample::wait_ms), "ms");
  report->Metric("sched.pick.calls", med(&LayerSample::pick_calls), "count");
  report->Metric("sched.pick_ms", med(&LayerSample::pick_ms), "ms");
  report->Metric("sched.peek.calls", med(&LayerSample::peek_calls), "count");
  report->Metric("sched.peek_ms", med(&LayerSample::peek_ms), "ms");
  report->Metric("query.split_ms", med(&LayerSample::split_ms), "ms");
  report->Metric("query.parts", med(&LayerSample::parts), "count");
  report->Metric("cache.hits", hits, "count");
  report->Metric("cache.misses", misses, "count");
  report->Metric("cache.hit_rate",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Metric("cache.evictions", evictions, "count");
  report->Metric("exec.steps", batches, "count");
  report->Metric("exec.prefetch.issued", issued, "count");
  report->Metric("exec.prefetch.claimed", claimed, "count");
  report->Metric("exec.prefetch.wasted_mb", wasted_mb, "MB");
  report->Metric("exec.prefetch_hidden_ms", hidden_ms, "ms");
  report->Metric("sim.offered", offered, "count");
  report->Metric("sim.completed", completed, "count");
  report->Metric("storage.create_ms", Median(setup.create_ms), "ms");
  report->Metric("storage.open_ms", Median(setup.open_ms), "ms");
  report->Metric("trace.overhead_pct",
                 untraced_ms > 0
                     ? (traced_ms - untraced_ms) / untraced_ms * 100.0
                     : 0.0,
                 "%");
}

// ------------------------------------------------------------- the run --

struct RunArgs {
  WorkloadSpec spec;
  std::string work_dir;
  double seconds = 10;
  bool trace = false;
  uint64_t seed = 0;
};

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int RunWorkload(const RunArgs& args, Inputs in) {
  const WorkloadSpec& spec = args.spec;
  Report report;
  const std::string archive = args.work_dir + "/" + spec.name + ".lfr";

  SetupTimes setup;
  Result<std::unique_ptr<storage::Catalog>> built =
      spec.drain ? SetUpArchive(spec, in, archive, &setup)
                 : SetUpMemCatalog(spec, in, &setup);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<storage::Catalog> catalog = std::move(*built);
  // The catalog objects were only needed to build the archive.
  std::vector<storage::CatalogObject>().swap(in.catalog);

  // Traced mode reads the same archive through a TracedStore.
  Tracer tracer;
  std::unique_ptr<storage::Catalog> traced_catalog;
  if (args.trace && spec.drain) {
    auto store = storage::FileStore::Open(archive);
    Result<std::unique_ptr<storage::Catalog>> c =
        store.ok() ? storage::Catalog::FromStore(std::make_unique<TracedStore>(
                         std::move(*store), &tracer))
                   : Result<std::unique_ptr<storage::Catalog>>(store.status());
    if (!c.ok()) {
      std::fprintf(stderr, "traced open failed: %s\n",
                   c.status().ToString().c_str());
      return 1;
    }
    traced_catalog = std::move(*c);
  }
  storage::Catalog* traced_target =
      traced_catalog != nullptr ? traced_catalog.get() : catalog.get();

  Runner runner(spec, in, args.seed, &report);
  const Call call = spec.drain ? Call::kDrain : Call::kServe;
  const size_t traces = in.traces.size();
  // The virtual-clock figures come from one pass over every trace. For
  // serving it is the first measured pass. A drain has no virtual clock:
  // its pass is its modeled twin, the same closed batch served on the
  // virtual clock.
  std::vector<Served> virtual_pass;
  if (spec.drain) {
    sim::SimEngine twin(catalog.get(),
                        MakeScheduler(spec, catalog.get(), nullptr),
                        EngineFor(spec, /*real_io=*/false));
    for (size_t t = 0; t < traces; ++t) {
      virtual_pass.push_back(
          runner.Run(&twin, Call::kServe, "modeled twin", t));
    }
  }

  sim::SimEngine engine(catalog.get(),
                        MakeScheduler(spec, catalog.get(), nullptr),
                        EngineFor(spec, spec.drain));
  std::unique_ptr<sim::SimEngine> traced_engine;
  if (args.trace) {
    traced_engine = std::make_unique<sim::SimEngine>(
        traced_target, MakeScheduler(spec, traced_target, &tracer),
        EngineFor(spec, spec.drain));
  }

  for (int i = 0; i < kWarmupServes; ++i) {
    runner.Run(&engine, call, "warm-up", 0);
  }
  if (traced_engine != nullptr) {
    runner.Run(traced_engine.get(), call, "traced warm-up", 0);
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return Seconds(start, std::chrono::steady_clock::now());
  };
  // Per measured serve: queries per wall second and the response p50/p99.
  std::vector<double> qps, p50, p99;
  std::vector<LayerSample> layers;
  std::vector<Served> traced_pass;  // the last traced pass
  if (traced_engine == nullptr) {
    // Serve the traces in turn until --seconds have passed, with at least
    // kMinServes serves and one serve of every trace.
    const size_t min_serves = std::max(kMinServes, traces);
    for (size_t n = 0; report.errors.empty() &&
                       (n < min_serves || elapsed() < args.seconds);
         ++n) {
      Served s = runner.Run(&engine, call, "serve " + std::to_string(n + 1),
                            n % traces);
      if (s.wall_ms > 0) {
        qps.push_back(static_cast<double>(s.queries) / (s.wall_ms / 1e3));
      }
      p50.push_back(s.metrics.p50_response_ms);
      p99.push_back(s.metrics.p99_response_ms);
      if (!spec.drain && n < traces) virtual_pass.push_back(std::move(s));
    }
  } else {
    // Untraced and traced passes over the traces alternate, so the
    // overhead compares like with like; at least kMinServes traced serves.
    const size_t min_passes = (kMinServes + traces - 1) / traces;
    while (report.errors.empty() &&
           (layers.size() < min_passes || elapsed() < args.seconds)) {
      const std::string pass = std::to_string(layers.size() + 1);
      LayerSample sample;
      std::vector<Served> plain;
      for (size_t t = 0; t < traces; ++t) {
        plain.push_back(runner.Run(&engine, call, "pass " + pass, t));
        sample.plain_ms += plain.back().wall_ms;
      }
      TimeSplit(*traced_target, in, &sample);
      traced_pass.clear();
      tracer.BeginRoot(spec.name.c_str());
      for (size_t t = 0; t < traces; ++t) {
        traced_pass.push_back(
            runner.Run(traced_engine.get(), call, "traced pass " + pass, t));
        sample.wall_ms += traced_pass.back().wall_ms;
      }
      tracer.EndRoot();
      FillLayerSample(tracer, &sample);
      layers.push_back(sample);
      // Transparency: tracing must not change what the program computes.
      for (size_t t = 0; t < traces; ++t) {
        if (traced_pass[t].matches != plain[t].matches ||
            traced_pass[t].metrics.queries_completed !=
                plain[t].metrics.queries_completed) {
          report.Error("traced pass " + pass + " trace " +
                       std::to_string(t + 1) +
                       " changed per-query matches or completions");
        }
      }
    }
  }

  if (args.trace) {
    ReportLayers(layers, traced_pass, setup, &report);
    const std::string base = args.work_dir + "/" + spec.name;
    const Status st = tracer.WriteSpans(base + "-spans.json");
    if (!st.ok()) report.Error("writing spans: " + st.ToString());
    FILE* f = std::fopen((base + "-layers.json").c_str(), "w");
    bool written = f != nullptr;
    if (written) {
      written = std::fprintf(f, "%s\n", report.Json().c_str()) >= 0;
      written = std::fclose(f) == 0 && written;
    }
    if (!written) report.Error("writing " + base + "-layers.json");
  } else {
    report.Metric("setup_s", Median(setup.total_s), "s");
    report.Metric("wall_qps", Median(qps), "1/s");
    // Response time on the clock the workload runs on: measured wall time
    // for the real-I/O drains, the virtual clock for serving.
    report.Metric("response_p50_ms",
                  spec.drain ? Median(p50)
                             : MedianOverTraces(virtual_pass,
                                                [](const Served& s) {
                                                  return s.metrics
                                                      .p50_response_ms;
                                                }),
                  "ms");
    report.Metric("response_p99_ms",
                  spec.drain ? Median(p99)
                             : MedianOverTraces(virtual_pass,
                                                [](const Served& s) {
                                                  return s.metrics
                                                      .p99_response_ms;
                                                }),
                  "ms");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    ReportVirtual(virtual_pass, &report);
  }
  std::printf("%s: %zu traces, seed %llu, %zu measured serves, %zu traced "
              "passes\n",
              spec.name.c_str(), traces,
              static_cast<unsigned long long>(args.seed), qps.size(),
              layers.size());
  if (!qps.empty()) {
    std::printf("queries per wall second over serves: min %.1f, median %.1f, "
                "max %.1f\n",
                *std::min_element(qps.begin(), qps.end()), Median(qps),
                *std::max_element(qps.begin(), qps.end()));
  }
  report.Print();
  std::error_code ec;
  std::filesystem::remove(archive, ec);
  return report.errors.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  liferaft::Logger::SetLevel(liferaft::LogLevel::kWarn);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run [flags] (see README.md)\n");
    return 2;
  }
  const std::string command = argv[1];
  auto flags = Flags::Parse(argc, argv);
  auto fail = [](const Status& s) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  };
  if (!flags.ok()) return fail(flags.status());
  auto workload = flags->Get("workload");
  if (!workload.ok()) return fail(workload.status());
  auto spec = FindWorkload(*workload, flags->smoke);
  if (!spec.ok()) return fail(spec.status());
  auto seed = flags->GetUint("seed");
  if (!seed.ok()) return fail(seed.status());

  if (command == "gen") {
    auto out = flags->Get("out");
    if (!out.ok()) return fail(out.status());
    auto in = GenerateInputs(*spec, *seed);
    if (!in.ok()) return fail(in.status());
    Status st = WriteInputs(*out, *in);
    return st.ok() ? 0 : fail(st);
  }
  if (command == "run") {
    RunArgs args;
    args.spec = *spec;
    args.seed = *seed;
    auto inputs = flags->Get("inputs");
    auto work = flags->Get("work");
    auto seconds = flags->GetUint("seconds");
    auto trace = flags->GetUint("trace");
    for (const Status& s : {inputs.status(), work.status(), seconds.status(),
                            trace.status()}) {
      if (!s.ok()) return fail(s);
    }
    args.work_dir = *work;
    args.seconds = static_cast<double>(*seconds);
    args.trace = *trace != 0;
    auto in = ReadInputs(*inputs, spec->traces);
    if (!in.ok()) return fail(in.status());
    return RunWorkload(args, std::move(*in));
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
