// The discrete-event simulation engine: replays a query trace against one
// archive under a chosen execution mode, advancing a virtual clock by the
// disk model's costs. Joins execute for real (matches are exact); only I/O
// latency is modeled — see docs/ARCHITECTURE.md, "Modeling assumptions".
//
// Execution modes (paper §5):
//  * kShared    — batch processing through the Workload Manager / LifeRaft
//                 architecture: a Scheduler picks a bucket, its whole
//                 workload queue is served in one pass through the shared
//                 bucket cache (hybrid join applies).
//  * kNoShare   — each query is evaluated independently and in arrival
//                 order: scan-based, but no I/O sharing and no shared
//                 cache.
//  * kIndexOnly — SkyQuery's legacy execution: every query evaluated
//                 exclusively through spatial-index probes, in arrival
//                 order.

#ifndef LIFERAFT_SIM_ENGINE_H_
#define LIFERAFT_SIM_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "exec/stack.h"
#include "query/workload.h"
#include "sched/adaptive.h"
#include "sched/scheduler.h"
#include "sim/run_metrics.h"
#include "sim/serve.h"
#include "storage/catalog.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::sim {

/// How queries are executed (see file comment).
enum class ExecutionMode { kShared, kNoShare, kIndexOnly };

const char* ExecutionModeName(ExecutionMode mode);

/// How I/O time is charged.
///  * kModeled — the virtual-clock oracle: every fetch costs DiskModel
///    arithmetic, runs are deterministic and bit-reproducible. The
///    default, and the only mode the golden/digest tests ever see.
///  * kReal — measured execution: prefetch bets and foreground misses are
///    dispatched to the store's per-volume submission queues
///    (storage::AsyncReader) and the engine clock tracks ELAPSED WALL
///    TIME, so multi-volume overlap is measured, not modeled. Requires
///    kShared execution with a store that supports concurrent reads
///    (FileStore, MemStore); Run only — Serve's admission control is
///    defined on the virtual clock.
enum class IoMode { kModeled, kReal };

const char* IoModeName(IoMode mode);

/// Engine configuration: the execution stack's knobs (exec::StackConfig;
/// the spill and prefetch knobs apply to shared mode only) plus the
/// engine's own.
struct EngineConfig : exec::StackConfig {
  ExecutionMode mode = ExecutionMode::kShared;
  /// Virtual-clock oracle vs measured wall-clock execution (see IoMode).
  /// kModeled keeps every result bit-identical to builds that predate
  /// real I/O.
  IoMode io_mode = IoMode::kModeled;
  /// Keep match tuples (disable for scheduling-scale experiments).
  bool collect_matches = false;
  /// Optional workload-adaptive alpha: when set and the scheduler is a
  /// LifeRaftScheduler, the engine re-selects alpha from the observed
  /// arrival rate after every admission.
  const sched::AlphaSelector* alpha_selector = nullptr;
  /// Window for the adaptive controller's arrival-rate estimate.
  TimeMs rate_window_ms = 120'000.0;
};

/// Per-query outcome of a run.
struct QueryOutcome {
  query::QueryId id = 0;
  TimeMs arrival_ms = 0.0;
  TimeMs completion_ms = 0.0;
  size_t parts = 0;
  uint64_t matches = 0;
  /// QoS class assigned at admission (serving mode; kBatch for Run).
  QosClass qos = QosClass::kBatch;

  TimeMs ResponseMs() const { return completion_ms - arrival_ms; }
};

/// Single-archive simulation engine.
class SimEngine {
 public:
  /// @param catalog   the archive (not owned; must outlive the engine)
  /// @param scheduler bucket scheduler; required for kShared, ignored
  ///                  otherwise
  SimEngine(storage::Catalog* catalog,
            std::unique_ptr<sched::Scheduler> scheduler, EngineConfig config);

  /// Replays `queries[i]` arriving at `arrivals_ms[i]` (parallel arrays;
  /// arrivals must be ascending) until every query completes. Returns the
  /// run's metrics; per-query outcomes are available via outcomes().
  Result<RunMetrics> Run(const std::vector<query::CrossMatchQuery>& queries,
                         const std::vector<TimeMs>& arrivals_ms);

  /// Continuous serving (shared mode only): queries arrive open-loop per
  /// `serve.arrivals`, are QoS-classified by fan-out, and pass the
  /// admission controller before entering the workload manager — arrivals
  /// it sheds never execute and are reported per class in
  /// RunMetrics::qos_classes. With an EngineConfig::alpha_selector the
  /// LifeRaft alpha is re-selected online from the controller's offered-
  /// rate estimate. A kTrace spec with no shedding bounds and no selector
  /// reproduces Run(queries, trace) exactly.
  Result<RunMetrics> Serve(const std::vector<query::CrossMatchQuery>& queries,
                           const ServeConfig& serve);

  /// Outcomes of the last Run, in completion order.
  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }

  /// The scheduler (null in per-query modes); exposed for tests and for
  /// inspecting the adaptive alpha trajectory.
  sched::Scheduler* scheduler() { return scheduler_.get(); }

 private:
  struct AdmittedQuery {
    const query::CrossMatchQuery* query;
    std::vector<query::BucketWorkload> workloads;
    TimeMs arrival_ms;
  };

  // Checks the trace and the mode preconditions, resets all run state,
  // and rebuilds the execution stack (exec::Stack::Build; with a batch
  // pipeline in shared mode). Shared verbatim between Run and Serve so
  // both drive the identical execution stack.
  Status PrepareRun(const std::vector<query::CrossMatchQuery>& queries);
  // Collects the common (mode-independent) portion of RunMetrics from the
  // engine's post-loop state. `n` is the query count used for the
  // throughput denominator.
  RunMetrics AssembleMetrics(size_t n);

  // One scheduling step in shared mode (delegates to the unified
  // exec::BatchPipeline); advances the clock. Returns false if there was
  // no pending work.
  Result<bool> SharedStep();
  // Serves the FIFO-front query in a per-query mode (serial path), or the
  // whole ready window in parallel. `admit_ready` admits every arrival at
  // or before the current clock; the parallel path invokes it between
  // per-query completions exactly where the serial loop would.
  Result<bool> PerQueryStep(const std::function<Status()>& admit_ready);

  void RecordCompletion(query::QueryId id, TimeMs completion);

  storage::Catalog* catalog_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  EngineConfig config_;

  // Run state. The stack is rebuilt by every PrepareRun; its worker pool
  // is kept across runs.
  std::unique_ptr<exec::Stack> stack_;
  std::vector<AdmittedQuery> fifo_;  // per-query modes; front = next
  size_t fifo_head_ = 0;
  TimeMs clock_ = 0.0;
  /// Real mode: the wall time PrepareRun finished at; the engine clock is
  /// max(clock_, wall now - this) after every step.
  WallClock wall_;
  TimeMs wall_base_ms_ = 0.0;

  std::unordered_map<query::QueryId, QueryOutcome> pending_outcomes_;
  std::vector<QueryOutcome> outcomes_;
  uint64_t total_matches_ = 0;
  uint64_t fifo_pending_objects_ = 0;
  uint64_t peak_pending_objects_ = 0;
  /// Admitted-but-incomplete interactive queries (serving mode; always 0
  /// in Run). Drives which QosPrefetchConfig entry caps the pipeline.
  size_t pending_interactive_ = 0;
};

}  // namespace liferaft::sim

#endif  // LIFERAFT_SIM_ENGINE_H_
