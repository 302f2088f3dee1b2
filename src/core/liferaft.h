// The LifeRaft system facade — the library's primary public API.
//
// A LifeRaft instance owns one archive (partitioned catalog + spatial
// index), the scheduler, and the execution stack over them (exec::Stack:
// Workload Manager, bucket cache, Join Evaluator and batch pipeline, built
// by the same Stack::Build the simulation engine uses), wired exactly as
// in the paper's Figure 3:
//
//     Submit() -> Query Pre-Processor -> Workload Manager (queues)
//     ProcessNextBatch() -> scheduler picks bucket -> Join Evaluator
//         -> Bucket Cache -> matches out, completions recorded
//
// Time is virtual: the internal clock advances by the disk model's cost of
// each batch, so a caller can drive the system synchronously and still read
// meaningful throughput / response-time numbers. (For trace experiments
// with arrival processes, use sim::SimEngine, which layers arrivals on the
// same components.)

#ifndef LIFERAFT_CORE_LIFERAFT_H_
#define LIFERAFT_CORE_LIFERAFT_H_

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "exec/stack.h"
#include "query/query.h"
#include "sched/liferaft_scheduler.h"
#include "storage/catalog.h"
#include "util/clock.h"

namespace liferaft::core {

/// Outcome of one scheduled bucket batch.
struct BatchOutcome {
  storage::BucketIndex bucket = 0;
  join::JoinStrategy strategy = join::JoinStrategy::kScan;
  bool cache_hit = false;
  /// Virtual time the batch consumed: the evaluator's io+cpu cost plus,
  /// under prefetching, the un-hidden residual of a claimed fetch.
  TimeMs cost_ms = 0.0;
  /// Queries whose last outstanding sub-query was in this batch.
  std::vector<query::QueryId> completed;
  /// Matches produced by this batch (all batch queries interleaved).
  std::vector<query::Match> matches;
};

/// Completion record for one query.
struct QueryCompletion {
  query::QueryId id = 0;
  TimeMs arrival_ms = 0.0;
  TimeMs completion_ms = 0.0;
  TimeMs ResponseMs() const { return completion_ms - arrival_ms; }
};

/// One archive's LifeRaft query processing system.
class LifeRaft {
 public:
  /// Builds the system over `catalog_objects` (the archive's fact table).
  static Result<std::unique_ptr<LifeRaft>> Create(
      std::vector<storage::CatalogObject> catalog_objects,
      const LifeRaftOptions& options);

  /// Admits a cross-match query. The query's arrival is stamped with the
  /// current virtual time (any caller-provided arrival_ms is honored if it
  /// is not in the past). Fails if the id is already pending or the query
  /// is empty.
  Status Submit(const query::CrossMatchQuery& query);

  /// Schedules and evaluates one bucket batch through the unified
  /// exec::BatchPipeline (the same loop the simulation engine runs, so
  /// prefetch pipelining works identically here). Returns nullopt when no
  /// work is pending.
  Result<std::optional<BatchOutcome>> ProcessNextBatch(
      bool collect_matches = true);

  /// Runs batches until no work remains; returns completions (appended in
  /// completion order). Matches are delivered through `on_batch` if
  /// provided.
  Result<std::vector<QueryCompletion>> Drain(
      const std::function<void(const BatchOutcome&)>& on_batch = nullptr);

  /// Current virtual time (ms since instance creation).
  TimeMs now_ms() const { return clock_.NowMs(); }

  /// Adjusts the age bias at runtime (workload-adaptive tuning).
  void set_alpha(double alpha) { scheduler_->set_alpha(alpha); }
  double alpha() const { return scheduler_->alpha(); }

  size_t pending_queries() const {
    return stack_->manager()->pending_queries();
  }
  const storage::Catalog& catalog() const { return *catalog_; }
  storage::CacheStats cache_stats() const { return stack_->cache()->stats(); }
  /// The multi-volume storage topology (always present; a single volume
  /// without LifeRaftOptions::topology overrides).
  const storage::StorageTopology& topology() const {
    return stack_->topology();
  }
  /// Per-arm I/O telemetry accumulated since creation (index = volume).
  std::vector<storage::VolumeIoStats> volume_stats() const {
    return stack_->pipeline()->volume_stats();
  }
  /// Virtual fetch time hidden behind compute by claimed prefetches.
  TimeMs prefetch_hidden_ms() const {
    return stack_->pipeline()->prefetch_hidden_ms();
  }
  /// The adaptive prefetch controller (null unless
  /// LifeRaftOptions::adaptive_prefetch).
  const exec::PrefetchController* prefetch_controller() const {
    return stack_->pipeline()->controller();
  }
  const join::EvaluatorStats& evaluator_stats() const {
    return stack_->evaluator()->stats();
  }
  /// Completions recorded since creation, in completion order.
  const std::vector<QueryCompletion>& completions() const {
    return completions_;
  }

 private:
  LifeRaft() : clock_(0.0) {}

  VirtualClock clock_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<sched::LifeRaftScheduler> scheduler_;
  /// Declared after the catalog and scheduler it borrows (destruction
  /// order).
  std::unique_ptr<exec::Stack> stack_;
  std::unordered_map<query::QueryId, TimeMs> arrivals_;
  std::vector<QueryCompletion> completions_;
};

}  // namespace liferaft::core

#endif  // LIFERAFT_CORE_LIFERAFT_H_
