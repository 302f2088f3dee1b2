// The execution stack: the part of the paper's Figure 3 system that sits
// below the Query Pre-Processor — storage topology, bucket cache, Join
// Evaluator, Workload Manager and the batch pipeline — sized by one
// StackConfig and wired in one place, Stack::Build. Both drivers run on
// it: core::LifeRaft (the library facade) and sim::SimEngine (trace
// replay and serving). The catalog and the scheduler belong to the
// driver; the stack borrows them.

#ifndef LIFERAFT_EXEC_STACK_H_
#define LIFERAFT_EXEC_STACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "exec/batch_pipeline.h"
#include "join/evaluator.h"
#include "join/hybrid.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "storage/disk_model.h"
#include "storage/topology.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace liferaft::exec {

/// Every knob that sizes or wires the execution stack, with paper
/// defaults. sim::EngineConfig and core::LifeRaftOptions extend it with
/// their drivers' own fields.
struct StackConfig {
  /// Bucket cache capacity in buckets (paper: 20; >= 1).
  size_t cache_capacity = 20;
  /// Lock/LRU shards of the bucket cache (>= 1; clamped to
  /// cache_capacity). 1 reproduces the unsharded cache exactly; higher
  /// values split the capacity into independent LRU domains, which
  /// changes eviction patterns (and with them modeled timings)
  /// deterministically while join results stay exact.
  size_t cache_shards = 1;
  /// Optional cache byte budget (BucketCache capacity_bytes; 0 = off).
  /// When set, residency is additionally bounded by charged bytes — real
  /// encoded page size for columnar buckets, the kBytesPerObject estimate
  /// otherwise — so at a fixed MB budget a compressed catalog keeps more
  /// buckets resident. Combine with a generous cache_capacity (e.g. the
  /// bucket count) for a pure byte budget.
  uint64_t cache_capacity_bytes = 0;
  /// Price every T_b consumer (scheduler U_t, evaluator scan/NoShare
  /// fetches, pipeline bets) by the store's real encoded page bytes when
  /// it has them. Off by default: runs are then provably independent of
  /// the on-disk format, which is what the v1/v2 identity tests pin down.
  bool charge_encoded_bytes = false;
  /// Hybrid join configuration (index threshold ~3%).
  join::HybridConfig hybrid;
  /// Disk cost model (defaults calibrated to T_b = 1.2 s, T_m = 0.13 ms).
  /// With a multi-volume topology this is the default every volume
  /// inherits unless topology.volume_disk overrides it per volume.
  storage::DiskModelParams disk;
  /// Multi-volume storage topology (num_volumes, range/hash placement,
  /// optional per-volume disk params): each volume models an independent
  /// disk arm with its own prefetch queue and virtual busy time, so the
  /// pipeline overlaps fetches across arms. The default single volume
  /// reproduces the pre-topology system byte for byte. Per-query
  /// execution uses it only for per-volume T_b charging.
  storage::StorageTopologyConfig topology;
  /// Worker threads for join work (>= 1; 1 = serial, the paper's loop). A
  /// batch's join is sliced across workers by workload entry; per-query
  /// execution fans out one task per ready query. Either way results are
  /// byte-identical to serial runs: counters and I/O charges are merged
  /// in order, so scheduling, cache traffic and the virtual clock are
  /// unchanged.
  size_t num_threads = 1;
  /// Cross-batch prefetch pipelining (see exec/batch_pipeline.h): while a
  /// batch joins, start reading the buckets the scheduler is predicted to
  /// pick next on the store's I/O workers, hiding their T_b behind
  /// matching compute on the virtual clock. Needs a store with concurrent
  /// reads. Changes the schedule (prefetched buckets count as resident
  /// for phi), so results are NOT comparable to non-prefetch runs; they
  /// are still deterministic and independent of num_threads.
  bool enable_prefetch = false;
  /// Predicted picks kept in flight per disk arm (>= 1); depth 1 on one
  /// volume is the single-bet pipeline. Under adaptive_prefetch this only
  /// seeds every arm's starting depth.
  size_t prefetch_depth = 1;
  /// Drop prefetch bets that leave the scheduler's prediction window
  /// instead of holding them until claimed.
  bool cancel_on_mispredict = false;
  /// Feedback-driven per-arm prefetch depth between 0 and
  /// max_prefetch_depth (exec::PrefetchController): shrink on mispredict
  /// bursts, grow while hidden latency per claim stays positive. Implies
  /// window-based bet cancelation and enables the pipeline regardless of
  /// enable_prefetch. Deterministic, like everything on the virtual clock.
  bool adaptive_prefetch = false;
  /// Depth ceiling for the adaptive controllers (>= 1, and >=
  /// prefetch_depth under adaptive_prefetch).
  size_t max_prefetch_depth = 4;
  /// Workload overflow: when non-empty, workload queues exceeding
  /// `workload_memory_budget` resident objects spill to this scratch
  /// file; restores charge disk time through the cost model. Batch
  /// execution only.
  std::string spill_path;
  uint64_t workload_memory_budget = 0;

  /// True when the pipeline places prefetch bets.
  bool prefetching() const { return enable_prefetch || adaptive_prefetch; }

  Status Validate() const;
};

/// One archive's execution stack. Members are declared in the order they
/// must be destroyed in reverse: the pipeline's read queues' workers use
/// the topology and the store, and the cache and evaluator borrow the
/// topology, so the pipeline goes first and the topology last.
class Stack {
 public:
  /// Validates `config` and builds the stack over `catalog` (not owned).
  /// `scheduler` (not owned) selects batch execution: when non-null the
  /// stack gets a BatchPipeline driven by it, and the scheduler is
  /// attached to the topology; null builds the per-query stack (cache,
  /// evaluator and manager only). `real_io` selects measured execution
  /// (see BatchPipeline). `previous`, when given, is torn down first and
  /// its worker pool reused if it has config.num_threads workers, so a
  /// driver that rebuilds per run keeps one pool.
  static Result<std::unique_ptr<Stack>> Build(
      storage::Catalog* catalog, sched::Scheduler* scheduler,
      const StackConfig& config, bool real_io,
      std::unique_ptr<Stack> previous = nullptr);

  const storage::StorageTopology& topology() const { return *topology_; }
  storage::BucketCache* cache() const { return cache_.get(); }
  join::JoinEvaluator* evaluator() const { return evaluator_.get(); }
  query::WorkloadManager* manager() const { return manager_.get(); }
  /// Null unless Build was given a scheduler.
  BatchPipeline* pipeline() const { return pipeline_.get(); }
  /// Null unless num_threads > 1.
  util::ThreadPool* pool() const { return pool_.get(); }

 private:
  Stack() = default;

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<storage::StorageTopology> topology_;
  std::unique_ptr<storage::BucketCache> cache_;
  std::unique_ptr<join::JoinEvaluator> evaluator_;
  std::unique_ptr<query::WorkloadManager> manager_;
  std::unique_ptr<BatchPipeline> pipeline_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_STACK_H_
