// Top-level configuration of a LifeRaft instance, aggregating every layer's
// knobs with paper defaults.

#ifndef LIFERAFT_CORE_OPTIONS_H_
#define LIFERAFT_CORE_OPTIONS_H_

#include <cstddef>

#include "join/hybrid.h"
#include "sched/metric.h"
#include "sched/qos.h"
#include "storage/disk_model.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::core {

/// Options for LifeRaft::Create. Defaults follow the paper's experimental
/// configuration (scaled: see DESIGN.md §5).
struct LifeRaftOptions {
  /// Equal-count partitioning target (paper: 10,000 objects = 40 MB).
  size_t objects_per_bucket = 1000;
  /// Bucket cache capacity in buckets (paper: 20).
  size_t cache_capacity = 20;
  /// Lock/LRU shards of the bucket cache (clamped to [1, cache_capacity]);
  /// 1 reproduces the unsharded cache exactly.
  size_t cache_shards = 1;
  /// Age bias alpha in [0, 1]: 0 = greedy most-contentious-first,
  /// 1 = arrival order.
  double alpha = 0.25;
  /// U_a blending mode (see sched/metric.h).
  sched::MetricNormalization normalization =
      sched::MetricNormalization::kNormalized;
  /// Hybrid join configuration (index threshold ~3%).
  join::HybridConfig hybrid;
  /// Disk cost model (defaults calibrated to T_b = 1.2 s, T_m = 0.13 ms).
  /// With a multi-volume topology this is the default every volume
  /// inherits unless topology.volume_disk overrides it per volume.
  storage::DiskModelParams disk;
  /// Multi-volume storage topology: how buckets are spread over
  /// independent disk arms (num_volumes, range/hash placement, optional
  /// per-volume disk params). The default single volume reproduces the
  /// pre-topology system byte for byte; more volumes let the prefetch
  /// pipeline overlap fetches across arms on the virtual clock.
  storage::StorageTopologyConfig topology;
  /// Optional QoS age depreciation (paper §6 future work).
  sched::QosConfig qos;
  /// Build the B+tree spatial index (required for the hybrid indexed path).
  bool build_index = true;
  /// Worker threads for a batch's join work. 1 = serial. Parallel mode
  /// produces results identical to serial mode (see join::JoinEvaluator);
  /// scheduling and the virtual clock stay deterministic.
  size_t num_threads = 1;
  /// Cross-batch prefetch pipelining through exec::BatchPipeline: while a
  /// batch joins, start fetching the buckets the scheduler is predicted to
  /// pick next, hiding their T_b behind matching compute on the virtual
  /// clock. Deterministic; changes the schedule (prefetched buckets count
  /// as resident for phi), so enable it consistently across compared runs.
  bool enable_prefetch = false;
  /// Predicted picks kept in flight when prefetching (>= 1). Under
  /// adaptive_prefetch this only seeds the controller's starting depth.
  size_t prefetch_depth = 1;
  /// Drop prefetch bets that leave the scheduler's prediction window
  /// instead of holding them until claimed.
  bool cancel_on_mispredict = false;
  /// Feedback-driven prefetch depth between 0 and max_prefetch_depth:
  /// shrink on mispredict bursts, grow while hidden latency per claim
  /// stays positive (exec::PrefetchController). Implies window-based bet
  /// cancelation and enables the prefetch pipeline.
  bool adaptive_prefetch = false;
  /// Depth ceiling for the adaptive controller (>= 1).
  size_t max_prefetch_depth = 4;

  Status Validate() const;
};

}  // namespace liferaft::core

#endif  // LIFERAFT_CORE_OPTIONS_H_
