// The unified batch-execution pipeline: the paper's core scheduling loop —
// pick a bucket, take its workload queue, claim a prefetch bet on it,
// place bets on the predicted next picks, evaluate the whole queue,
// account the I/O — written once, for both drivers
// (core::LifeRaft::ProcessNextBatch and sim::SimEngine's shared mode) and
// for both I/O modes.
//
// One read path: every bet — and, in real mode, every foreground miss —
// is a physical read on the pipeline's storage::AsyncReader, obtained
// from BucketStore::NewAsyncReader (per-volume submission queues, one I/O
// worker per volume). A claim hands the fetched bucket to the cache with
// one BucketCache::InsertRead. Only two things depend on the I/O mode:
//  * the price of time. Modeled (the default): DiskModel arm clocks, a bet
//    counts as resident once its modeled done_ms <= now, and a claim pays
//    the capped residual described below. Real (PipelineConfig::real_io):
//    a bet is resident once its read completed, and a claim pays the
//    MEASURED wall time the step blocked on the queue;
//  * who reads a foreground miss. Modeled: the evaluator's cache Get, priced
//    T_b. Real: the bucket's volume queue, so it serializes behind that
//    arm's bets; the batch's strategy is decided from the bucket's actual
//    residency, as the evaluator decides it.
//
// Depth-K prefetch: with prefetching enabled the pipeline keeps up to
// `prefetch_depth` predicted buckets in flight per disk arm
// (Scheduler::PeekNextBuckets supplies the predicted service order).
// Physical reads start immediately on the I/O workers, overlapping the
// current batch's join compute; the *modeled* fetches serialize per arm —
// a prefetch's virtual completion time queues behind the current batch's
// disk phase (when they share the arm) and behind every earlier prefetch
// on its own arm, so no arm's clock ever overlaps two of its fetches. A
// batch that claims its predicted bucket pays only the un-hidden residual
// max(0, fetch_done - now), capped at the bucket's full T_b — a bet
// queued so deep behind its arm that waiting would exceed a fresh
// foreground read is charged as exactly that read (and hides nothing),
// though the physical bytes are still reused. The full fetch minus the
// charged residual is credited to prefetch_hidden_ms. At prefetch_depth
// == 1 with cancel-on-mispredict off and a single volume this reproduces
// the PR 2 engine pipeline tick-for-tick.
//
// Multi-volume topology (storage::StorageTopology): each volume is an
// independent disk arm with its own in-flight bet queue, its own modeled
// busy time, and — in adaptive mode — its own PrefetchController depth.
// Scheduler::PeekNextBucketsCovering peeks the prediction deep enough to
// surface candidates for every arm, so arms the front of the prediction
// does not touch still get their fetches started; fetches on different
// arms overlap both each other and the foreground batch's disk phase on
// the virtual clocks, which is where the multi-spindle makespan win comes
// from. A batch's foreground I/O contends only with its own bucket's arm:
// bets on other arms neither slip nor delay it. A topology with a
// dedicated spill arm (StorageTopologyConfig::spill_arm) contributes one
// extra trailing arm that carries no bets and absorbs spill-restore busy
// time, so restores stop contending with the restored bucket's own arm.
// With a null topology (or num_volumes == 1) every bucket maps to arm 0
// and the accounting reduces to the single-arm model byte for byte.
//
// Mispredictions: by default an unclaimed prefetch is held until its
// bucket is eventually scheduled, its modeled completion slipping whenever
// the foreground batch needs its disk arm. With `cancel_on_mispredict` the
// pipeline instead drops queued prefetches that have fallen out of the
// scheduler's current prediction window (the arm time already modeled for
// them is not refunded — the bet was placed and lost). A dropped bet's
// fetched bytes are charged to the cache's prefetch_wasted_bytes and to
// its arm's controller; in modeled mode the drop waits for the read to
// land so the charge is deterministic, in real mode it charges only what
// has landed.
//
// Adaptive depth (PR 4, per-arm since the topology refactor): with
// `adaptive_prefetch` the fixed `prefetch_depth` becomes only the
// starting point — each arm's PrefetchController tracks that arm's
// stale-claim rate, hidden-ms per claim, and wasted prefetch bytes
// (EWMAs over the virtual clock) and walks the arm's depth between 0 and
// `controller.max_depth`: shrink on mispredict bursts, grow while deeper
// bets keep hiding latency and dropped bets are not burning bandwidth.
// Adaptive mode implies window-based cancelation (a shrunken window drops
// the now-out-of-scope bets, which is both the drain mechanism and the
// controller's mispredict signal). Still deterministic: controllers see
// only virtual quantities and step counts.
//
// Prefetch-aware eviction: each time the pipeline peeks the prediction
// window it publishes it to the cache (BucketCache::SetPredictionWindow),
// so eviction demotes predicted buckets last and the prefetcher stops
// evicting what it is about to fetch or claim.

#ifndef LIFERAFT_EXEC_BATCH_PIPELINE_H_
#define LIFERAFT_EXEC_BATCH_PIPELINE_H_

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "exec/prefetch_controller.h"
#include "join/evaluator.h"
#include "query/workload.h"
#include "sched/scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_cache.h"
#include "storage/topology.h"
#include "util/clock.h"
#include "util/status.h"

namespace liferaft::exec {

/// Knobs of the unified loop.
struct PipelineConfig {
  /// Cross-batch prefetch pipelining (see file comment). Changes the
  /// schedule (prefetched buckets count as resident for phi) but stays
  /// deterministic and thread-count independent.
  bool enable_prefetch = false;
  /// Predicted picks kept in flight PER ARM (>= 1). Depth 1 on a single
  /// volume is the PR 2 pipeline.
  size_t prefetch_depth = 1;
  /// Drop queued prefetches that leave the scheduler's prediction window
  /// instead of holding them until claimed.
  bool cancel_on_mispredict = false;
  /// Feedback-driven per-arm depth scaling between 0 and
  /// controller.max_depth (see file comment); prefetch_depth seeds every
  /// arm's starting depth. Implies window-based cancelation of stale bets.
  bool adaptive_prefetch = false;
  /// Tuning of the adaptive controllers (used when adaptive_prefetch).
  PrefetchControllerConfig controller;
  /// Materialize match tuples (disable for scheduling-scale experiments).
  bool collect_matches = true;
  /// Price prefetch bets and foreground reads by the store's real encoded
  /// page bytes instead of the kBytesPerObject estimate (see
  /// JoinEvaluator::set_charge_encoded_bytes; keep the two in sync so bet
  /// fetch times match foreground fetch times). Off by default — v1/v2
  /// runs stay byte-identical.
  bool charge_encoded_bytes = false;
  /// Measured execution: charge claims and foreground misses the wall
  /// time the step blocked on the read queues instead of modeled time
  /// (see file comment). Needs a store with concurrent reads.
  bool real_io = false;
};

/// Everything one pipeline step produced; the driver advances its clock by
/// TotalAdvanceMs() and owns completion/match bookkeeping.
struct StepOutcome {
  storage::BucketIndex bucket = 0;
  /// The disk arm the batch's bucket lives on (0 without a topology).
  storage::VolumeIndex volume = 0;
  join::JoinStrategy strategy = join::JoinStrategy::kScan;
  /// True if the scan path found the bucket resident (phi(i) == 0).
  bool cache_hit = false;
  /// Evaluator cost of the batch (io_ms + cpu_ms).
  TimeMs cost_ms = 0.0;
  TimeMs io_ms = 0.0;
  TimeMs cpu_ms = 0.0;
  /// Un-hidden tail of a claimed prefetch, charged before the batch.
  TimeMs fetch_residual_ms = 0.0;
  /// Sequential I/O for workload segments restored from the spill file.
  TimeMs restore_ms = 0.0;
  join::JoinCounters counters;
  /// Queries whose last outstanding sub-query was in this batch.
  std::vector<query::QueryId> completed;
  /// Matches produced by this batch (all batch queries interleaved).
  std::vector<query::Match> matches;

  /// Total virtual time this step consumes.
  TimeMs TotalAdvanceMs() const {
    return fetch_residual_ms + cost_ms + restore_ms;
  }
};

/// One archive's pick→prefetch→claim→evaluate→account loop. The pipeline
/// borrows every component and owns only its read queues (an AsyncReader
/// from the cache's store) and the per-arm prefetch bookkeeping; drivers
/// own the completion clock and call Step with their current time.
class BatchPipeline {
 public:
  /// @param scheduler bucket scheduling policy (not owned)
  /// @param manager   workload queues (not owned)
  /// @param evaluator join evaluator layered over the bucket cache (not
  ///                  owned; supplies the cache, disk model, and hybrid
  ///                  config)
  /// @param topology  volume map with per-volume disk models (not owned;
  ///                  may be null = single volume using the evaluator's
  ///                  model). It and the cache's store must outlive the
  ///                  pipeline: its read queues' workers use both.
  BatchPipeline(sched::Scheduler* scheduler, query::WorkloadManager* manager,
                join::JoinEvaluator* evaluator, PipelineConfig config,
                const storage::StorageTopology* topology = nullptr);

  /// Runs one scheduling step at virtual time `now` (in real mode, the
  /// driver's wall-clock time). Returns nullopt when no queue has pending
  /// work (outstanding prefetch bets stay pending — work may still arrive
  /// for them).
  Result<std::optional<StepOutcome>> Step(TimeMs now);

  /// Drops every outstanding prefetch bet on every arm (end of run /
  /// drain), charging the bytes they fetched as waste, and waits out
  /// every read still queued so no I/O worker is busy on the run's behalf.
  void CancelOutstandingPrefetches();

  /// Wall-clock telemetry of the read queues, one entry per volume
  /// (empty when the pipeline has no reader: modeled with prefetch off).
  std::vector<storage::AsyncVolumeStats> read_queue_stats() const;

  /// Virtual fetch time hidden behind compute by claimed prefetches,
  /// summed over all arms (per-arm split in volume_stats()).
  TimeMs prefetch_hidden_ms() const { return prefetch_hidden_ms_; }

  /// Arm `volume`'s adaptive controller, or null when adaptive_prefetch
  /// is off. The zero-arg form is the single-volume accessor (arm 0).
  const PrefetchController* controller(size_t volume) const {
    return arms_[volume].controller.get();
  }
  const PrefetchController* controller() const { return controller(0); }

  /// The depth the next Step will prefetch arm `volume` to (that arm's
  /// controller depth in adaptive mode, the fixed config depth
  /// otherwise), limited by the external depth cap. The zero-arg form
  /// reads arm 0.
  size_t current_prefetch_depth(size_t volume) const {
    const size_t raw = arms_[volume].controller != nullptr
                           ? arms_[volume].controller->depth()
                           : config_.prefetch_depth;
    return std::min(raw, depth_cap_);
  }
  size_t current_prefetch_depth() const { return current_prefetch_depth(0); }

  /// Caps every arm's next-step prefetch depth — adaptive or fixed — at
  /// `cap`. The default (SIZE_MAX) never binds; the serving engine drives
  /// this from the active QoS class's QosPrefetchConfig between steps.
  /// The cap limits how many NEW bets a step places; bets already in
  /// flight are untouched (the window-based stale drop drains them).
  void set_depth_cap(size_t cap) { depth_cap_ = cap; }
  size_t depth_cap() const { return depth_cap_; }

  /// Number of disk arms including the dedicated spill arm, if any.
  size_t num_volumes() const { return arms_.size(); }

  /// Arms that own buckets — and so can carry prefetch bets and a depth
  /// controller. One less than num_volumes() under a spill-arm topology.
  size_t bucket_volumes() const { return bucket_volumes_; }

  /// Per-arm I/O telemetry accumulated so far (index = volume).
  std::vector<storage::VolumeIoStats> volume_stats() const;

  /// Residency probe for the scheduler's phi term at time `now`: resident
  /// in cache, or bet on by a prefetch that has landed (see Landed) —
  /// which steers the metric toward the bucket we bet on, making the
  /// prediction self-fulfilling.
  sched::CacheProbe MakeCacheProbe(TimeMs now) const;

  /// Per-call match materialization (core::LifeRaft's ProcessNextBatch
  /// exposes this per batch).
  void set_collect_matches(bool collect) { config_.collect_matches = collect; }

  /// Outstanding bets across all arms.
  size_t pending_prefetches() const;

 private:
  /// One outstanding read on the pipeline's AsyncReader: a prefetch bet,
  /// or (real mode) a foreground miss.
  struct Bet {
    storage::BucketIndex bucket = 0;
    /// Virtual time at which the modeled fetch completes on its arm
    /// (queued behind the arm's foreground I/O and earlier prefetches).
    /// Modeled mode only.
    TimeMs done_ms = 0.0;
    /// Full modeled fetch cost (T_b of the bucket), for hidden-time stats.
    /// Modeled mode only.
    TimeMs fetch_ms = 0.0;
    /// The read's completion, filled in by the reader's callback on the
    /// owner thread (inside Poll()/Wait()). Shared with the callback, so a
    /// bet dropped before its read lands leaves nothing dangling.
    std::shared_ptr<std::optional<storage::AsyncReadCompletion>> read;
  };

  /// One disk arm: its outstanding bets in predicted service order (= that
  /// arm's queue order), its adaptive depth controller, and its telemetry.
  struct Arm {
    std::deque<Bet> bets;
    /// Non-null iff config_.adaptive_prefetch.
    std::unique_ptr<PrefetchController> controller;
    storage::VolumeIoStats stats;
  };

  /// Starts reading bucket `b` on its volume's queue.
  Bet Submit(storage::BucketIndex b);
  /// Blocks until `bet`'s read has completed; returns the measured wall
  /// time spent waiting.
  TimeMs Await(const Bet& bet);
  /// True if `bet` counts as resident at time `now`: its modeled fetch is
  /// done (modeled mode) or its read completed successfully (real mode).
  bool Landed(const Bet& bet, TimeMs now) const;
  /// Charges a bet dropped unclaimed to the cache's cancel and waste
  /// counters; returns the wasted bytes (EstimatedBytes of what the read
  /// fetched, 0 if it failed or — real mode — has not landed).
  uint64_t Drop(const Bet& bet);

  storage::VolumeIndex VolumeOf(storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->VolumeOf(b) : 0;
  }
  /// Disk model for bucket `b`'s sequential fetches: its volume's model
  /// under a topology, the evaluator's global model otherwise.
  const storage::DiskModel& ModelFor(storage::BucketIndex b) const {
    return topology_ != nullptr ? topology_->ModelFor(b)
                                : evaluator_->disk_model();
  }
  /// True if the evaluator would take the scan path for this batch with
  /// the bucket's residency `cached`. With cached = true this says whether
  /// claiming a bet will actually be consumed: under
  /// prefer_scan_when_cached=false a small batch probes the index and
  /// would never touch the fetched bucket (ChooseStrategy ignores
  /// residency in that config, so the evaluator reaches the same strategy
  /// whether or not we claim).
  bool WillScan(storage::BucketIndex bucket, uint64_t queue_objects,
                bool cached) const;

  sched::Scheduler* scheduler_;
  query::WorkloadManager* manager_;
  join::JoinEvaluator* evaluator_;
  storage::BucketCache* cache_;
  const storage::StorageTopology* topology_;
  PipelineConfig config_;

  /// One entry per bucket volume (exactly one without a topology), plus a
  /// trailing bet-less entry for the spill arm when the topology
  /// dedicates one.
  std::vector<Arm> arms_;
  /// Arms [0, bucket_volumes_) own buckets; a spill arm, if present, is
  /// arms_[bucket_volumes_].
  size_t bucket_volumes_ = 1;
  /// External per-step depth limit (see set_depth_cap).
  size_t depth_cap_ = std::numeric_limits<size_t>::max();
  TimeMs prefetch_hidden_ms_ = 0.0;
  /// Last window published to the cache (skip republishing unchanged
  /// windows — the cache locks every shard to swap them).
  std::vector<storage::BucketIndex> last_window_;

  /// The read queues every bet goes through; null when the pipeline never
  /// reads (modeled mode with prefetch off).
  std::unique_ptr<storage::AsyncReader> reader_;
  WallClock wall_;
};

}  // namespace liferaft::exec

#endif  // LIFERAFT_EXEC_BATCH_PIPELINE_H_
