#include "exec/batch_pipeline.h"

#include <algorithm>
#include <cassert>

#include "join/hybrid.h"
#include "storage/bucket.h"

namespace liferaft::exec {

BatchPipeline::BatchPipeline(sched::Scheduler* scheduler,
                             query::WorkloadManager* manager,
                             join::JoinEvaluator* evaluator,
                             PipelineConfig config,
                             const storage::StorageTopology* topology)
    : scheduler_(scheduler),
      manager_(manager),
      evaluator_(evaluator),
      cache_(evaluator != nullptr ? evaluator->cache() : nullptr),
      topology_(topology),
      config_(config) {
  assert(scheduler_ != nullptr);
  assert(manager_ != nullptr);
  assert(evaluator_ != nullptr);
  assert(cache_ != nullptr);
  if (config_.prefetch_depth == 0) config_.prefetch_depth = 1;
  if (config_.adaptive_prefetch) {
    // The fixed depth seeds every arm's controller; from there each arm's
    // feedback loop owns its own depth. The controller's documented
    // precondition: the config must validate (the engine/facade layers
    // sanitize theirs; direct PipelineConfig users get the same check
    // here).
    config_.controller.initial_depth = config_.prefetch_depth;
    if (config_.controller.max_depth == 0) config_.controller.max_depth = 1;
    assert(config_.controller.Validate().ok());
  }
  bucket_volumes_ = topology_ != nullptr ? topology_->num_volumes() : 1;
  const bool spill_arm = topology_ != nullptr && topology_->has_spill_arm();
  // The spill arm (when present) is the trailing entry: it carries no
  // bets and no controller, only telemetry for restore I/O.
  arms_.resize(bucket_volumes_ + (spill_arm ? 1 : 0));
  if (config_.adaptive_prefetch) {
    for (size_t v = 0; v < bucket_volumes_; ++v) {
      arms_[v].controller =
          std::make_unique<PrefetchController>(config_.controller);
    }
  }
  if (config_.real_io || config_.enable_prefetch ||
      config_.adaptive_prefetch) {
    reader_ = cache_->mutable_store()->NewAsyncReader(topology_);
  }
}

sched::CacheProbe BatchPipeline::MakeCacheProbe(TimeMs now) const {
  return [this, now](storage::BucketIndex b) {
    if (cache_->Contains(b)) return true;
    // A bet that has landed is as good as resident for the metric's phi
    // term. A bucket only ever bets on its own arm, but scanning every arm
    // keeps the probe independent of the placement map.
    for (const Arm& arm : arms_) {
      for (const Bet& bet : arm.bets) {
        if (bet.bucket == b && Landed(bet, now)) return true;
      }
    }
    return false;
  };
}

bool BatchPipeline::Landed(const Bet& bet, TimeMs now) const {
  if (!config_.real_io) return bet.done_ms <= now;
  return bet.read->has_value() && (*bet.read)->status.ok();
}

bool BatchPipeline::WillScan(storage::BucketIndex bucket,
                             uint64_t queue_objects, bool cached) const {
  if (evaluator_->index() == nullptr) return true;
  return join::ChooseStrategy(evaluator_->hybrid_config(), queue_objects,
                              cache_->store().BucketObjectCount(bucket),
                              cached) == join::JoinStrategy::kScan;
}

size_t BatchPipeline::pending_prefetches() const {
  size_t total = 0;
  for (const Arm& arm : arms_) total += arm.bets.size();
  return total;
}

std::vector<storage::VolumeIoStats> BatchPipeline::volume_stats() const {
  std::vector<storage::VolumeIoStats> stats;
  stats.reserve(arms_.size());
  for (const Arm& arm : arms_) stats.push_back(arm.stats);
  return stats;
}

std::vector<storage::AsyncVolumeStats> BatchPipeline::read_queue_stats()
    const {
  return reader_ != nullptr ? reader_->VolumeStats()
                            : std::vector<storage::AsyncVolumeStats>{};
}

BatchPipeline::Bet BatchPipeline::Submit(storage::BucketIndex b) {
  Bet bet;
  bet.bucket = b;
  bet.read = std::make_shared<std::optional<storage::AsyncReadCompletion>>();
  // The callback runs on this thread, inside the reader's Poll()/Wait(),
  // and touches only the bet's own slot — which outlives a dropped bet.
  reader_->SubmitRead(
      b, [slot = bet.read](const storage::AsyncReadCompletion& c) {
        *slot = c;
      });
  return bet;
}

TimeMs BatchPipeline::Await(const Bet& bet) {
  const TimeMs t0 = wall_.NowMs();
  // Wait() parks until ANY completion arrives; completions of other arms'
  // bets delivered along the way are the overlap real mode measures.
  while (!bet.read->has_value()) {
    assert(reader_->in_flight() > 0);
    reader_->Wait();
  }
  return wall_.NowMs() - t0;
}

uint64_t BatchPipeline::Drop(const Bet& bet) {
  // Modeled mode waits for the read so the waste (which feeds the
  // adaptive controller) is the same at every thread count and disk
  // speed; real mode never blocks on a read nobody wants.
  if (!config_.real_io) Await(bet);
  const uint64_t wasted = bet.read->has_value() && (*bet.read)->status.ok()
                              ? (*bet.read)->bucket->EstimatedBytes()
                              : 0;
  cache_->CountPrefetchCancel(wasted);
  return wasted;
}

Result<std::optional<StepOutcome>> BatchPipeline::Step(TimeMs now) {
  // Adaptive mode reads each arm's depth from its controller (0 = off for
  // now) and always drops bets that leave the prediction window — the
  // drop doubles as that arm's controller's mispredict signal.
  const bool prefetch_on =
      config_.enable_prefetch || config_.adaptive_prefetch;
  const bool drop_stale =
      config_.cancel_on_mispredict || config_.adaptive_prefetch;
  const bool real = config_.real_io;
  // Prefetch bookkeeping spans only the bucket arms; the spill arm (the
  // trailing entry, when present) never carries bets.
  const size_t volumes = bucket_volumes_;
  std::vector<PrefetchFeedback> feedback(volumes);

  // Harvest whatever the queues finished since the last step, so the
  // residency probe sees real mode's completed bets.
  if (reader_ != nullptr) reader_->Poll();
  const sched::CacheProbe cached = MakeCacheProbe(now);
  std::optional<storage::BucketIndex> pick =
      scheduler_->PickBucket(*manager_, now, cached);
  if (!pick.has_value()) return std::optional<StepOutcome>{};

  StepOutcome outcome;
  outcome.bucket = *pick;
  outcome.volume = VolumeOf(*pick);
  Arm& pick_arm = arms_[outcome.volume];
  uint64_t restored_bytes = 0;
  LIFERAFT_ASSIGN_OR_RETURN(
      std::vector<query::WorkloadEntry> entries,
      manager_->TakeBucket(*pick, &outcome.completed, &restored_bytes));
  uint64_t queue_objects = 0;
  for (const query::WorkloadEntry& e : entries) {
    queue_objects += e.objects.size();
  }

  // Claim the outstanding bet on this bucket if the batch is the one it
  // bet on: wait for its read, hand the bucket to the cache (the evaluator
  // then sees a hit, charging no T_b) and charge the clock only the
  // un-hidden tail of the fetch. A bet on a different bucket stays queued
  // until its bucket is scheduled (or, under cancel_on_mispredict, until
  // it leaves the prediction window below). Claim only when the evaluator
  // will actually scan — an index-probing batch would never touch the
  // fetched bucket. A bucket bets only on its own arm, so only pick_arm's
  // queue can hold the bet.
  //
  // Modeled residual: at depth > 1 a bet can still be queued behind its
  // disk arm when its bucket comes up (modeled residual >= its full T_b);
  // waiting out that whole queue would cost more than a plain foreground
  // read, so the charge is capped at T_b — as if the arm preempted the
  // backlog and fetched the bucket fresh — while the claim still reuses
  // the physical read. A capped claim hides nothing. (At depth 1 the
  // residual is at most T_b minus the previous batch's matching time, so
  // the cap never binds and PR 2 accounting is reproduced exactly.) Real
  // residual: the measured wait; what the read's latency spent before the
  // wait began was hidden behind earlier steps.
  auto bet = std::find_if(pick_arm.bets.begin(), pick_arm.bets.end(),
                          [&](const Bet& b) { return b.bucket == *pick; });
  if (bet != pick_arm.bets.end() &&
      WillScan(*pick, queue_objects, /*cached=*/true)) {
    const TimeMs waited = Await(*bet);
    const storage::AsyncReadCompletion read = std::move(**bet->read);
    TimeMs hidden;
    if (real) {
      outcome.fetch_residual_ms = waited;
      hidden = std::max(0.0, read.latency_ms - waited);
      pick_arm.stats.busy_ms += read.latency_ms;
    } else {
      outcome.fetch_residual_ms =
          std::min(std::max(0.0, bet->done_ms - now), bet->fetch_ms);
      hidden = bet->fetch_ms - outcome.fetch_residual_ms;
    }
    pick_arm.bets.erase(bet);
    if (!read.status.ok()) return read.status;
    cache_->InsertRead(*pick, read.bucket, /*prefetched=*/true);
    prefetch_hidden_ms_ += hidden;
    pick_arm.stats.hidden_ms += hidden;
    ++pick_arm.stats.prefetch_claims;
    ++feedback[outcome.volume].claims;
    feedback[outcome.volume].hidden_ms += hidden;
    // A capped claim (residual == full fetch) reused the physical read
    // but hid nothing — the bet was queued too deep: stale by depth.
    if (hidden <= 0.0) ++feedback[outcome.volume].stale_claims;
  } else if (real && !cache_->Contains(*pick) &&
             WillScan(*pick, queue_objects, /*cached=*/false)) {
    // Real foreground miss, decided with the bucket's actual residency as
    // the evaluator decides it: read on the bucket's own volume queue, so
    // it physically serializes behind that arm's bets, and charge the
    // measured blocked time.
    const Bet fetch = Submit(*pick);
    outcome.fetch_residual_ms = Await(fetch);
    const storage::AsyncReadCompletion& read = **fetch.read;
    if (!read.status.ok()) return read.status;
    cache_->InsertRead(*pick, read.bucket, /*prefetched=*/false);
    pick_arm.stats.busy_ms += read.latency_ms;
    ++pick_arm.stats.foreground_reads;
    pick_arm.stats.foreground_bytes += read.bytes;
  }

  // Predict the next picks and start their physical reads now, overlapping
  // the join below; their modeled fetch times are assigned after the
  // evaluation, when this batch's disk phase is known. The prediction is
  // refreshed every live step — the window drives stale-bet cancelation
  // and eviction protection, and a stale window would protect yesterday's
  // predictions — and peeks deep enough (a) to judge every outstanding bet
  // (after a controller shrink more bets can be pending than the depth
  // admits new ones, and a still-predicted bet must not read as a
  // mispredict just because the window got smaller) and (b) to surface
  // candidates for EVERY arm, so an arm the front of the prediction does
  // not touch still gets its fetches started. New bets join the back of
  // their arm's queue; placed[v] counts the ones this step added.
  std::vector<size_t> placed(volumes, 0);
  if (prefetch_on) {
    std::vector<size_t> want(volumes);
    for (size_t v = 0; v < volumes; ++v) {
      want[v] = std::max(current_prefetch_depth(v), arms_[v].bets.size());
    }
    std::vector<storage::BucketIndex> predicted =
        scheduler_->PeekNextBucketsCovering(
            *manager_, now, cached,
            [this](storage::BucketIndex b) { return VolumeOf(b); }, want);
    // Publish the window so eviction demotes predicted buckets last (an
    // empty window — every depth scaled to 0 — restores plain LRU).
    // Skipped when unchanged: the cache locks every shard to swap
    // windows.
    if (predicted != last_window_) {
      cache_->SetPredictionWindow(predicted);
      last_window_ = predicted;
    }
    if (drop_stale) {
      // Drop bets that fell out of the prediction window. The arm time
      // already modeled for them is not refunded — the bet was placed and
      // lost — and any bytes the dropped bet fetched are charged to its
      // arm's controller as waste.
      for (size_t v = 0; v < volumes; ++v) {
        for (auto it = arms_[v].bets.begin(); it != arms_[v].bets.end();) {
          if (std::find(predicted.begin(), predicted.end(), it->bucket) ==
              predicted.end()) {
            feedback[v].wasted_bytes += Drop(*it);
            it = arms_[v].bets.erase(it);
            ++feedback[v].cancels;
          } else {
            ++it;
          }
        }
      }
    }
    // Fill every arm up to its depth, walking the global predicted
    // service order so each arm's queue stays in that order.
    for (storage::BucketIndex b : predicted) {
      const storage::VolumeIndex v = VolumeOf(b);
      if (arms_[v].bets.size() >= current_prefetch_depth(v)) continue;
      if (cache_->Contains(b)) continue;
      const bool already_queued =
          std::any_of(arms_[v].bets.begin(), arms_[v].bets.end(),
                      [&](const Bet& queued) { return queued.bucket == b; });
      if (already_queued) continue;
      arms_[v].bets.push_back(Submit(b));
      ++placed[v];
      ++arms_[v].stats.prefetch_issued;
      cache_->CountPrefetchIssued();
    }
  }

  Result<join::BatchResult> evaluated =
      evaluator_->EvaluateBucket(*pick, entries, config_.collect_matches);
  if (!evaluated.ok()) {
    // The bets placed above have no modeled times yet (those need this
    // batch's disk phase); drop them before surfacing the error.
    for (size_t v = 0; v < volumes; ++v) {
      for (; placed[v] > 0; --placed[v]) {
        Drop(arms_[v].bets.back());
        arms_[v].bets.pop_back();
      }
    }
    return evaluated.status();
  }
  join::BatchResult result = std::move(*evaluated);
  const storage::DiskModel& model = evaluator_->disk_model();
  // Fetching spilled workload segments back from disk is sequential I/O —
  // part of this batch's disk phase, so it also delays a prefetch's start
  // on the batch's arm. The spill file is run-scoped scratch, costed with
  // the default (evaluator) model rather than any volume's. (Real mode
  // keeps the modeled price as telemetry only: the restore happened
  // physically inside TakeBucket and the driver's wall clock holds it.)
  outcome.restore_ms =
      restored_bytes > 0 ? model.SequentialReadMs(restored_bytes) : 0.0;
  outcome.strategy = result.strategy;
  outcome.cache_hit = result.cache_hit;
  outcome.cost_ms = result.cost_ms;
  outcome.io_ms = result.io_ms;
  outcome.cpu_ms = result.cpu_ms;
  outcome.counters = result.counters;
  outcome.matches = std::move(result.matches);

  // Feed every arm's controller exactly once per completed step — steps
  // that resolved none of an arm's bets still advance its probe and
  // adjustment timers.
  for (size_t v = 0; v < volumes; ++v) {
    if (arms_[v].controller != nullptr) {
      arms_[v].controller->Observe(feedback[v]);
    }
  }
  // Real mode keeps no modeled arm clocks: the physical queues ARE the
  // arm serialization.
  if (real) return std::optional<StepOutcome>(std::move(outcome));

  // Independent arms: bets still in flight on the batch's own arm yield
  // that arm to the foreground I/O — their completion slips by however
  // long the arm was busy here — while bets on other arms run concurrently
  // with the whole batch and slip nothing. New fetches queue behind their
  // own arm only: behind this batch's foreground phase plus earlier bets
  // on the batch's arm, behind just the earlier bets elsewhere — fetches
  // never overlap fetches on the same arm's clock, and always overlap
  // across arms. The claimed residual does NOT slip the survivors: a bet
  // queued behind the claimed fetch already counted that fetch in its own
  // done time (slipping it again would double-charge the arm), and a bet
  // queued ahead of it finishes within the residual wait by construction.
  // Only the batch's own disk phase (scan I/O + spill restores) is arm
  // time the queue never anticipated. (Sums run left-to-right from `now`,
  // matching the pre-exec loop's expressions bit for bit on one volume.)
  //
  // With a dedicated spill arm, restore I/O moves off the bucket arm: the
  // batch still waits out the restore before its CPU phase (the join
  // needs the restored objects, so foreground_done_ms — and with it the
  // driver's clock — is charged identically), but the bucket arm frees as
  // soon as its own scan I/O ends, so bets neither slip by the restore
  // nor queue new fetches behind it.
  const bool restore_on_spill_arm =
      outcome.restore_ms > 0.0 && arms_.size() > bucket_volumes_;
  const TimeMs unanticipated_disk_ms =
      restore_on_spill_arm ? result.io_ms
                           : result.io_ms + outcome.restore_ms;
  const TimeMs foreground_done_ms =
      now + outcome.fetch_residual_ms + result.io_ms + outcome.restore_ms;
  const TimeMs pick_arm_done_ms =
      restore_on_spill_arm
          ? now + outcome.fetch_residual_ms + result.io_ms
          : foreground_done_ms;
  for (size_t v = 0; v < volumes; ++v) {
    Arm& arm = arms_[v];
    TimeMs arm_free_ms = v == outcome.volume ? pick_arm_done_ms : now;
    // The last placed[v] bets are this step's; the earlier ones slip.
    const size_t old_bets = arm.bets.size() - placed[v];
    for (size_t i = 0; i < old_bets; ++i) {
      Bet& p = arm.bets[i];
      if (v == outcome.volume &&
          p.done_ms > now + outcome.fetch_residual_ms) {
        p.done_ms += unanticipated_disk_ms;
      }
      arm_free_ms = std::max(arm_free_ms, p.done_ms);
    }
    for (size_t i = old_bets; i < arm.bets.size(); ++i) {
      Bet& p = arm.bets[i];
      const uint64_t bytes = cache_->store().ModeledBucketBytes(
          p.bucket, config_.charge_encoded_bytes);
      p.fetch_ms = ModelFor(p.bucket).SequentialReadMs(bytes);
      arm_free_ms += p.fetch_ms;
      p.done_ms = arm_free_ms;
      arm.stats.busy_ms += p.fetch_ms;
    }
    arm.stats.busy_until_ms = std::max(arm.stats.busy_until_ms, arm_free_ms);
  }

  // Per-arm telemetry for the batch's own arm: its foreground disk phase
  // (scan or probe I/O plus spill restores) and its consumed-work clock —
  // the completion clock always runs at or ahead of this (the batch's CPU
  // phase follows), so the run's max-over-arms makespan is well defined.
  pick_arm.stats.busy_ms += unanticipated_disk_ms;
  pick_arm.stats.consumed_until_ms =
      std::max(pick_arm.stats.consumed_until_ms, pick_arm_done_ms);
  if (result.strategy == join::JoinStrategy::kScan && !result.cache_hit) {
    ++pick_arm.stats.foreground_reads;
    pick_arm.stats.foreground_bytes += cache_->store().ModeledBucketBytes(
        *pick, config_.charge_encoded_bytes);
  }
  if (restore_on_spill_arm) {
    // The restore occupies the spill arm from the end of the batch's scan
    // phase to foreground_done_ms; restores serialize trivially since the
    // driver's clock passes foreground_done_ms before the next step.
    Arm& spill = arms_.back();
    spill.stats.busy_ms += outcome.restore_ms;
    ++spill.stats.foreground_reads;
    spill.stats.foreground_bytes += restored_bytes;
    spill.stats.consumed_until_ms =
        std::max(spill.stats.consumed_until_ms, foreground_done_ms);
    spill.stats.busy_until_ms =
        std::max(spill.stats.busy_until_ms, foreground_done_ms);
  }

  return std::optional<StepOutcome>(std::move(outcome));
}

void BatchPipeline::CancelOutstandingPrefetches() {
  // Let every queued read land first, so each dropped bet's fetched bytes
  // are charged in both modes and no I/O worker still reads on the run's
  // behalf when the caller tears down.
  if (reader_ != nullptr) reader_->Drain();
  for (Arm& arm : arms_) {
    for (const Bet& bet : arm.bets) Drop(bet);
    arm.bets.clear();
  }
  // End of run: no prediction is live, so stop protecting anything.
  cache_->SetPredictionWindow({});
  last_window_.clear();
}

}  // namespace liferaft::exec
