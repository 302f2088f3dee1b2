// Tests for exec::BatchPipeline, the unified pick→prefetch→claim→
// evaluate→account loop shared by core::LifeRaft and sim::SimEngine's
// shared mode. The key contracts:
//  * join results (per-query match counts) are invariant across the whole
//    feature matrix — shard counts, prefetch depths, cancel heuristics —
//    because scheduling only reorders work, never changes matching;
//  * depth-K prefetching hides at least as much fetch latency as the
//    depth-1 (PR 2) pipeline on a saturated drain;
//  * the core facade, now routed through the same pipeline, gets working
//    prefetch for free.

#include "exec/batch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/prefetch_controller.h"
#include "exec/stack.h"

#include "core/liferaft.h"
#include "join/evaluator.h"
#include "query/preprocessor.h"
#include "query/workload.h"
#include "sched/liferaft_scheduler.h"
#include "sim/engine.h"
#include "storage/bucket_cache.h"
#include "storage/catalog.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::exec {
namespace {

TEST(BatchPipelineTest, EmptyManagerYieldsNoStep) {
  workload::CatalogGenConfig gen;
  gen.num_objects = 2000;
  gen.seed = 7;
  auto objects = workload::GenerateCatalog(gen);
  ASSERT_TRUE(objects.ok());
  storage::CatalogOptions options;
  options.objects_per_bucket = 500;
  auto catalog = storage::Catalog::Build(std::move(*objects), options);
  ASSERT_TRUE(catalog.ok());

  storage::BucketCache cache((*catalog)->store(), 4);
  join::JoinEvaluator evaluator(&cache, (*catalog)->index(),
                                storage::DiskModel{}, join::HybridConfig{});
  query::WorkloadManager manager((*catalog)->num_buckets());
  sched::LifeRaftScheduler scheduler((*catalog)->store(),
                                     storage::DiskModel{},
                                     sched::LifeRaftConfig{});
  StackConfig config;
  config.enable_prefetch = true;
  BatchPipeline pipeline(&scheduler, &manager, &evaluator, config);

  auto step = pipeline.Step(0.0);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_FALSE(step->has_value());
  EXPECT_EQ(pipeline.pending_prefetches(), 0u);
  EXPECT_EQ(pipeline.prefetch_hidden_ms(), 0.0);
  pipeline.CancelOutstandingPrefetches();  // no-op on an idle pipeline
}

// ------------------------------------------------- adaptive controller --

PrefetchControllerConfig ScriptedConfig() {
  PrefetchControllerConfig config;
  config.max_depth = 3;
  config.initial_depth = 2;
  config.adjust_period = 1;  // react every step so the script stays short
  config.probe_period = 4;
  return config;
}

// The scripted mispredict sequence of the issue: bursts drive the depth
// to zero, quiet steps trigger a probe, clean hidden-latency claims grow
// it back to the ceiling.
TEST(PrefetchControllerTest, ScriptedMispredictsShrinkThenRegrow) {
  PrefetchControllerConfig config = ScriptedConfig();
  ASSERT_TRUE(config.Validate().ok());
  PrefetchController controller(config);
  EXPECT_EQ(controller.depth(), 2u);

  // Mispredict burst: every resolved bet fell out of the window.
  PrefetchFeedback burst;
  burst.cancels = 2;
  controller.Observe(burst);
  EXPECT_EQ(controller.depth(), 1u) << "burst shrinks immediately";
  controller.Observe(burst);
  EXPECT_EQ(controller.depth(), 0u) << "second burst turns prefetch off";
  EXPECT_EQ(controller.stats().shrinks, 2u);

  // Off: nothing resolves; the probe timer alone can re-enable.
  PrefetchFeedback idle;
  for (int i = 0; i < 3; ++i) {
    controller.Observe(idle);
    EXPECT_EQ(controller.depth(), 0u);
  }
  controller.Observe(idle);
  EXPECT_EQ(controller.depth(), 1u) << "probe after probe_period quiet steps";
  EXPECT_EQ(controller.stats().probes, 1u);

  // Recovered predictor: clean claims that hide latency grow to the max.
  PrefetchFeedback good;
  good.claims = 1;
  good.hidden_ms = 500.0;
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 2u);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u) << "capped at max_depth";
  EXPECT_GE(controller.stats().grows, 2u);
}

// A claim whose residual was capped at the full fetch reused bytes but
// hid nothing — it must count as stale, and an all-stale step is a burst.
TEST(PrefetchControllerTest, CappedClaimsCountAsStale) {
  PrefetchController controller(ScriptedConfig());
  PrefetchFeedback capped;
  capped.claims = 2;
  capped.stale_claims = 2;
  capped.hidden_ms = 0.0;
  controller.Observe(capped);
  EXPECT_EQ(controller.depth(), 1u);
  EXPECT_DOUBLE_EQ(controller.stale_ewma(), 1.0);
}

// Depth never grows while hidden-ms per claim is zero, even with a clean
// stale rate: a bet that hides nothing is not worth deepening.
TEST(PrefetchControllerTest, NoGrowthWithoutHiddenLatency) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  PrefetchController controller(config);
  PrefetchFeedback clean_but_useless;
  clean_but_useless.claims = 1;
  clean_but_useless.hidden_ms = 0.0;       // capped would also set stale;
  clean_but_useless.stale_claims = 0;      // pretend a zero-cost fetch
  for (int i = 0; i < 5; ++i) controller.Observe(clean_but_useless);
  EXPECT_EQ(controller.depth(), 1u);
  EXPECT_EQ(controller.stats().grows, 0u);
}

// The wasted-bytes cost term: a clean stale rate with steady hidden
// latency normally climbs to max_depth, but sustained canceled-after-
// fetch bytes veto every grow decision until the waste EWMA decays.
TEST(PrefetchControllerTest, SustainedWasteStallsGrowth) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  config.grow_max_wasted_bytes = 1 << 20;
  PrefetchController controller(config);

  // Clean claims that hide latency, but every step also drops a fetched
  // 4 MB bucket: rate-wise growable, cost-wise not.
  PrefetchFeedback wasteful;
  wasteful.claims = 8;  // keep the stale fraction (cancels/9) under grow
  wasteful.cancels = 1;
  wasteful.hidden_ms = 500.0;
  wasteful.wasted_bytes = 4 << 20;
  for (int i = 0; i < 6; ++i) controller.Observe(wasteful);
  EXPECT_EQ(controller.depth(), 1u) << "growth must stall under waste";
  EXPECT_EQ(controller.stats().grows, 0u);
  EXPECT_GT(controller.stats().grows_vetoed_on_waste, 0u);
  EXPECT_GT(controller.wasted_bytes_ewma(),
            static_cast<double>(config.grow_max_wasted_bytes));

  // Waste stops: the EWMA decays below the gate and growth resumes.
  PrefetchFeedback clean = wasteful;
  clean.cancels = 0;
  clean.wasted_bytes = 0;
  for (int i = 0; i < 12 && controller.depth() < config.max_depth; ++i) {
    controller.Observe(clean);
  }
  EXPECT_EQ(controller.depth(), config.max_depth);
  EXPECT_GT(controller.stats().grows, 0u);
}

// Zero waste must leave the grow rule exactly as it was before the cost
// term existed (the veto can only ever bite on non-zero waste).
TEST(PrefetchControllerTest, ZeroWasteNeverVetoesGrowth) {
  PrefetchControllerConfig config = ScriptedConfig();
  config.initial_depth = 1;
  PrefetchController controller(config);
  PrefetchFeedback good;
  good.claims = 1;
  good.hidden_ms = 500.0;
  controller.Observe(good);
  controller.Observe(good);
  EXPECT_EQ(controller.depth(), 3u);
  EXPECT_EQ(controller.stats().grows_vetoed_on_waste, 0u);
}

TEST(PrefetchControllerTest, ConfigValidation) {
  PrefetchControllerConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.ewma_alpha = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.grow_threshold = 0.6;  // above shrink_threshold
  EXPECT_FALSE(config.Validate().ok());
  config = PrefetchControllerConfig{};
  config.adjust_period = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ------------------------------------------------ engine-level fixtures --

class PipelineDrainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CatalogGenConfig gen;
    gen.num_objects = 30'000;
    gen.seed = 21;
    auto objects = workload::GenerateCatalog(gen);
    ASSERT_TRUE(objects.ok());
    catalog_objects_ = std::move(*objects);

    storage::CatalogOptions options;
    options.objects_per_bucket = 1000;  // 30 buckets
    auto catalog = storage::Catalog::Build(catalog_objects_, options);
    ASSERT_TRUE(catalog.ok());
    catalog_ = std::move(*catalog);

    workload::TraceConfig tc;
    tc.num_queries = 40;
    tc.max_objects_per_query = 1200;
    tc.match_radius_arcsec = 900.0;
    tc.seed = 23;
    auto trace = workload::GenerateTrace(tc);
    ASSERT_TRUE(trace.ok());
    trace_ = std::move(*trace);
    arrivals_.assign(trace_.size(), 0.0);  // saturated drain
  }

  std::unique_ptr<sched::Scheduler> LifeRaftSched() {
    sched::LifeRaftConfig config;
    config.alpha = 0.25;
    return std::make_unique<sched::LifeRaftScheduler>(
        catalog_->store(), storage::DiskModel{}, config);
  }

  /// Runs a shared-mode drain under `scheduler` and returns (metrics,
  /// per-query matches).
  sim::RunMetrics DrainWith(std::unique_ptr<sched::Scheduler> scheduler,
                            const sim::EngineConfig& config,
                            std::map<query::QueryId, uint64_t>* matches) {
    sim::SimEngine engine(catalog_.get(), std::move(scheduler), config);
    auto metrics = engine.Run(trace_, arrivals_);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    if (matches != nullptr) {
      matches->clear();
      for (const sim::QueryOutcome& o : engine.outcomes()) {
        (*matches)[o.id] = o.matches;
      }
    }
    return metrics.ok() ? *metrics : sim::RunMetrics{};
  }

  /// Runs a shared-mode drain and returns (metrics, per-query matches).
  sim::RunMetrics Drain(const sim::EngineConfig& config,
                        std::map<query::QueryId, uint64_t>* matches) {
    return DrainWith(LifeRaftSched(), config, matches);
  }

  std::vector<storage::CatalogObject> catalog_objects_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::vector<query::CrossMatchQuery> trace_;
  std::vector<TimeMs> arrivals_;
};

// The acceptance matrix: a drain at num_shards ∈ {1,4} × prefetch_depth ∈
// {1,2} must produce byte-identical join results (every query's match
// count) to the serial non-prefetch baseline, while each prefetch config
// hides fetch latency and shrinks the saturated-drain makespan.
TEST_F(PipelineDrainFixture, ResultsInvariantAcrossShardsAndDepth) {
  sim::EngineConfig base_config;
  base_config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  sim::RunMetrics base = Drain(base_config, &base_matches);
  ASSERT_EQ(base.queries_completed, trace_.size());

  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t depth : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " depth=" + std::to_string(depth));
      sim::EngineConfig config = base_config;
      config.cache_shards = shards;
      config.enable_prefetch = true;
      config.prefetch_depth = depth;
      std::map<query::QueryId, uint64_t> matches;
      sim::RunMetrics metrics = Drain(config, &matches);
      EXPECT_EQ(metrics.queries_completed, base.queries_completed);
      EXPECT_EQ(metrics.total_matches, base.total_matches);
      EXPECT_EQ(matches, base_matches)
          << "per-query match counts must not depend on sharding/prefetch";
      EXPECT_GT(metrics.prefetch_hidden_ms, 0.0);
      EXPECT_GT(metrics.cache.prefetch_claims, 0u);
      EXPECT_LT(metrics.makespan_ms, base.makespan_ms)
          << "hidden fetch latency must shrink a saturated drain";
    }
  }
}

// Identical config -> identical run, shard count included: the sharded
// cache is deterministic, so two depth-2/4-shard drains agree on every
// virtual quantity.
TEST_F(PipelineDrainFixture, ShardedPrefetchDrainIsDeterministic) {
  sim::EngineConfig config;
  config.collect_matches = true;
  config.cache_shards = 4;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  std::map<query::QueryId, uint64_t> a_matches;
  std::map<query::QueryId, uint64_t> b_matches;
  sim::RunMetrics a = Drain(config, &a_matches);
  sim::RunMetrics b = Drain(config, &b_matches);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.prefetch_hidden_ms, b.prefetch_hidden_ms);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a_matches, b_matches);
}

// Depth 2 keeps two bets in flight, so on a saturated drain it must hide
// at least as much fetch latency as the single-bet PR 2 pipeline.
TEST_F(PipelineDrainFixture, DepthTwoHidesAtLeastDepthOne) {
  sim::EngineConfig config;
  config.enable_prefetch = true;
  config.prefetch_depth = 1;
  sim::RunMetrics d1 = Drain(config, nullptr);
  config.prefetch_depth = 2;
  sim::RunMetrics d2 = Drain(config, nullptr);
  EXPECT_GT(d1.prefetch_hidden_ms, 0.0);
  EXPECT_GE(d2.prefetch_hidden_ms, d1.prefetch_hidden_ms);
  EXPECT_LE(d2.makespan_ms, d1.makespan_ms);
}

// Cancel-on-mispredict drops stale bets instead of pinning them; results
// stay exact and the prefetch ledger reconciles (every issue is claimed or
// canceled by the end of the run).
TEST_F(PipelineDrainFixture, CancelOnMispredictReconcilesAndStaysExact) {
  sim::EngineConfig base_config;
  base_config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  sim::RunMetrics base = Drain(base_config, &base_matches);

  sim::EngineConfig config = base_config;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  config.cancel_on_mispredict = true;
  std::map<query::QueryId, uint64_t> matches;
  sim::RunMetrics metrics = Drain(config, &matches);
  EXPECT_EQ(metrics.queries_completed, base.queries_completed);
  EXPECT_EQ(matches, base_matches);
  EXPECT_EQ(metrics.cache.prefetch_issued,
            metrics.cache.prefetch_claims + metrics.cache.prefetch_cancels);
}

// ------------------------------------------------- adaptive drains --

// Join results must be invariant under the adaptive controller, like
// every other scheduling feature, and the prefetch ledger must reconcile
// (each issued bet is eventually claimed or canceled).
TEST_F(PipelineDrainFixture, AdaptiveResultsInvariantAndLedgerReconciles) {
  sim::EngineConfig base_config;
  base_config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  sim::RunMetrics base = Drain(base_config, &base_matches);

  sim::EngineConfig config = base_config;
  config.adaptive_prefetch = true;
  config.prefetch_depth = 2;  // the controller's starting depth
  config.max_prefetch_depth = 4;
  std::map<query::QueryId, uint64_t> matches;
  sim::RunMetrics metrics = Drain(config, &matches);
  EXPECT_EQ(metrics.queries_completed, base.queries_completed);
  EXPECT_EQ(metrics.total_matches, base.total_matches);
  EXPECT_EQ(matches, base_matches)
      << "per-query match counts must not depend on adaptive prefetch";
  EXPECT_GT(metrics.prefetch_hidden_ms, 0.0);
  EXPECT_LT(metrics.makespan_ms, base.makespan_ms);
  EXPECT_EQ(metrics.cache.prefetch_issued,
            metrics.cache.prefetch_claims + metrics.cache.prefetch_cancels);
  EXPECT_LE(metrics.prefetch_final_depth, config.max_prefetch_depth);
}

// Same config, same trajectory: the controller sees only virtual-clock
// quantities, so adaptive runs are deterministic.
TEST_F(PipelineDrainFixture, AdaptiveDrainIsDeterministic) {
  sim::EngineConfig config;
  config.adaptive_prefetch = true;
  config.prefetch_depth = 2;
  config.max_prefetch_depth = 4;
  sim::RunMetrics a = Drain(config, nullptr);
  sim::RunMetrics b = Drain(config, nullptr);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.prefetch_hidden_ms, b.prefetch_hidden_ms);
  EXPECT_EQ(a.prefetch_final_depth, b.prefetch_final_depth);
  EXPECT_EQ(a.prefetch_stale_ewma, b.prefetch_stale_ewma);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.cache.prefetch_wasted_bytes, b.cache.prefetch_wasted_bytes);
}

// With the LifeRaft predictor healthy on a saturated drain, the adaptive
// controller must hide at least as much fetch latency as the fixed
// depth-2 pipeline it starts from (it can only deepen from there).
TEST_F(PipelineDrainFixture, AdaptiveHidesAtLeastFixedDepthTwo) {
  sim::EngineConfig fixed;
  fixed.enable_prefetch = true;
  fixed.prefetch_depth = 2;
  sim::RunMetrics d2 = Drain(fixed, nullptr);

  sim::EngineConfig adaptive;
  adaptive.adaptive_prefetch = true;
  adaptive.prefetch_depth = 2;
  adaptive.max_prefetch_depth = 4;
  sim::RunMetrics ad = Drain(adaptive, nullptr);
  EXPECT_GE(ad.prefetch_hidden_ms, d2.prefetch_hidden_ms);
  EXPECT_LE(ad.makespan_ms, d2.makespan_ms);
}

// Decorator that sabotages the prediction hook: it peeks one slot deeper
// and drops the true next pick, so the window's first element is wrong
// whenever more than one bucket has pending work. PickBucket is honest —
// only the predictor misleads the prefetcher.
class MispredictingScheduler : public sched::Scheduler {
 public:
  explicit MispredictingScheduler(std::unique_ptr<sched::Scheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override {
    return "mispredict(" + inner_->name() + ")";
  }
  std::optional<storage::BucketIndex> PickBucket(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached) override {
    return inner_->PickBucket(manager, now, cached);
  }
  std::vector<storage::BucketIndex> PeekNextBuckets(
      const query::WorkloadManager& manager, TimeMs now,
      const sched::CacheProbe& cached, size_t k) const override {
    std::vector<storage::BucketIndex> real =
        inner_->PeekNextBuckets(manager, now, cached, k + 1);
    if (real.size() > 1) real.erase(real.begin());
    if (real.size() > k) real.resize(k);
    return real;
  }

 private:
  std::unique_ptr<sched::Scheduler> inner_;
};

// Under injected mispredictions the adaptive controller must never end a
// drain slower than the fixed depth-1 pipeline handed the same bad
// predictor — neither the hold-forever variant (whose pinned bets accrue
// hidden-ms by luck while its schedule pays for the pins) nor the
// apples-to-apples cancel-on-mispredict variant, which it must beat on
// hidden latency too: the controller shuts a hopeless predictor off
// (depth 0) instead of feeding it.
TEST_F(PipelineDrainFixture, AdaptiveNeverUnderperformsDepthOneOnMispredicts) {
  sim::EngineConfig fixed;
  fixed.enable_prefetch = true;
  fixed.prefetch_depth = 1;
  sim::RunMetrics d1_hold = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), fixed,
      nullptr);
  fixed.cancel_on_mispredict = true;
  sim::RunMetrics d1_cancel = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), fixed,
      nullptr);

  sim::EngineConfig adaptive;
  adaptive.adaptive_prefetch = true;
  adaptive.prefetch_depth = 1;
  adaptive.max_prefetch_depth = 4;
  sim::RunMetrics ad = DrainWith(
      std::make_unique<MispredictingScheduler>(LifeRaftSched()), adaptive,
      nullptr);
  EXPECT_LE(ad.makespan_ms, d1_hold.makespan_ms);
  EXPECT_LE(ad.makespan_ms, d1_cancel.makespan_ms);
  EXPECT_GE(ad.prefetch_hidden_ms, d1_cancel.prefetch_hidden_ms);
  // The bad predictor's cost is visible to the report: dropped bets whose
  // bytes were fetched for nothing, and a saturated stale EWMA.
  EXPECT_GT(ad.cache.prefetch_wasted_bytes, 0u);
  EXPECT_EQ(ad.cache.prefetch_issued,
            ad.cache.prefetch_claims + ad.cache.prefetch_cancels);
}

// Prefetch-aware eviction in vivo: with the window published every step,
// protected-tier conflicts are observable, join results match the
// prefetch-free baseline and the run stays deterministic.
TEST_F(PipelineDrainFixture, EvictionProtectionIsDeterministic) {
  sim::EngineConfig config;
  config.collect_matches = true;
  std::map<query::QueryId, uint64_t> base_matches;
  Drain(config, &base_matches);
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  std::map<query::QueryId, uint64_t> a_matches;
  std::map<query::QueryId, uint64_t> b_matches;
  sim::RunMetrics a = Drain(config, &a_matches);
  sim::RunMetrics b = Drain(config, &b_matches);
  EXPECT_EQ(a_matches, base_matches)
      << "eviction policy must never change join results";
  EXPECT_EQ(a_matches, b_matches);
  EXPECT_GT(a.prefetch_hidden_ms, 0.0);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.cache.evictions_protected, b.cache.evictions_protected);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

// ------------------------------------------------ prefetch accounting --

// Claim-time accounting: a bet's read runs on an I/O worker and is billed
// to the store only when a batch claims it, as one cache miss plus one
// prefetch claim — so at every step the store has read exactly one bucket
// per cache miss, and an in-flight bet is not resident.
TEST_F(PipelineDrainFixture, BetsAreBilledAtClaimTime) {
  storage::BucketCache cache(catalog_->store(), 4);
  join::JoinEvaluator evaluator(&cache, catalog_->index(),
                                storage::DiskModel{}, join::HybridConfig{});
  query::WorkloadManager manager(catalog_->num_buckets());
  auto scheduler = LifeRaftSched();
  StackConfig config;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  BatchPipeline pipeline(scheduler.get(), &manager, &evaluator, config);
  for (const query::CrossMatchQuery& q : trace_) {
    query::CrossMatchQuery stamped = q;
    stamped.objects.clear();
    ASSERT_TRUE(manager
                    .Admit(stamped, query::SplitQueryByBucket(
                                        q, catalog_->bucket_map()))
                    .ok());
  }
  catalog_->store()->ResetStats();

  TimeMs now = 0.0;
  size_t steps = 0;
  for (;;) {
    auto step = pipeline.Step(now);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    if (!step->has_value()) break;
    now += (*step)->TotalAdvanceMs();
    ++steps;
    const storage::CacheStats stats = cache.stats();
    EXPECT_EQ(catalog_->store()->stats().bucket_reads, stats.misses)
        << "step " << steps;
    EXPECT_EQ(stats.prefetch_issued,
              stats.prefetch_claims + pipeline.pending_prefetches());
    EXPECT_EQ(stats.prefetch_cancels, 0u);
  }
  const storage::CacheStats drained = cache.stats();
  EXPECT_GT(drained.prefetch_claims, 0u);
  EXPECT_GE(drained.misses, drained.prefetch_claims);
  uint64_t arm_issued = 0, arm_claims = 0;
  for (const storage::VolumeIoStats& arm : pipeline.volume_stats()) {
    arm_issued += arm.prefetch_issued;
    arm_claims += arm.prefetch_claims;
  }
  EXPECT_EQ(drained.prefetch_issued, arm_issued);
  EXPECT_EQ(drained.prefetch_claims, arm_claims);
}

// Waste: bets dropped unclaimed — here, every bet still queued when the
// run ends — fetched whole buckets for nothing. Their bytes reach
// prefetch_wasted_bytes, the store never bills them, the cache never
// admits them, and the ledger reconciles.
TEST_F(PipelineDrainFixture, DroppedBetsCountWasteAndStayUnbilled) {
  storage::BucketCache cache(catalog_->store(), 4, /*num_shards=*/2);
  join::JoinEvaluator evaluator(&cache, catalog_->index(),
                                storage::DiskModel{}, join::HybridConfig{});
  query::WorkloadManager manager(catalog_->num_buckets());
  auto scheduler = LifeRaftSched();
  StackConfig config;
  config.enable_prefetch = true;
  config.prefetch_depth = 3;
  BatchPipeline pipeline(scheduler.get(), &manager, &evaluator, config);
  for (const query::CrossMatchQuery& q : trace_) {
    query::CrossMatchQuery stamped = q;
    stamped.objects.clear();
    ASSERT_TRUE(manager
                    .Admit(stamped, query::SplitQueryByBucket(
                                        q, catalog_->bucket_map()))
                    .ok());
  }
  catalog_->store()->ResetStats();

  auto step = pipeline.Step(0.0);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  ASSERT_TRUE(step->has_value());
  const size_t pending = pipeline.pending_prefetches();
  ASSERT_GT(pending, 0u) << "the first step must place bets";
  const uint64_t reads = catalog_->store()->stats().bucket_reads;
  const size_t resident = cache.size();

  pipeline.CancelOutstandingPrefetches();
  const storage::CacheStats stats = cache.stats();
  EXPECT_EQ(pipeline.pending_prefetches(), 0u);
  EXPECT_EQ(stats.prefetch_cancels, pending);
  EXPECT_EQ(stats.prefetch_issued,
            stats.prefetch_claims + stats.prefetch_cancels);
  EXPECT_GT(stats.prefetch_wasted_bytes, 0u);
  EXPECT_EQ(stats.prefetch_wasted_bytes % storage::Bucket::kBytesPerObject,
            0u)
      << "waste is charged in whole buckets";
  EXPECT_EQ(catalog_->store()->stats().bucket_reads, reads)
      << "a dropped bet is never billed to the store";
  EXPECT_EQ(cache.size(), resident) << "a dropped bet is never admitted";
}

// Real mode keeps the same books: every claimed bet and every foreground
// read is one cache miss, the cache's prefetch counters equal the per-arm
// sums, and bets drained at the end of the run count as waste.
TEST_F(PipelineDrainFixture, RealModeCacheCountersMatchArms) {
  sim::EngineConfig config;
  config.io_mode = sim::IoMode::kReal;
  config.enable_prefetch = true;
  config.prefetch_depth = 2;
  config.collect_matches = true;
  config.topology.num_volumes = 2;
  std::map<query::QueryId, uint64_t> real_matches;
  sim::RunMetrics real = Drain(config, &real_matches);
  ASSERT_EQ(real.queries_completed, trace_.size());

  uint64_t issued = 0, claims = 0, foreground = 0;
  for (const storage::VolumeIoStats& arm : real.volumes) {
    issued += arm.prefetch_issued;
    claims += arm.prefetch_claims;
    foreground += arm.foreground_reads;
  }
  EXPECT_GT(claims + foreground, 0u);
  EXPECT_EQ(real.cache.misses, claims + foreground);
  EXPECT_EQ(real.store.bucket_reads, real.cache.misses);
  EXPECT_EQ(real.cache.prefetch_issued, issued);
  EXPECT_EQ(real.cache.prefetch_claims, claims);
  EXPECT_EQ(real.cache.prefetch_issued,
            real.cache.prefetch_claims + real.cache.prefetch_cancels);
  if (real.cache.prefetch_cancels > 0) {
    EXPECT_GT(real.cache.prefetch_wasted_bytes, 0u);
  }

  config.io_mode = sim::IoMode::kModeled;
  std::map<query::QueryId, uint64_t> modeled_matches;
  Drain(config, &modeled_matches);
  EXPECT_EQ(real_matches, modeled_matches);
}

// The core facade routes ProcessNextBatch through the same pipeline, so
// enabling prefetch there now works: same completions and matches, fetch
// latency hidden, a faster virtual drain.
TEST_F(PipelineDrainFixture, CoreFacadePrefetchHidesFetchLatency) {
  core::LifeRaftOptions options;
  options.objects_per_bucket = 1000;
  auto plain = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(plain.ok());

  options.enable_prefetch = true;
  options.prefetch_depth = 2;
  options.cache_shards = 4;
  auto pipelined = core::LifeRaft::Create(catalog_objects_, options);
  ASSERT_TRUE(pipelined.ok());

  for (const auto& q : trace_) {
    ASSERT_TRUE((*plain)->Submit(q).ok());
    ASSERT_TRUE((*pipelined)->Submit(q).ok());
  }

  uint64_t plain_matches = 0;
  uint64_t pipelined_matches = 0;
  auto count_plain = [&](const core::BatchOutcome& b) {
    plain_matches += b.matches.size();
  };
  auto count_pipelined = [&](const core::BatchOutcome& b) {
    pipelined_matches += b.matches.size();
  };
  auto plain_done = (*plain)->Drain(count_plain);
  ASSERT_TRUE(plain_done.ok());
  auto pipelined_done = (*pipelined)->Drain(count_pipelined);
  ASSERT_TRUE(pipelined_done.ok());

  // Same queries served, same join output; the schedule (and with it the
  // completion order) may differ — that is the prefetch steering.
  ASSERT_EQ(plain_done->size(), pipelined_done->size());
  std::set<query::QueryId> plain_ids;
  std::set<query::QueryId> pipelined_ids;
  for (const auto& c : *plain_done) plain_ids.insert(c.id);
  for (const auto& c : *pipelined_done) pipelined_ids.insert(c.id);
  EXPECT_EQ(plain_ids, pipelined_ids);
  EXPECT_EQ(plain_matches, pipelined_matches);

  EXPECT_GT((*pipelined)->prefetch_hidden_ms(), 0.0);
  EXPECT_GT((*pipelined)->cache_stats().prefetch_claims, 0u);
  EXPECT_LT((*pipelined)->now_ms(), (*plain)->now_ms())
      << "hidden fetch latency must shrink the virtual drain";
  // The drain canceled any leftover bets: the ledger reconciles.
  storage::CacheStats stats = (*pipelined)->cache_stats();
  EXPECT_EQ(stats.prefetch_issued,
            stats.prefetch_claims + stats.prefetch_cancels);
}

// One stack, two drivers: core::LifeRaft and sim::SimEngine both build
// their execution stack through exec::Stack::Build, so a t=0 trace drains
// through LifeRaft::Drain exactly as through SimEngine::Run — the same
// virtual clock bit for bit, completion order, per-query matches, cache
// traffic and hidden fetch time — across prefetch modes and topologies.
TEST_F(PipelineDrainFixture, FacadeAndEngineDrainIdentically) {
  std::vector<std::pair<std::string, StackConfig>> cases;
  for (size_t volumes : {size_t{1}, size_t{2}}) {
    StackConfig off;
    off.topology.num_volumes = volumes;
    off.cache_shards = volumes > 1 ? 4 : 1;
    StackConfig depth2 = off;
    depth2.enable_prefetch = true;
    depth2.prefetch_depth = 2;
    StackConfig adaptive = off;
    adaptive.adaptive_prefetch = true;
    const std::string topo = volumes > 1 ? "-2vol" : "-1vol";
    cases.emplace_back("off" + topo, off);
    cases.emplace_back("depth2" + topo, depth2);
    cases.emplace_back("adaptive" + topo, adaptive);
  }
  // A byte budget of five buckets, well below the 20-bucket count cap.
  StackConfig budget;
  budget.cache_capacity_bytes =
      5 * 1000 * uint64_t{storage::Bucket::kBytesPerObject};
  cases.emplace_back("byte-budget", budget);

  std::map<std::string, uint64_t> evictions;
  for (const auto& [name, stack] : cases) {
    SCOPED_TRACE(name);
    sim::EngineConfig engine_config;
    static_cast<StackConfig&>(engine_config) = stack;
    engine_config.collect_matches = true;
    sim::SimEngine engine(catalog_.get(), LifeRaftSched(), engine_config);
    auto metrics = engine.Run(trace_, arrivals_);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

    core::LifeRaftOptions options;
    static_cast<StackConfig&>(options) = stack;
    auto system = core::LifeRaft::Create(catalog_objects_, options);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    for (query::CrossMatchQuery q : trace_) {
      q.arrival_ms = 0.0;
      ASSERT_TRUE((*system)->Submit(q).ok());
    }
    std::map<query::QueryId, uint64_t> facade_matches;
    auto done = (*system)->Drain([&](const core::BatchOutcome& b) {
      for (const query::Match& m : b.matches) ++facade_matches[m.query_id];
    });
    ASSERT_TRUE(done.ok()) << done.status().ToString();

    EXPECT_EQ((*system)->now_ms(), metrics->makespan_ms);
    ASSERT_EQ(done->size(), engine.outcomes().size());
    std::map<query::QueryId, uint64_t> engine_matches;
    for (size_t i = 0; i < done->size(); ++i) {
      const sim::QueryOutcome& o = engine.outcomes()[i];
      EXPECT_EQ((*done)[i].id, o.id) << "completion " << i;
      EXPECT_EQ((*done)[i].completion_ms, o.completion_ms)
          << "completion " << i;
      if (o.matches > 0) engine_matches[o.id] = o.matches;
    }
    EXPECT_EQ(facade_matches, engine_matches);
    const storage::CacheStats cache = (*system)->cache_stats();
    EXPECT_EQ(cache.hits, metrics->cache.hits);
    EXPECT_EQ(cache.misses, metrics->cache.misses);
    EXPECT_EQ(cache.evictions, metrics->cache.evictions);
    EXPECT_EQ((*system)->prefetch_hidden_ms(), metrics->prefetch_hidden_ms);
    evictions[name] = cache.evictions;
  }
  EXPECT_GT(evictions["byte-budget"], evictions["off-1vol"])
      << "the facade's byte budget must bind";
}

}  // namespace
}  // namespace liferaft::exec
