// Tests for the query layer: query objects and their HTM covers,
// predicates, the pre-processor's bucket decomposition, and the workload
// manager's queue/aging/completion bookkeeping.

#include <gtest/gtest.h>

#include "htm/htm.h"
#include "query/preprocessor.h"
#include "query/query.h"
#include "query/workload.h"
#include "storage/partitioner.h"
#include "util/random.h"

namespace liferaft::query {
namespace {

using storage::BucketIndex;
using storage::CatalogObject;
using storage::MakeObject;

std::vector<CatalogObject> RandomObjects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CatalogObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360),
               std::asin(rng.UniformDouble(-1, 1)) * kRadToDeg};
    objects.push_back(MakeObject(i, p));
  }
  return objects;
}

// ----------------------------------------------------------- QueryObject --

TEST(QueryObjectTest, CoverContainsOwnPosition) {
  Rng rng(223);
  for (int i = 0; i < 200; ++i) {
    SkyPoint p{rng.UniformDouble(0, 360), rng.UniformDouble(-89, 89)};
    QueryObject qo = MakeQueryObject(i, p, 3.0);
    EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(p)));
    EXPECT_NEAR(qo.pos.Norm(), 1.0, 1e-12);
  }
}

TEST(QueryObjectTest, CoverContainsAllMatchCandidates) {
  // Any archive object within the error radius must fall in the cover —
  // this is the coarse filter's no-false-negative invariant.
  Rng rng(227);
  SkyPoint center{120.0, 30.0};
  QueryObject qo = MakeQueryObject(0, center, 10.0);
  for (int i = 0; i < 500; ++i) {
    SkyPoint p{center.ra_deg + rng.UniformDouble(-0.01, 0.01),
               center.dec_deg + rng.UniformDouble(-0.01, 0.01)};
    if (AngularSeparationArcsec(center, p) > 10.0) continue;
    EXPECT_TRUE(qo.htm_ranges.Contains(htm::PointToId(p)));
  }
}

TEST(QueryObjectTest, CoverIsBounded) {
  // Even near mesh-root corners, an object ships a handful of ranges.
  for (double ra : {0.0, 45.0, 90.0, 180.0, 270.0}) {
    for (double dec : {-90.0, -45.0, 0.0, 45.0, 90.0}) {
      QueryObject qo = MakeQueryObject(0, {ra, dec}, 5.0);
      EXPECT_LE(qo.htm_ranges.size(), 32u) << ra << "," << dec;
    }
  }
}

// ------------------------------------------------------------- Predicate --

TEST(PredicateTest, TrivialAcceptsEverything) {
  Predicate p;
  EXPECT_TRUE(p.IsTrivial());
  EXPECT_TRUE(p.Matches(MakeObject(1, {10, 10}, -5.0f, 99.0f)));
  EXPECT_EQ(p.ToString(), "true");
}

TEST(PredicateTest, MagnitudeBounds) {
  Predicate p;
  p.min_mag = 15.0f;
  p.max_mag = 20.0f;
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 17.0f)));
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 15.0f)));
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 20.0f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 14.9f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 20.1f)));
  EXPECT_FALSE(p.IsTrivial());
  EXPECT_NE(p.ToString().find("mag"), std::string::npos);
}

TEST(PredicateTest, ColorBounds) {
  Predicate p;
  p.min_color = 0.2f;
  EXPECT_TRUE(p.Matches(MakeObject(1, {0, 0}, 18.0f, 0.3f)));
  EXPECT_FALSE(p.Matches(MakeObject(1, {0, 0}, 18.0f, 0.1f)));
}

// ---------------------------------------------------------- Preprocessor --

class PreprocessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto partition = storage::PartitionCatalog(RandomObjects(5000, 229), 250);
    ASSERT_TRUE(partition.ok());
    map_ = partition->map;
  }
  std::shared_ptr<const storage::BucketMap> map_;
};

TEST_F(PreprocessorTest, EveryObjectLandsSomewhere) {
  Rng rng(233);
  CrossMatchQuery q;
  q.id = 1;
  for (int i = 0; i < 100; ++i) {
    q.objects.push_back(MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-85, 85)}, 3.0));
  }
  auto workloads = SplitQueryByBucket(q, *map_);
  ASSERT_FALSE(workloads.empty());
  size_t assigned = 0;
  for (const auto& w : workloads) {
    EXPECT_FALSE(w.objects.empty());
    assigned += w.objects.size();
  }
  // Every object appears at least once (some straddle bucket borders and
  // appear in several workloads).
  EXPECT_GE(assigned, q.objects.size());
}

TEST_F(PreprocessorTest, ObjectAssignedToItsOwnBucket) {
  // The bucket containing the object's own HTM ID must be among the
  // object's assigned buckets.
  Rng rng(239);
  CrossMatchQuery q;
  q.id = 2;
  for (int i = 0; i < 50; ++i) {
    q.objects.push_back(MakeQueryObject(
        i, {rng.UniformDouble(0, 360), rng.UniformDouble(-85, 85)}, 3.0));
  }
  auto workloads = SplitQueryByBucket(q, *map_);
  for (const auto& qo : q.objects) {
    BucketIndex home = map_->BucketOf(htm::PointToId(qo.sky()));
    bool found = false;
    for (const auto& w : workloads) {
      if (w.bucket != home) continue;
      for (const auto& o : w.objects) found |= (o.id == qo.id);
    }
    EXPECT_TRUE(found) << "object " << qo.id << " missing from home bucket";
  }
}

TEST_F(PreprocessorTest, WorkloadsSortedAndDeduplicated) {
  CrossMatchQuery q;
  q.id = 3;
  // Two identical objects with distinct ids, plus one elsewhere.
  q.objects.push_back(MakeQueryObject(0, {50, 10}, 3.0));
  q.objects.push_back(MakeQueryObject(1, {50, 10}, 3.0));
  q.objects.push_back(MakeQueryObject(2, {250, -40}, 3.0));
  auto workloads = SplitQueryByBucket(q, *map_);
  for (size_t i = 1; i < workloads.size(); ++i) {
    EXPECT_LT(workloads[i - 1].bucket, workloads[i].bucket);
  }
  // No object appears twice in one workload.
  for (const auto& w : workloads) {
    for (size_t i = 1; i < w.objects.size(); ++i) {
      EXPECT_NE(w.objects[i - 1].id, w.objects[i].id);
    }
  }
}

// -------------------------------------------------------- WorkloadManager --

CrossMatchQuery SmallQuery(QueryId id, TimeMs arrival, double ra, double dec,
                           int n_objects = 5) {
  CrossMatchQuery q;
  q.id = id;
  q.arrival_ms = arrival;
  for (int i = 0; i < n_objects; ++i) {
    q.objects.push_back(
        MakeQueryObject(i, {ra + i * 0.001, dec}, 3.0));
  }
  return q;
}

class WorkloadManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto partition = storage::PartitionCatalog(RandomObjects(5000, 241), 250);
    ASSERT_TRUE(partition.ok());
    map_ = partition->map;
    manager_ = std::make_unique<WorkloadManager>(map_->num_buckets());
  }

  Result<size_t> AdmitQuery(const CrossMatchQuery& q) {
    return manager_->Admit(q, SplitQueryByBucket(q, *map_));
  }

  std::shared_ptr<const storage::BucketMap> map_;
  std::unique_ptr<WorkloadManager> manager_;
};

TEST_F(WorkloadManagerTest, AdmitPopulatesQueues) {
  auto q = SmallQuery(1, 100.0, 80.0, 20.0);
  auto parts = AdmitQuery(q);
  ASSERT_TRUE(parts.ok());
  EXPECT_GE(*parts, 1u);
  EXPECT_EQ(manager_->pending_queries(), 1u);
  EXPECT_EQ(manager_->PendingParts(1), *parts);
  EXPECT_EQ(manager_->active_buckets().size(), *parts);
  EXPECT_GE(manager_->total_pending_objects(), 5u);
}

TEST_F(WorkloadManagerTest, RejectsDuplicateAndEmpty) {
  auto q = SmallQuery(1, 100.0, 80.0, 20.0);
  ASSERT_TRUE(AdmitQuery(q).ok());
  EXPECT_EQ(AdmitQuery(q).status().code(), StatusCode::kAlreadyExists);
  CrossMatchQuery empty;
  empty.id = 2;
  EXPECT_EQ(manager_->Admit(empty, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WorkloadManagerTest, TakeBucketCompletesQueries) {
  auto q = SmallQuery(7, 50.0, 120.0, -30.0);
  auto parts = AdmitQuery(q);
  ASSERT_TRUE(parts.ok());
  std::vector<QueryId> completed;
  std::vector<storage::BucketIndex> active(
      manager_->active_buckets().begin(), manager_->active_buckets().end());
  for (size_t i = 0; i < active.size(); ++i) {
    auto entries = manager_->TakeBucket(active[i], &completed);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    EXPECT_FALSE(entries->empty());
    if (i + 1 < active.size()) {
      EXPECT_TRUE(completed.empty());
    }
  }
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], 7u);
  EXPECT_EQ(manager_->pending_queries(), 0u);
  EXPECT_EQ(manager_->total_pending_objects(), 0u);
  EXPECT_TRUE(manager_->active_buckets().empty());
}

TEST_F(WorkloadManagerTest, InterleavesQueriesInOneQueue) {
  // Two queries over the same region share workload queues.
  auto q1 = SmallQuery(1, 10.0, 200.0, 45.0);
  auto q2 = SmallQuery(2, 20.0, 200.0, 45.0);
  ASSERT_TRUE(AdmitQuery(q1).ok());
  ASSERT_TRUE(AdmitQuery(q2).ok());
  BucketIndex shared = *manager_->active_buckets().begin();
  const WorkloadQueue& queue = manager_->queue(shared);
  EXPECT_GE(queue.entries().size(), 2u);
  // Age tracks the oldest entry.
  EXPECT_DOUBLE_EQ(queue.oldest_arrival_ms(), 10.0);
  EXPECT_DOUBLE_EQ(queue.AgeMs(110.0), 100.0);
}

TEST_F(WorkloadManagerTest, AgeZeroWhenEmpty) {
  const WorkloadQueue& queue = manager_->queue(0);
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.AgeMs(12345.0), 0.0);
}

TEST_F(WorkloadManagerTest, OldestAgeSurvivesYoungerArrivals) {
  auto q1 = SmallQuery(1, 100.0, 10.0, 5.0);
  auto q2 = SmallQuery(2, 50.0, 10.0, 5.0);  // older query admitted later
  ASSERT_TRUE(AdmitQuery(q1).ok());
  ASSERT_TRUE(AdmitQuery(q2).ok());
  BucketIndex b = *manager_->active_buckets().begin();
  EXPECT_DOUBLE_EQ(manager_->queue(b).oldest_arrival_ms(), 50.0);
}

}  // namespace
}  // namespace liferaft::query
