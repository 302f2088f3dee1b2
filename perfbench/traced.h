// The traced mode's instruments. Each times calls into one layer's public
// interface from outside the library:
//  * TracedScheduler subclasses sched::LifeRaftScheduler (the engine
//    dynamic_casts its scheduler to that class, so a wrapper would silently
//    lose charge_encoded_bytes and alpha_final) and times pick and peek;
//  * TracedStore forwards a BucketStore and times the page reads the I/O
//    workers make through ReadBucketForPrefetchScratch;
//  * TracedReader forwards the AsyncReader that TracedStore opens and times
//    the owner thread blocked in Wait/Drain (claim-wait).
// Spans stay in memory and are written out when the run ends.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/liferaft_scheduler.h"
#include "storage/async_io.h"
#include "storage/bucket_store.h"
#include "util/stats.h"
#include "util/status.h"

namespace perfbench {

/// One timed interval. `parent` is the id of the enclosing span (-1 for a
/// root); `bucket` links a worker read to the owner's claim of it (-1 when
/// no bucket applies).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t bucket = -1;
};

/// Call count and busy time of one span name.
struct LayerTotal {
  uint64_t calls = 0;
  int64_t ns = 0;
};

/// Thread-safe span and total recorder shared by the instruments.
class Tracer {
 public:
  static int64_t NowNs();

  /// Clears totals and spans and opens a root span named `name`, which
  /// must outlive the spans.
  void BeginRoot(const char* name);
  /// Closes the root span.
  void EndRoot();

  /// Records a child span of the root and adds it to `name`'s total.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t bucket = -1);

  /// The I/O queue hooks: a submit stamps the bucket, the worker's read
  /// start takes the stamp back as queue-wait time.
  void OnSubmit(uint64_t bucket);
  void OnReadStart(uint64_t bucket, int64_t start_ns);
  void OnReadDone(uint64_t bucket, int64_t start_ns, int64_t end_ns);

  LayerTotal Total(const char* name) const;
  /// 99th percentile of worker read busy time, in ms (0 with no reads).
  double ReadP99Ms();

  /// Writes the spans as one JSON array.
  liferaft::Status WriteSpans(const std::string& path) const;

 private:
  void AddLocked(Span span);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t root_ = -1;
  std::map<std::string, LayerTotal, std::less<>> totals_;
  std::unordered_map<uint64_t, std::deque<int64_t>> submitted_;
  liferaft::Percentiles read_ms_;
};

class TracedScheduler : public liferaft::sched::LifeRaftScheduler {
 public:
  TracedScheduler(const liferaft::storage::BucketStore* store,
                  liferaft::storage::DiskModel model,
                  liferaft::sched::LifeRaftConfig config, Tracer* tracer)
      : LifeRaftScheduler(store, model, config), tracer_(tracer) {}

  std::optional<liferaft::storage::BucketIndex> PickBucket(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached) override;
  std::vector<liferaft::storage::BucketIndex> PeekNextBuckets(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached, size_t k) const override;
  std::vector<liferaft::storage::BucketIndex> PeekNextBucketsCovering(
      const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
      const liferaft::sched::CacheProbe& cached,
      const std::function<uint32_t(liferaft::storage::BucketIndex)>& volume_of,
      const std::vector<size_t>& want_per_volume) const override;

 private:
  Tracer* tracer_;
  // Peeks may nest (a covering peek may call PeekNextBuckets); only the
  // outermost call is timed.
  mutable int peek_depth_ = 0;
};

class TracedStore : public liferaft::storage::BucketStore {
 public:
  TracedStore(std::unique_ptr<liferaft::storage::BucketStore> inner,
              Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  size_t num_buckets() const override { return inner_->num_buckets(); }
  const liferaft::storage::BucketMap& bucket_map() const override {
    return inner_->bucket_map();
  }
  size_t BucketObjectCount(liferaft::storage::BucketIndex i) const override {
    return inner_->BucketObjectCount(i);
  }
  uint64_t EncodedBucketBytes(
      liferaft::storage::BucketIndex i) const override {
    return inner_->EncodedBucketBytes(i);
  }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }
  /// Owner-thread read: recorded into this store's own stats, which are
  /// the ones RunMetrics::store reports.
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucket(liferaft::storage::BucketIndex i) override;
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucketForPrefetch(liferaft::storage::BucketIndex i) override {
    return ReadBucketForPrefetchScratch(i, nullptr);
  }
  liferaft::Result<std::shared_ptr<const liferaft::storage::Bucket>>
  ReadBucketForPrefetchScratch(liferaft::storage::BucketIndex i,
                               liferaft::util::Arena* scratch) override;
  /// The queued reader over this store (as FileStore::NewAsyncReader builds
  /// it when no topology is attached), wrapped in a TracedReader.
  std::unique_ptr<liferaft::storage::AsyncReader> NewAsyncReader(
      const liferaft::storage::StorageTopology* topology) override;

 private:
  std::unique_ptr<liferaft::storage::BucketStore> inner_;
  Tracer* tracer_;
};

class TracedReader : public liferaft::storage::AsyncReader {
 public:
  TracedReader(std::unique_ptr<liferaft::storage::AsyncReader> inner,
               Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  uint64_t SubmitRead(liferaft::storage::BucketIndex index,
                      liferaft::storage::AsyncReadCallback done) override;
  size_t Poll() override { return inner_->Poll(); }
  size_t Wait() override;
  void Drain() override;
  size_t in_flight() const override { return inner_->in_flight(); }
  std::vector<liferaft::storage::AsyncVolumeStats> VolumeStats()
      const override {
    return inner_->VolumeStats();
  }

 private:
  std::unique_ptr<liferaft::storage::AsyncReader> inner_;
  Tracer* tracer_;
  // Bucket of the latest completion delivered; names the claim a wait
  // served.
  int64_t last_completed_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
