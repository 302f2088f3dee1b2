#include "traced.h"

#include <chrono>
#include <cstdio>
#include <string_view>

namespace perfbench {

using liferaft::Result;
using liferaft::Status;
using liferaft::storage::Bucket;
using liferaft::storage::BucketIndex;

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::AddLocked(Span span) { spans_.push_back(std::move(span)); }

void Tracer::BeginRoot(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  totals_.clear();
  submitted_.clear();
  read_ms_ = liferaft::Percentiles();
  root_ = 0;
  AddLocked(Span{name, NowNs(), 0, -1, -1});
}

void Tracer::EndRoot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (root_ >= 0) spans_[static_cast<size_t>(root_)].end_ns = NowNs();
  root_ = -1;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(std::string_view(name));
  if (it == totals_.end()) it = totals_.emplace(name, LayerTotal{}).first;
  LayerTotal& t = it->second;
  ++t.calls;
  t.ns += end_ns - start_ns;
  AddLocked(Span{name, start_ns, end_ns, root_, bucket});
}

void Tracer::OnSubmit(uint64_t bucket) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  submitted_[bucket].push_back(now);
}

void Tracer::OnReadStart(uint64_t bucket, int64_t start_ns) {
  int64_t submitted = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = submitted_.find(bucket);
    if (it == submitted_.end() || it->second.empty()) return;
    submitted = it->second.front();
    it->second.pop_front();
  }
  Record("storage.queue_wait", submitted, start_ns,
         static_cast<int64_t>(bucket));
}

void Tracer::OnReadDone(uint64_t bucket, int64_t start_ns, int64_t end_ns) {
  Record("storage.read", start_ns, end_ns, static_cast<int64_t>(bucket));
  std::lock_guard<std::mutex> lock(mu_);
  read_ms_.Add(static_cast<double>(end_ns - start_ns) / 1e6);
}

LayerTotal Tracer::Total(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(std::string_view(name));
  return it == totals_.end() ? LayerTotal{} : it->second;
}

double Tracer::ReadP99Ms() {
  std::lock_guard<std::mutex> lock(mu_);
  return read_ms_.Percentile(99);
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"bucket\":%lld}%s\n",
                 i, s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - origin) / 1e3, static_cast<long long>(s.parent),
                 static_cast<long long>(s.bucket),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

std::optional<BucketIndex> TracedScheduler::PickBucket(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached) {
  const int64_t start = Tracer::NowNs();
  auto pick = LifeRaftScheduler::PickBucket(manager, now, cached);
  tracer_->Record("sched.pick", start, Tracer::NowNs(),
                  pick.has_value() ? static_cast<int64_t>(*pick) : -1);
  return pick;
}

std::vector<BucketIndex> TracedScheduler::PeekNextBuckets(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached, size_t k) const {
  const int64_t start = Tracer::NowNs();
  ++peek_depth_;
  auto peek = LifeRaftScheduler::PeekNextBuckets(manager, now, cached, k);
  if (--peek_depth_ == 0) {
    tracer_->Record("sched.peek", start, Tracer::NowNs());
  }
  return peek;
}

std::vector<BucketIndex> TracedScheduler::PeekNextBucketsCovering(
    const liferaft::query::WorkloadManager& manager, liferaft::TimeMs now,
    const liferaft::sched::CacheProbe& cached,
    const std::function<uint32_t(BucketIndex)>& volume_of,
    const std::vector<size_t>& want_per_volume) const {
  const int64_t start = Tracer::NowNs();
  ++peek_depth_;
  auto peek = LifeRaftScheduler::PeekNextBucketsCovering(
      manager, now, cached, volume_of, want_per_volume);
  if (--peek_depth_ == 0) {
    tracer_->Record("sched.peek", start, Tracer::NowNs());
  }
  return peek;
}

Result<std::shared_ptr<const Bucket>> TracedStore::ReadBucket(BucketIndex i) {
  const int64_t start = Tracer::NowNs();
  auto bucket = inner_->ReadBucket(i);
  if (bucket.ok()) RecordRead(**bucket);
  tracer_->Record("storage.owner_read", start, Tracer::NowNs(),
                  static_cast<int64_t>(i));
  return bucket;
}

Result<std::shared_ptr<const Bucket>> TracedStore::ReadBucketForPrefetchScratch(
    BucketIndex i, liferaft::util::Arena* scratch) {
  const int64_t start = Tracer::NowNs();
  tracer_->OnReadStart(i, start);
  auto bucket = inner_->ReadBucketForPrefetchScratch(i, scratch);
  tracer_->OnReadDone(i, start, Tracer::NowNs());
  return bucket;
}

std::unique_ptr<liferaft::storage::AsyncReader> TracedStore::NewAsyncReader(
    const liferaft::storage::StorageTopology* topology) {
  return std::make_unique<TracedReader>(
      liferaft::storage::MakeQueuedAsyncReader(this, topology), tracer_);
}

uint64_t TracedReader::SubmitRead(BucketIndex index,
                                  liferaft::storage::AsyncReadCallback done) {
  tracer_->OnSubmit(index);
  return inner_->SubmitRead(
      index, [this, done = std::move(done)](
                 const liferaft::storage::AsyncReadCompletion& c) {
        last_completed_ = static_cast<int64_t>(c.index);
        done(c);
      });
}

size_t TracedReader::Wait() {
  const int64_t start = Tracer::NowNs();
  const size_t delivered = inner_->Wait();
  tracer_->Record("exec.claim_wait", start, Tracer::NowNs(), last_completed_);
  return delivered;
}

void TracedReader::Drain() {
  const int64_t start = Tracer::NowNs();
  inner_->Drain();
  tracer_->Record("exec.claim_wait", start, Tracer::NowNs(), last_completed_);
}

}  // namespace perfbench
