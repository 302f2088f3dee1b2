// Sharded LRU bucket cache (paper §4): LifeRaft manages bucket caching
// itself, independently of the database server's buffer pool. The cache's
// residency predicate is the phi(i) term of the workload throughput metric
// — cached buckets cost no T_b — so the greedy scheduler naturally
// gravitates toward cached, contentious buckets.
//
// Sharding: the bucket id hashes (modulo) to one of N shards, each with its
// own mutex, LRU list, and prediction-window slice, so worker threads
// touching different shards never contend on a single cache-wide lock.
// Capacity is split as evenly as possible across shards; at num_shards == 1
// every code path, eviction decision, and counter is byte-identical to the
// pre-shard cache. Hit/miss/eviction/prefetch statistics are aggregated
// atomically across shards (std::atomic counters), so stats() reports
// identical numbers at num_shards == 1 as the unsharded cache did.
//
// Prefetch contract (cross-batch pipelining): the cache does no reading of
// its own ahead of need. exec::BatchPipeline reads its prefetch bets
// through a storage::AsyncReader and hands each claimed bucket over with
// InsertRead, which counts exactly what a Get miss counts (one miss, plus
// the store's deferred read stats via RecordPrefetchedRead) and, for a
// claimed bet, one prefetch_claims tick. An in-flight bet is not resident
// and not pinned: the pipeline only bets on buckets Contains() rejects,
// and the bucket enters the LRU at claim time, most-recently-used. The
// pipeline reports bets issued and dropped through CountPrefetchIssued and
// CountPrefetchCancel, so all prefetch counters live in one CacheStats.
// Every counter moves on the owner thread, so I/O accounting stays
// deterministic.
//
// Prefetch-aware eviction (two LRU tiers per shard): the prefetch pipeline
// publishes the scheduler's current prediction window via
// SetPredictionWindow — the buckets it expects to serve (and therefore
// fetch or reuse) next. Eviction demotes those buckets last: the victim is
// the least-recently-used entry OUTSIDE the window, and only when every
// entry is inside the window does eviction fall back to the LRU protected
// entry (counted in evictions_protected). The entry the triggering insert
// just touched (the front of the LRU) is never the victim while anything
// else is evictable — protection demotes other buckets, it must not bounce
// the foreground's own bucket straight back out. This closes the
// self-defeating loop where inserting a prefetched bucket evicts the very
// bucket the next prediction wants — generic LRU knows nothing about the
// predictor. With an empty window (the default, and whenever prefetching
// is off) eviction is byte-identical to plain LRU.
//
// Threading: every method is safe to call from any thread — per-bucket
// operations serialize on the bucket's shard mutex only, and the store
// contract (bucket_store.h) requires ReadBucket to tolerate the resulting
// cross-shard concurrency. The virtual-clock drivers still funnel all
// modeled accounting through one owner thread (see exec::BatchPipeline);
// the shard locks exist for the stress paths exercised in
// tests/test_storage.cc. Known limitation: a Get miss reads the store
// while HOLDING the shard lock, stalling that shard for the duration —
// fine for MemStore's pointer handouts and for the pipeline, whose bets
// and real-mode foreground reads go through the AsyncReader instead; a
// placeholder-entry protocol that drops the lock across the read is the
// upgrade path if concurrent Get misses ever bite.

#ifndef LIFERAFT_STORAGE_BUCKET_CACHE_H_
#define LIFERAFT_STORAGE_BUCKET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/bucket.h"
#include "storage/bucket_store.h"
#include "storage/topology.h"
#include "util/status.h"

namespace liferaft::storage {

/// Cache hit/miss counters. A claimed prefetch counts as a miss (the
/// bucket did come from the store) plus a prefetch_claims tick, so the hit
/// rate keeps its meaning and the claims count says how many misses the
/// pipeline (partially) hid.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Prefetch bets the pipeline placed (CountPrefetchIssued).
  uint64_t prefetch_issued = 0;
  /// Bets claimed by the batch they bet on (InsertRead with prefetched).
  uint64_t prefetch_claims = 0;
  /// Bets dropped unclaimed: stale, drained at end of run, or abandoned by
  /// a failed step (CountPrefetchCancel).
  uint64_t prefetch_cancels = 0;
  /// Bytes physically fetched by prefetches that were then dropped without
  /// a claim — the direct cost of mispredicted bets. The adaptive prefetch
  /// controller's stale-claim signal and the bench report both read this.
  uint64_t prefetch_wasted_bytes = 0;
  /// Evictions that had to take a bucket inside the current prediction
  /// window because every other entry was protected (cache pressure
  /// exceeding what prefetch-aware demotion can absorb).
  uint64_t evictions_protected = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Fixed-capacity sharded LRU cache of immutable buckets, layered over a
/// BucketStore.
class BucketCache {
 public:
  /// @param store      backing store (not owned; must outlive the cache)
  /// @param capacity   maximum number of resident buckets (paper: 20)
  /// @param num_shards lock/LRU shards; clamped to [1, capacity] so every
  ///                   shard holds at least one bucket. 1 reproduces the
  ///                   unsharded cache exactly.
  /// @param topology   optional volume map (not owned; must outlive the
  ///                   cache). When set, buckets shard by their volume
  ///                   (VolumeOf(b) % num_shards) instead of by raw bucket
  ///                   id — under range placement curve-adjacent buckets
  ///                   then share a shard (and its LRU domain), aligning
  ///                   the cache's lock/eviction domains with the arms
  ///                   that feed them; num_shards is additionally clamped
  ///                   to the volume count, since shards beyond it could
  ///                   never receive an entry. Irrelevant at
  ///                   num_shards == 1.
  /// @param capacity_bytes optional byte budget, split across shards like
  ///                   the count capacity. 0 (default) disables byte
  ///                   accounting entirely — byte-identical to the
  ///                   pre-byte-mode cache. When set, each resident bucket
  ///                   is charged its real encoded page size when it has
  ///                   one (columnar v2 buckets) and the kBytesPerObject
  ///                   estimate otherwise, and eviction also runs while a
  ///                   shard is over its byte slice — so at a fixed MB
  ///                   budget, smaller encoded pages mean more resident
  ///                   buckets. The count bound still applies; callers
  ///                   wanting a pure byte budget pass capacity =
  ///                   num_buckets.
  BucketCache(BucketStore* store, size_t capacity, size_t num_shards = 1,
              const StorageTopology* topology = nullptr,
              uint64_t capacity_bytes = 0);

  /// True if the bucket is resident (phi(i) == 0). Does not affect LRU
  /// order — the metric may interrogate residency without touching
  /// recency.
  bool Contains(BucketIndex index) const;

  /// Returns the bucket, reading it from the store on a miss; promotes to
  /// most-recently-used either way.
  Result<std::shared_ptr<const Bucket>> Get(BucketIndex index);

  /// Inserts a bucket read outside the cache (through a storage::
  /// AsyncReader, which records no stats) as most-recently-used, counting
  /// what a Get miss counts: one miss, and the read in the store's stats
  /// via RecordPrefetchedRead. `prefetched` marks a claimed prefetch bet
  /// and adds one prefetch_claims tick. Eviction applies immediately and
  /// the just-inserted entry is never its own victim. An already-resident
  /// bucket is only promoted, and no counter moves.
  void InsertRead(BucketIndex index, std::shared_ptr<const Bucket> bucket,
                  bool prefetched);

  /// Counts one prefetch bet placed by the pipeline.
  void CountPrefetchIssued();

  /// Counts one bet dropped unclaimed; `wasted_bytes` is what its read
  /// had fetched (0 if it failed), charged to prefetch_wasted_bytes.
  void CountPrefetchCancel(uint64_t wasted_bytes);

  /// Publishes the prefetch predictor's current window: buckets predicted
  /// to be served next, demoted last by eviction (see file comment).
  /// Replaces the previous window; an empty span restores plain LRU.
  /// Typically called once per pipeline step with PeekNextBuckets' output.
  void SetPredictionWindow(std::span<const BucketIndex> window);

  /// Drops every resident bucket and the prediction window (used between
  /// experiment phases).
  void Clear();

  /// The backing store (for metadata queries; reads should go through
  /// Get so residency stays coherent).
  const BucketStore& store() const { return *store_; }

  /// The backing store, mutable: the per-query NoShare path reads buckets
  /// directly (no shared cache, by definition) and needs the
  /// stats-recording ReadBucket.
  BucketStore* mutable_store() { return store_; }

  size_t capacity() const { return capacity_; }
  /// The byte budget (0 = byte accounting off).
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Resident buckets across all shards.
  size_t size() const;
  /// Charged bytes resident across all shards (0 when byte accounting is
  /// off — charges are only tracked in byte mode).
  uint64_t resident_bytes() const;
  /// Atomic cross-shard snapshot of the aggregated counters.
  CacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    BucketIndex index;
    std::shared_ptr<const Bucket> bucket;
    /// Bytes charged against the shard's byte slice (0 in count-only
    /// mode).
    uint64_t bytes = 0;
  };

  /// One lock domain: an independent LRU over its slice of the capacity.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    /// This shard's slice of the byte budget (0 = byte accounting off).
    uint64_t capacity_bytes = 0;
    /// Charged bytes of the resident entries (maintained only in byte
    /// mode).
    uint64_t bytes_used = 0;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<BucketIndex, std::list<Entry>::iterator> map;
    /// This shard's slice of the prediction window (protected tier).
    std::unordered_set<BucketIndex> window;
  };

  /// Monotonically aggregated counters, incremented under shard locks but
  /// readable lock-free from any thread.
  struct AtomicStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> prefetch_issued{0};
    std::atomic<uint64_t> prefetch_claims{0};
    std::atomic<uint64_t> prefetch_cancels{0};
    std::atomic<uint64_t> prefetch_wasted_bytes{0};
    std::atomic<uint64_t> evictions_protected{0};
  };

  /// Shard key: the owning volume when a topology is attached (aligning
  /// lock/LRU domains with arms), the raw bucket id otherwise.
  size_t ShardKey(BucketIndex index) const {
    return topology_ != nullptr
               ? static_cast<size_t>(topology_->VolumeOf(index))
               : static_cast<size_t>(index);
  }
  Shard& ShardFor(BucketIndex index) {
    return *shards_[ShardKey(index) % shards_.size()];
  }
  const Shard& ShardFor(BucketIndex index) const {
    return *shards_[ShardKey(index) % shards_.size()];
  }

  // Shard-local helpers; the shard's mutex must be held.
  static void Touch(Shard& shard, std::list<Entry>::iterator it);
  /// Inserts `bucket` most-recently-used and evicts down to the shard's
  /// capacity.
  void InsertMru(Shard& shard, BucketIndex index,
                 std::shared_ptr<const Bucket> bucket);
  void EvictOverCapacity(Shard& shard);

  /// Bytes a resident bucket is charged in byte mode: the real encoded
  /// page size when the bucket carries one, the modeled estimate
  /// otherwise.
  static uint64_t ChargedBytes(const Bucket& b) {
    const uint64_t encoded = b.encoded_bytes();
    return encoded > 0 ? encoded : b.EstimatedBytes();
  }

  BucketStore* store_;
  size_t capacity_;
  uint64_t capacity_bytes_ = 0;
  const StorageTopology* topology_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  AtomicStats stats_;
};

}  // namespace liferaft::storage

#endif  // LIFERAFT_STORAGE_BUCKET_CACHE_H_
