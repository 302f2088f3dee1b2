#include "exec/stack.h"

#include <utility>

#include "sched/liferaft_scheduler.h"

namespace liferaft::exec {

Status StackConfig::Validate() const {
  if (cache_capacity == 0) {
    return Status::InvalidArgument("cache_capacity must be positive");
  }
  if (cache_shards == 0) {
    return Status::InvalidArgument("cache_shards must be >= 1");
  }
  if (hybrid.index_threshold < 0.0) {
    return Status::InvalidArgument("index_threshold must be >= 0");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (prefetch_depth == 0) {
    return Status::InvalidArgument("prefetch_depth must be >= 1");
  }
  if (max_prefetch_depth == 0) {
    return Status::InvalidArgument("max_prefetch_depth must be >= 1");
  }
  if (adaptive_prefetch && prefetch_depth > max_prefetch_depth) {
    return Status::InvalidArgument(
        "prefetch_depth (adaptive starting depth) must be <= "
        "max_prefetch_depth");
  }
  LIFERAFT_RETURN_IF_ERROR(topology.Validate());
  return disk.Validate();
}

Result<std::unique_ptr<Stack>> Stack::Build(storage::Catalog* catalog,
                                            sched::Scheduler* scheduler,
                                            const StackConfig& config,
                                            bool real_io,
                                            std::unique_ptr<Stack> previous) {
  LIFERAFT_RETURN_IF_ERROR(config.Validate());
  storage::BucketStore* store = catalog->store();
  // Real mode and prefetch bets read on the pipeline's I/O workers.
  if (scheduler != nullptr && (real_io || config.prefetching()) &&
      !store->SupportsConcurrentReads()) {
    return Status::InvalidArgument(
        "real I/O and prefetch require a store with concurrent reads");
  }

  auto stack = std::unique_ptr<Stack>(new Stack());
  if (previous != nullptr) {
    if (previous->pool_ != nullptr &&
        previous->pool_->num_threads() == config.num_threads) {
      stack->pool_ = std::move(previous->pool_);
    }
    previous.reset();  // joins the old pipeline's read queues
  }
  if (stack->pool_ == nullptr && config.num_threads > 1) {
    stack->pool_ = std::make_unique<util::ThreadPool>(config.num_threads);
  }

  LIFERAFT_ASSIGN_OR_RETURN(
      storage::StorageTopology topology,
      storage::StorageTopology::Create(catalog->num_buckets(),
                                       config.topology, config.disk));
  stack->topology_ =
      std::make_unique<storage::StorageTopology>(std::move(topology));
  const storage::StorageTopology* topo = stack->topology_.get();
  // Volume-aligned cache sharding only when there genuinely are volumes
  // to align with: a single-volume topology would collapse every bucket
  // into shard 0 instead of reproducing the by-bucket-id map.
  stack->cache_ = std::make_unique<storage::BucketCache>(
      store, config.cache_capacity, config.cache_shards,
      topo->num_volumes() > 1 ? topo : nullptr, config.cache_capacity_bytes);
  stack->evaluator_ = std::make_unique<join::JoinEvaluator>(
      stack->cache_.get(), catalog->index(), storage::DiskModel(config.disk),
      config.hybrid);
  stack->evaluator_->set_topology(topo);
  stack->evaluator_->set_charge_encoded_bytes(config.charge_encoded_bytes);
  stack->evaluator_->set_thread_pool(stack->pool_.get());
  stack->manager_ =
      std::make_unique<query::WorkloadManager>(catalog->num_buckets());
  if (scheduler == nullptr) return stack;

  // Cost-based policies price T_b with the owning volume's model
  // (heterogeneous volume_disk; uniform topologies rank identically).
  scheduler->AttachTopology(topo);
  if (auto* lr = dynamic_cast<sched::LifeRaftScheduler*>(scheduler)) {
    // One flag governs every T_b consumer: ranking must price fetches the
    // same way the evaluator and pipeline charge them.
    lr->set_charge_encoded_bytes(config.charge_encoded_bytes);
  }
  if (!config.spill_path.empty()) {
    LIFERAFT_RETURN_IF_ERROR(stack->manager_->EnableSpill(
        config.spill_path, config.workload_memory_budget));
  }
  stack->pipeline_ = std::make_unique<BatchPipeline>(
      scheduler, stack->manager_.get(), stack->evaluator_.get(), config,
      real_io, topo);
  return stack;
}

}  // namespace liferaft::exec
