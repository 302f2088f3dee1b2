#include "core/liferaft.h"

#include "query/preprocessor.h"

namespace liferaft::core {

Status LifeRaftOptions::Validate() const {
  LIFERAFT_RETURN_IF_ERROR(exec::StackConfig::Validate());
  if (objects_per_bucket == 0) {
    return Status::InvalidArgument("objects_per_bucket must be positive");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  if (qos.half_life_parts <= 0.0) {
    return Status::InvalidArgument("qos.half_life_parts must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<LifeRaft>> LifeRaft::Create(
    std::vector<storage::CatalogObject> catalog_objects,
    const LifeRaftOptions& options) {
  LIFERAFT_RETURN_IF_ERROR(options.Validate());
  auto system = std::unique_ptr<LifeRaft>(new LifeRaft());

  storage::CatalogOptions catalog_options;
  catalog_options.objects_per_bucket = options.objects_per_bucket;
  catalog_options.build_index = options.build_index;
  LIFERAFT_ASSIGN_OR_RETURN(
      system->catalog_,
      storage::Catalog::Build(std::move(catalog_objects), catalog_options));

  sched::LifeRaftConfig sched_config;
  sched_config.alpha = options.alpha;
  sched_config.normalization = options.normalization;
  sched_config.qos = options.qos;
  system->scheduler_ = std::make_unique<sched::LifeRaftScheduler>(
      system->catalog_->store(), storage::DiskModel(options.disk),
      sched_config);
  LIFERAFT_ASSIGN_OR_RETURN(
      system->stack_,
      exec::Stack::Build(system->catalog_.get(), system->scheduler_.get(),
                         options, /*real_io=*/false));
  return system;
}

Status LifeRaft::Submit(const query::CrossMatchQuery& query) {
  if (query.objects.empty()) {
    return Status::InvalidArgument("query " + std::to_string(query.id) +
                                   " has no objects");
  }
  query::CrossMatchQuery stamped;
  stamped.id = query.id;
  stamped.arrival_ms = std::max(query.arrival_ms, clock_.NowMs());
  stamped.predicate = query.predicate;
  stamped.label = query.label;

  auto workloads = query::SplitQueryByBucket(query, catalog_->bucket_map());
  LIFERAFT_ASSIGN_OR_RETURN(size_t parts,
                            stack_->manager()->Admit(stamped, workloads));
  (void)parts;
  arrivals_[query.id] = stamped.arrival_ms;
  return Status::OK();
}

Result<std::optional<BatchOutcome>> LifeRaft::ProcessNextBatch(
    bool collect_matches) {
  LIFERAFT_ASSIGN_OR_RETURN(
      std::optional<exec::StepOutcome> step,
      stack_->pipeline()->Step(clock_.NowMs(), collect_matches));
  if (!step.has_value()) return std::optional<BatchOutcome>{};
  clock_.Advance(step->TotalAdvanceMs());

  BatchOutcome outcome;
  outcome.bucket = step->bucket;
  outcome.strategy = step->strategy;
  outcome.cache_hit = step->cache_hit;
  outcome.cost_ms = step->TotalAdvanceMs();
  outcome.completed = std::move(step->completed);
  outcome.matches = std::move(step->matches);

  for (query::QueryId id : outcome.completed) {
    auto it = arrivals_.find(id);
    TimeMs arrival = it == arrivals_.end() ? 0.0 : it->second;
    completions_.push_back(QueryCompletion{id, arrival, clock_.NowMs()});
    if (it != arrivals_.end()) arrivals_.erase(it);
  }
  return std::optional<BatchOutcome>(std::move(outcome));
}

Result<std::vector<QueryCompletion>> LifeRaft::Drain(
    const std::function<void(const BatchOutcome&)>& on_batch) {
  size_t first_new = completions_.size();
  for (;;) {
    LIFERAFT_ASSIGN_OR_RETURN(std::optional<BatchOutcome> outcome,
                              ProcessNextBatch(on_batch != nullptr));
    if (!outcome.has_value()) break;
    if (on_batch != nullptr) on_batch(*outcome);
  }
  // The queues are empty: any prefetch bet still pending targets a bucket
  // with no work, so the bet cannot pay off until new queries arrive —
  // drop it rather than holding its read across an idle period.
  stack_->pipeline()->CancelOutstandingPrefetches();
  return std::vector<QueryCompletion>(completions_.begin() + first_new,
                                      completions_.end());
}

}  // namespace liferaft::core
