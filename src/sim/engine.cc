#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "query/preprocessor.h"
#include "sched/liferaft_scheduler.h"

namespace liferaft::sim {

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kShared:
      return "shared";
    case ExecutionMode::kNoShare:
      return "noshare";
    case ExecutionMode::kIndexOnly:
      return "indexonly";
  }
  return "?";
}

const char* IoModeName(IoMode mode) {
  switch (mode) {
    case IoMode::kModeled:
      return "modeled";
    case IoMode::kReal:
      return "real";
  }
  return "?";
}

SimEngine::SimEngine(storage::Catalog* catalog,
                     std::unique_ptr<sched::Scheduler> scheduler,
                     EngineConfig config)
    : catalog_(catalog),
      scheduler_(std::move(scheduler)),
      config_(std::move(config)) {
  assert(catalog_ != nullptr);
}

void SimEngine::RecordCompletion(query::QueryId id, TimeMs completion) {
  auto it = pending_outcomes_.find(id);
  assert(it != pending_outcomes_.end());
  it->second.completion_ms = completion;
  if (it->second.qos == QosClass::kInteractive &&
      pending_interactive_ > 0) {
    --pending_interactive_;
  }
  outcomes_.push_back(it->second);
  pending_outcomes_.erase(it);
}

Result<bool> SimEngine::SharedStep() {
  // The pick→prefetch→claim→evaluate→account loop lives in
  // exec::BatchPipeline (shared with core::LifeRaft); the engine only owns
  // the clock and the per-query outcome bookkeeping.
  LIFERAFT_ASSIGN_OR_RETURN(std::optional<exec::StepOutcome> outcome,
                            stack_->pipeline()->Step(
                                clock_, config_.collect_matches));
  if (!outcome.has_value()) return false;
  if (config_.io_mode == IoMode::kReal) {
    // Measured execution: the clock IS elapsed wall time. (max: an idle
    // jump to a future arrival may have pushed clock_ ahead of the wall.)
    clock_ = std::max(clock_, wall_.NowMs() - wall_base_ms_);
  } else {
    // Two additions, exactly as the pre-exec loop advanced the clock, so
    // makespans stay bit-identical across the refactor (FP addition is
    // not associative).
    clock_ += outcome->fetch_residual_ms + outcome->cost_ms;
    clock_ += outcome->restore_ms;
  }
  total_matches_ += outcome->counters.output_matches;
  if (config_.collect_matches) {
    for (const query::Match& m : outcome->matches) {
      auto it = pending_outcomes_.find(m.query_id);
      if (it != pending_outcomes_.end()) ++it->second.matches;
    }
  }
  for (query::QueryId id : outcome->completed) RecordCompletion(id, clock_);
  return true;
}

Result<bool> SimEngine::PerQueryStep(
    const std::function<Status()>& admit_ready) {
  if (fifo_head_ >= fifo_.size()) return false;
  // Serial (paper) execution serves exactly one query per step; with a
  // pool attached, every ready query is evaluated concurrently — they are
  // embarrassingly parallel, each touching only its own store-direct
  // buckets or the immutable index — and the results are applied below in
  // arrival order, reproducing the serial accounting byte for byte.
  const size_t begin = fifo_head_;
  const size_t end =
      stack_->pool() != nullptr ? fifo_.size() : fifo_head_ + 1;
  const join::PerQueryMode mode = config_.mode == ExecutionMode::kNoShare
                                      ? join::PerQueryMode::kNoShareScan
                                      : join::PerQueryMode::kIndexProbes;
  std::vector<join::PerQueryWork> window;
  window.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const AdmittedQuery& aq = fifo_[i];
    window.push_back(join::PerQueryWork{aq.query->id, aq.arrival_ms,
                                        aq.query->predicate, &aq.workloads});
  }
  LIFERAFT_ASSIGN_OR_RETURN(std::vector<join::PerQueryResult> results,
                            stack_->evaluator()->EvaluatePerQueryWindow(
                                mode, window, config_.collect_matches));

  for (size_t i = begin; i < end; ++i) {
    // Re-index each iteration: admit_ready() may grow (and reallocate)
    // fifo_ — appended queries land beyond `end` and run next step, just
    // as they would have queued behind the window under serial execution.
    const AdmittedQuery& aq = fifo_[i];
    ++fifo_head_;
    for (const auto& w : aq.workloads) {
      fifo_pending_objects_ -= w.objects.size();
    }
    const join::PerQueryResult& r = results[i - begin];
    clock_ += r.cost_ms;
    total_matches_ += r.matches;
    auto it = pending_outcomes_.find(aq.query->id);
    assert(it != pending_outcomes_.end());
    it->second.matches = r.matches;
    RecordCompletion(aq.query->id, clock_);
    // Between two completions the serial loop would admit everything that
    // arrived while the earlier query ran; mirror it exactly so
    // peak_pending_objects is identical.
    if (i + 1 < end) LIFERAFT_RETURN_IF_ERROR(admit_ready());
  }
  return true;
}

Status SimEngine::PrepareRun(
    const std::vector<query::CrossMatchQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty trace");
  }
  for (const auto& q : queries) {
    if (q.objects.empty()) {
      return Status::InvalidArgument("query " + std::to_string(q.id) +
                                     " has no objects");
    }
  }
  const bool shared = config_.mode == ExecutionMode::kShared;
  if (shared && scheduler_ == nullptr) {
    return Status::FailedPrecondition("shared mode requires a scheduler");
  }
  if (config_.mode == ExecutionMode::kIndexOnly &&
      catalog_->index() == nullptr) {
    return Status::FailedPrecondition("index-only mode requires an index");
  }
  const bool real_io = config_.io_mode == IoMode::kReal;
  if (real_io && !shared) {
    return Status::InvalidArgument("real I/O mode requires shared execution");
  }

  // Reset run state.
  clock_ = 0.0;
  fifo_.clear();
  fifo_head_ = 0;
  fifo_pending_objects_ = 0;
  peak_pending_objects_ = 0;
  pending_interactive_ = 0;
  pending_outcomes_.clear();
  outcomes_.clear();
  outcomes_.reserve(queries.size());
  total_matches_ = 0;
  LIFERAFT_ASSIGN_OR_RETURN(
      stack_, exec::Stack::Build(catalog_, shared ? scheduler_.get() : nullptr,
                                 config_, real_io, std::move(stack_)));
  // After the old stack's read workers are joined: the run's reads only.
  catalog_->store()->ResetStats();
  wall_base_ms_ = wall_.NowMs();
  return Status::OK();
}

Result<RunMetrics> SimEngine::Run(
    const std::vector<query::CrossMatchQuery>& queries,
    const std::vector<TimeMs>& arrivals_ms) {
  if (queries.size() != arrivals_ms.size()) {
    return Status::InvalidArgument("queries and arrivals size mismatch");
  }
  if (!std::is_sorted(arrivals_ms.begin(), arrivals_ms.end())) {
    return Status::InvalidArgument("arrivals must be ascending");
  }
  LIFERAFT_RETURN_IF_ERROR(PrepareRun(queries));

  // Adaptive alpha plumbing (shared mode with a LifeRaft scheduler only).
  auto* adaptive_target =
      dynamic_cast<sched::LifeRaftScheduler*>(scheduler_.get());
  sched::ArrivalRateEstimator rate_estimator(config_.rate_window_ms);

  size_t next_arrival = 0;
  const size_t n = queries.size();

  auto admit = [&](size_t i) -> Status {
    const query::CrossMatchQuery& q = queries[i];
    TimeMs arrival = arrivals_ms[i];
    QueryOutcome outcome;
    outcome.id = q.id;
    outcome.arrival_ms = arrival;
    auto workloads = query::SplitQueryByBucket(q, catalog_->bucket_map());
    outcome.parts = workloads.size();
    if (pending_outcomes_.count(q.id) != 0) {
      return Status::AlreadyExists("duplicate query id " +
                                   std::to_string(q.id));
    }
    pending_outcomes_[q.id] = outcome;

    if (config_.mode == ExecutionMode::kShared) {
      query::CrossMatchQuery stamped;  // metadata only; objects live in
      stamped.id = q.id;               // the workloads
      stamped.arrival_ms = arrival;
      stamped.predicate = q.predicate;
      LIFERAFT_ASSIGN_OR_RETURN(size_t parts,
                                stack_->manager()->Admit(stamped,
                                                         workloads));
      (void)parts;
      if (config_.alpha_selector != nullptr && adaptive_target != nullptr) {
        rate_estimator.OnArrival(arrival);
        rate_estimator.Prune(arrival);  // bound memory on long traces
        auto alpha =
            config_.alpha_selector->AlphaFor(rate_estimator.RateQps(arrival));
        if (alpha.ok()) adaptive_target->set_alpha(*alpha);
      }
    } else {
      for (const auto& w : workloads) fifo_pending_objects_ += w.objects.size();
      fifo_.push_back(AdmittedQuery{&queries[i], std::move(workloads),
                                    arrival});
    }
    uint64_t pending = config_.mode == ExecutionMode::kShared
                           ? stack_->manager()->total_pending_objects()
                           : fifo_pending_objects_;
    peak_pending_objects_ = std::max(peak_pending_objects_, pending);
    return Status::OK();
  };

  auto admit_ready = [&]() -> Status {
    while (next_arrival < n && arrivals_ms[next_arrival] <= clock_) {
      LIFERAFT_RETURN_IF_ERROR(admit(next_arrival++));
    }
    return Status::OK();
  };

  while (outcomes_.size() < n) {
    LIFERAFT_RETURN_IF_ERROR(admit_ready());
    Result<bool> worked = config_.mode == ExecutionMode::kShared
                              ? SharedStep()
                              : PerQueryStep(admit_ready);
    if (!worked.ok()) return worked.status();
    if (!*worked) {
      if (next_arrival >= n) {
        return Status::Internal("no pending work but queries incomplete");
      }
      // Idle until the next arrival.
      clock_ = std::max(clock_, arrivals_ms[next_arrival]);
    }
  }
  if (stack_->pipeline() != nullptr) {
    // Final predictions whose buckets were never scheduled again.
    stack_->pipeline()->CancelOutstandingPrefetches();
  }
  return AssembleMetrics(n);
}

RunMetrics SimEngine::AssembleMetrics(size_t n) {
  RunMetrics metrics;
  metrics.scheduler_name = config_.mode == ExecutionMode::kShared
                               ? scheduler_->name()
                               : ExecutionModeName(config_.mode);
  metrics.queries_completed = outcomes_.size();
  // Makespan is the max over the completion clock and every arm's
  // consumed-work clock. A batch completion always waits out its own
  // arm's residual before its CPU phase, so the completion clock
  // dominates and the max is exact — bit-identical to the pre-topology
  // single-clock accounting on one volume.
  metrics.makespan_ms = clock_;
  const exec::BatchPipeline* pipeline = stack_->pipeline();
  if (pipeline != nullptr) {
    metrics.volumes = pipeline->volume_stats();
    for (const storage::VolumeIoStats& v : metrics.volumes) {
      metrics.makespan_ms = std::max(metrics.makespan_ms,
                                     v.consumed_until_ms);
    }
  }
  metrics.throughput_qps =
      clock_ > 0.0 ? static_cast<double>(n) / (clock_ / 1000.0) : 0.0;
  Percentiles pct;
  for (const QueryOutcome& o : outcomes_) {
    metrics.response_stats.Add(o.ResponseMs());
    pct.Add(o.ResponseMs());
  }
  metrics.avg_response_ms = metrics.response_stats.mean();
  metrics.p50_response_ms = pct.Percentile(50);
  metrics.p95_response_ms = pct.Percentile(95);
  metrics.p99_response_ms = pct.Percentile(99);
  metrics.response_cov = metrics.response_stats.coefficient_of_variation();
  metrics.cache = stack_->cache()->stats();
  metrics.store = catalog_->store()->stats();
  metrics.evaluator = stack_->evaluator()->stats();
  metrics.total_matches = total_matches_;
  metrics.peak_pending_objects = peak_pending_objects_;
  metrics.spill = stack_->manager()->spill_stats();
  metrics.prefetch_hidden_ms =
      pipeline != nullptr ? pipeline->prefetch_hidden_ms() : 0.0;
  if (config_.io_mode == IoMode::kReal) {
    metrics.real_io_enabled = true;
    metrics.real_io = pipeline->read_queue_stats();
  }
  if (pipeline != nullptr && pipeline->controller() != nullptr) {
    metrics.prefetch_final_depth = pipeline->controller()->depth();
    metrics.prefetch_stale_ewma = pipeline->controller()->stale_ewma();
    // Depths exist only for bucket arms; a spill arm has no controller.
    metrics.arm_final_depths.reserve(pipeline->bucket_volumes());
    for (size_t v = 0; v < pipeline->bucket_volumes(); ++v) {
      metrics.arm_final_depths.push_back(pipeline->current_prefetch_depth(v));
    }
  }
  return metrics;
}

Result<RunMetrics> SimEngine::Serve(
    const std::vector<query::CrossMatchQuery>& queries,
    const ServeConfig& serve) {
  if (config_.mode != ExecutionMode::kShared) {
    return Status::InvalidArgument(
        "serving requires shared execution mode");
  }
  if (config_.io_mode == IoMode::kReal) {
    // Admission control and QoS latency targets are defined on the
    // virtual clock; a wall-clock serving loop is a different experiment.
    return Status::InvalidArgument("serving requires modeled I/O");
  }
  LIFERAFT_RETURN_IF_ERROR(serve.Validate());
  LIFERAFT_RETURN_IF_ERROR(PrepareRun(queries));
  LIFERAFT_ASSIGN_OR_RETURN(std::vector<TimeMs> arrivals_ms,
                            BuildArrivals(serve.arrivals, queries.size()));

  AdmissionController admission(serve, config_.rate_window_ms);
  auto* adaptive_target =
      dynamic_cast<sched::LifeRaftScheduler*>(scheduler_.get());

  size_t next_arrival = 0;
  const size_t n = queries.size();
  size_t admitted = 0;
  size_t shed_by_class[kNumQosClasses] = {0, 0};

  auto admit_ready = [&]() -> Status {
    while (next_arrival < n && arrivals_ms[next_arrival] <= clock_) {
      const size_t i = next_arrival++;
      const query::CrossMatchQuery& q = queries[i];
      TimeMs arrival = arrivals_ms[i];
      auto workloads = query::SplitQueryByBucket(q, catalog_->bucket_map());
      QosClass qos = workloads.size() <= serve.interactive_max_parts
                         ? QosClass::kInteractive
                         : QosClass::kBatch;
      // The controller sees the buffer as it stands; its verdict is final
      // — a shed query never touches the workload manager.
      const query::WorkloadManager& manager = *stack_->manager();
      bool admit = admission.Offer(arrival, manager.total_pending_objects(),
                                   manager.pending_queries(),
                                   q.objects.size());
      if (!admit) {
        ++shed_by_class[static_cast<size_t>(qos)];
        continue;
      }
      if (pending_outcomes_.count(q.id) != 0) {
        return Status::AlreadyExists("duplicate query id " +
                                     std::to_string(q.id));
      }
      QueryOutcome outcome;
      outcome.id = q.id;
      outcome.arrival_ms = arrival;
      outcome.parts = workloads.size();
      outcome.qos = qos;
      pending_outcomes_[q.id] = outcome;
      query::CrossMatchQuery stamped;  // metadata only; objects live in
      stamped.id = q.id;               // the workloads
      stamped.arrival_ms = arrival;
      stamped.predicate = q.predicate;
      LIFERAFT_ASSIGN_OR_RETURN(size_t parts,
                                stack_->manager()->Admit(stamped,
                                                         workloads));
      (void)parts;
      ++admitted;
      if (qos == QosClass::kInteractive) ++pending_interactive_;
      peak_pending_objects_ =
          std::max(peak_pending_objects_, manager.total_pending_objects());
      if (config_.alpha_selector != nullptr && adaptive_target != nullptr) {
        auto alpha =
            config_.alpha_selector->AlphaFor(admission.RateQps(arrival));
        if (alpha.ok()) adaptive_target->set_alpha(*alpha);
      }
    }
    return Status::OK();
  };

  // Per-QoS-class prefetch caps: while any admitted interactive query is
  // pending, every arm's next-step depth is capped at the interactive
  // entry; otherwise at the batch entry (0 = that class imposes no cap).
  // With both entries 0 the pipeline's cap is never touched, so the
  // default reproduces single-config serving byte for byte.
  const size_t interactive_cap =
      serve.qos_prefetch[static_cast<size_t>(QosClass::kInteractive)]
          .max_depth;
  const size_t batch_cap =
      serve.qos_prefetch[static_cast<size_t>(QosClass::kBatch)].max_depth;
  const bool qos_caps = interactive_cap != 0 || batch_cap != 0;

  while (next_arrival < n || outcomes_.size() < admitted) {
    LIFERAFT_RETURN_IF_ERROR(admit_ready());
    if (qos_caps) {
      const size_t cap = pending_interactive_ > 0 ? interactive_cap
                                                  : batch_cap;
      stack_->pipeline()->set_depth_cap(
          cap != 0 ? cap : std::numeric_limits<size_t>::max());
    }
    Result<bool> worked = SharedStep();
    if (!worked.ok()) return worked.status();
    if (!*worked) {
      if (next_arrival >= n) {
        if (outcomes_.size() < admitted) {
          return Status::Internal("no pending work but queries incomplete");
        }
        break;
      }
      // Idle until the next arrival.
      clock_ = std::max(clock_, arrivals_ms[next_arrival]);
    }
  }
  stack_->pipeline()->CancelOutstandingPrefetches();

  RunMetrics metrics = AssembleMetrics(admitted);
  metrics.queries_offered = n;
  metrics.queries_shed = admission.shed();
  metrics.offered_qps = metrics.makespan_ms > 0.0
                            ? static_cast<double>(n) /
                                  (metrics.makespan_ms / 1000.0)
                            : 0.0;
  metrics.sustained_qps =
      metrics.makespan_ms > 0.0
          ? static_cast<double>(outcomes_.size()) /
                (metrics.makespan_ms / 1000.0)
          : 0.0;
  if (auto* lr = dynamic_cast<sched::LifeRaftScheduler*>(scheduler_.get())) {
    metrics.alpha_final = lr->alpha();
  }

  // Per-class latency breakdown.
  Percentiles class_pct[kNumQosClasses];
  StreamingStats class_stats[kNumQosClasses];
  size_t class_completed[kNumQosClasses] = {0, 0};
  for (const QueryOutcome& o : outcomes_) {
    const size_t c = static_cast<size_t>(o.qos);
    class_pct[c].Add(o.ResponseMs());
    class_stats[c].Add(o.ResponseMs());
    ++class_completed[c];
  }
  metrics.qos_classes.resize(kNumQosClasses);
  for (size_t c = 0; c < kNumQosClasses; ++c) {
    QosClassMetrics& qc = metrics.qos_classes[c];
    qc.name = QosClassName(static_cast<QosClass>(c));
    qc.completed = class_completed[c];
    qc.shed = shed_by_class[c];
    qc.mean_response_ms = class_stats[c].mean();
    if (class_completed[c] > 0) {
      qc.p50_response_ms = class_pct[c].Percentile(50);
      qc.p95_response_ms = class_pct[c].Percentile(95);
      qc.p99_response_ms = class_pct[c].Percentile(99);
    }
  }
  return metrics;
}

}  // namespace liferaft::sim
