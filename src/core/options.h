// Top-level configuration of a LifeRaft instance: the execution stack's
// knobs (exec::StackConfig) plus the facade's own, with paper defaults.

#ifndef LIFERAFT_CORE_OPTIONS_H_
#define LIFERAFT_CORE_OPTIONS_H_

#include <cstddef>

#include "exec/stack.h"
#include "sched/metric.h"
#include "sched/qos.h"
#include "util/status.h"

namespace liferaft::core {

/// Options for LifeRaft::Create. Defaults follow the paper's experimental
/// configuration (scaled: see docs/ARCHITECTURE.md, "Modeling
/// assumptions").
struct LifeRaftOptions : exec::StackConfig {
  /// Equal-count partitioning target (paper: 10,000 objects = 40 MB).
  size_t objects_per_bucket = 1000;
  /// Build the B+tree spatial index (required for the hybrid indexed path).
  bool build_index = true;
  /// Age bias alpha in [0, 1]: 0 = greedy most-contentious-first,
  /// 1 = arrival order.
  double alpha = 0.25;
  /// U_a blending mode (see sched/metric.h).
  sched::MetricNormalization normalization =
      sched::MetricNormalization::kNormalized;
  /// Optional QoS age depreciation (paper §6 future work).
  sched::QosConfig qos;

  /// StackConfig::Validate plus the facade's own fields.
  Status Validate() const;
};

}  // namespace liferaft::core

#endif  // LIFERAFT_CORE_OPTIONS_H_
