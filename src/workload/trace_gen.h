// Synthetic SkyQuery-like cross-match trace generator — the stand-in for
// the paper's 2,000-query web-log trace (docs/ARCHITECTURE.md, "Modeling
// assumptions").
//
// The published workload has two measured marginals LifeRaft's gains hinge
// on, and the generator is calibrated to reproduce both:
//   * Fig 5: heavy bucket reuse with temporal locality — the top-ten
//     buckets are touched by ~61% of queries, and queries touching the
//     same data cluster in time.
//   * Fig 6: skewed workload mass — ~2% of buckets carry ~50% of all
//     cross-match objects, with a long starvation-prone tail.
//
// Mechanism: queries target sky "hotspots" drawn from a Zipf distribution
// (science interest concentrates on a few regions); a Markov "stay"
// probability keeps consecutive queries on the same hotspot (papers beget
// follow-up queries); query footprints are log-uniform cones, so a few
// sky-spanning scans coexist with small targeted cross-matches.

#ifndef LIFERAFT_WORKLOAD_TRACE_GEN_H_
#define LIFERAFT_WORKLOAD_TRACE_GEN_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "storage/partitioner.h"
#include "util/status.h"

namespace liferaft::workload {

/// Trace generator configuration. Defaults reproduce the Fig 5 / Fig 6
/// shapes on the default 100k-object / 100-bucket catalog.
struct TraceConfig {
  size_t num_queries = 2000;

  /// Hotspot model.
  size_t num_hotspots = 48;
  double zipf_s = 1.6;
  /// Probability a query targets a hotspot (vs. a fresh random region).
  double p_hotspot = 0.82;
  /// Probability the next query stays on the previous query's hotspot
  /// (temporal locality).
  double p_stay = 0.5;

  /// Query footprint: cone radius log-uniform in [min, max] degrees.
  double min_radius_deg = 0.4;
  double max_radius_deg = 25.0;

  /// Bimodal footprint mix for QoS scenarios: with probability p_small the
  /// radius is drawn log-uniform in [min_radius_deg, small_max_radius_deg]
  /// instead of the full range, yielding a controllable share of
  /// few-bucket (interactive-classified) queries next to sky-spanning
  /// batch scans. p_small = 0 draws nothing extra from the rng, so the
  /// default reproduces pre-mix traces byte for byte.
  double p_small = 0.0;
  double small_max_radius_deg = 1.0;

  /// Cross-match object density within the footprint.
  double objects_per_sq_deg = 2.0;
  size_t min_objects_per_query = 16;
  size_t max_objects_per_query = 8000;

  /// Per-object probabilistic match radius (arcsec).
  double match_radius_arcsec = 3.0;

  /// Fraction of queries that get a non-trivial magnitude predicate.
  double p_predicate = 0.3;

  uint64_t seed = 42;

  Status Validate() const;
};

/// Generates the trace. Query ids are 1..n in order.
Result<std::vector<query::CrossMatchQuery>> GenerateTrace(
    const TraceConfig& config);

/// The calibrated stand-in for the paper's §5.1 evaluation trace: 2,000
/// *long-running* cross-match queries ("navigate the entire sky, performing
/// full database scans"), sized so that on the standard 1,000-bucket
/// benchmark catalog the NoShare baseline's service capacity lands near the
/// paper's measured ~0.085 q/s and the Fig 5/6 skew shapes hold.
TraceConfig LongRunningSkyQueryPreset();

/// Catalog-skew axis of the scenario matrix: how concentrated the query
/// mass is over the sky. kUniform scatters queries with no hotspot pull;
/// kDefault is the calibrated Fig 5/6 shape; kExtreme concentrates almost
/// all mass on a couple of hotspots (the starvation-pressure regime).
enum class SkewLevel { kUniform, kDefault, kExtreme };

const char* SkewLevelName(SkewLevel level);

/// TraceConfig for a skew level, starting from the defaults: only the
/// hotspot-model knobs (num_hotspots, zipf_s, p_hotspot, p_stay) differ
/// between levels, so skew is the single moving axis.
TraceConfig SkewedTracePreset(SkewLevel level, size_t num_queries,
                              uint64_t seed);

/// Workload-characterization helpers for Figs 5 and 6.
struct BucketTouch {
  storage::BucketIndex bucket = 0;
  /// Number of queries whose workload includes this bucket.
  uint64_t queries_touching = 0;
  /// Total cross-match objects routed to this bucket.
  uint64_t workload_objects = 0;
};

/// Per-bucket touch statistics of a trace under a given partitioning,
/// sorted by descending workload_objects.
std::vector<BucketTouch> CharacterizeTrace(
    const std::vector<query::CrossMatchQuery>& trace,
    const storage::BucketMap& map);

/// Fraction of queries that touch at least one of the `k` most-reused
/// buckets (the Fig 5 "61%" statistic).
double TopKTouchFraction(const std::vector<query::CrossMatchQuery>& trace,
                         const storage::BucketMap& map, size_t k);

/// Smallest fraction of buckets that carries at least `mass_fraction` of
/// all workload objects (the Fig 6 "2% hold 50%" statistic).
double BucketFractionForMass(const std::vector<BucketTouch>& touches,
                             size_t num_buckets, double mass_fraction);

}  // namespace liferaft::workload

#endif  // LIFERAFT_WORKLOAD_TRACE_GEN_H_
