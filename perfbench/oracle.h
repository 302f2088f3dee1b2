// Independent cross-match oracle: counts each query's matches by brute force
// over a plain declination-zone grid, with its own angular-separation
// formula (haversine on ra/dec) and the query's attribute predicate. It uses
// none of the library's HTM covers, B+tree or join kernels, so agreement
// with the engine's per-query match counts is evidence, not tautology.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "storage/object.h"

namespace perfbench {

/// Pairs whose separation lies within this many arcsec of the match radius
/// are ambiguous: two correct formulas may round them to opposite sides.
inline constexpr double kAmbiguousArcsec = 1e-6;

/// Match-count bounds for one query: `lo` counts pairs separated by less
/// than radius - kAmbiguousArcsec, `hi` those within radius +
/// kAmbiguousArcsec. A correct engine reports a count in [lo, hi].
struct MatchBounds {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Haversine great-circle separation in arcseconds.
double SeparationArcsec(double ra1_deg, double dec1_deg, double ra2_deg,
                        double dec2_deg);

/// The catalog bucketed into declination zones, each sorted by ra.
class ZoneGrid {
 public:
  /// `max_radius_arcsec` bounds the match radius of every query to be
  /// counted; it sets the zone height.
  ZoneGrid(const std::vector<liferaft::storage::CatalogObject>& catalog,
           double max_radius_arcsec);

  /// Per-query match bounds, in trace order. Thread-safe.
  std::vector<MatchBounds> CrossMatch(
      const std::vector<liferaft::query::CrossMatchQuery>& trace) const;

 private:
  struct Point {
    double ra;
    double dec;
    float mag;
    float color;
  };
  size_t ZoneOf(double dec) const;

  double zone_deg_;
  std::vector<std::vector<Point>> zones_;
};

/// The same bounds from a plain all-pairs loop (reference for the grid).
std::vector<MatchBounds> AllPairsCrossMatch(
    const std::vector<liferaft::storage::CatalogObject>& catalog,
    const std::vector<liferaft::query::CrossMatchQuery>& trace);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
