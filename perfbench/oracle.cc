#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

using liferaft::query::CrossMatchQuery;
using liferaft::query::Predicate;
using liferaft::query::QueryObject;
using liferaft::storage::CatalogObject;

constexpr double kPi = 3.14159265358979323846;
constexpr double kRad = kPi / 180.0;

bool Accepts(const Predicate& p, float mag, float color) {
  return mag >= p.min_mag && mag <= p.max_mag && color >= p.min_color &&
         color <= p.max_color;
}

// Adds one catalog point's verdict for one query object.
void Classify(const QueryObject& qo, const Predicate& pred, double ra,
              double dec, float mag, float color, MatchBounds* out) {
  const double sep = SeparationArcsec(qo.ra_deg, qo.dec_deg, ra, dec);
  if (sep > qo.radius_arcsec + kAmbiguousArcsec) return;
  if (!Accepts(pred, mag, color)) return;
  ++out->hi;
  if (sep < qo.radius_arcsec - kAmbiguousArcsec) ++out->lo;
}

}  // namespace

double SeparationArcsec(double ra1_deg, double dec1_deg, double ra2_deg,
                        double dec2_deg) {
  const double sd = std::sin((dec2_deg - dec1_deg) * kRad / 2.0);
  const double sr = std::sin((ra2_deg - ra1_deg) * kRad / 2.0);
  const double h = sd * sd + std::cos(dec1_deg * kRad) *
                                 std::cos(dec2_deg * kRad) * sr * sr;
  return 2.0 * std::asin(std::sqrt(std::min(1.0, h))) / kRad * 3600.0;
}

// Pairs within kAmbiguousArcsec beyond the radius must still be visited.
constexpr double kMarginDeg = 2.0 * kAmbiguousArcsec / 3600.0;

ZoneGrid::ZoneGrid(const std::vector<CatalogObject>& catalog,
                   double max_radius_arcsec)
    // Zones one search radius tall keep each search to about three zones.
    : zone_deg_(std::max(max_radius_arcsec / 3600.0 + kMarginDeg, 0.01)),
      zones_(static_cast<size_t>(std::ceil(180.0 / zone_deg_)) + 1) {
  for (const CatalogObject& o : catalog) {
    zones_[ZoneOf(o.dec_deg)].push_back(
        Point{o.ra_deg, o.dec_deg, o.mag, o.color});
  }
  for (auto& z : zones_) {
    std::sort(z.begin(), z.end(),
              [](const Point& a, const Point& b) { return a.ra < b.ra; });
  }
}

size_t ZoneGrid::ZoneOf(double dec) const {
  const double d = std::clamp(dec, -90.0, 90.0) + 90.0;
  return std::min(static_cast<size_t>(d / zone_deg_), zones_.size() - 1);
}

std::vector<MatchBounds> ZoneGrid::CrossMatch(
    const std::vector<CrossMatchQuery>& trace) const {
  std::vector<MatchBounds> out(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const CrossMatchQuery& q = trace[i];
    for (const QueryObject& qo : q.objects) {
      // Visit the zones the object's dec band touches, and within each the
      // ra window its circle can reach (the whole zone near a pole). A
      // circle of radius r centred at dec spans asin(sin r / cos dec) in
      // ra; the band's polar edge gives a looser, still safe bound.
      const double r_deg = qo.radius_arcsec / 3600.0 + kMarginDeg;
      const size_t z_lo = ZoneOf(qo.dec_deg - r_deg);
      const size_t z_hi = ZoneOf(qo.dec_deg + r_deg);
      const double edge = std::abs(qo.dec_deg) + r_deg;
      double half = 180.0;
      if (edge < 89.0) {
        const double s = std::sin(r_deg * kRad) / std::cos(edge * kRad);
        half = s < 1.0 ? std::asin(s) / kRad * (1.0 + 1e-9) + 1e-9 : 180.0;
      }
      auto visit = [&](const Point& p) {
        Classify(qo, q.predicate, p.ra, p.dec, p.mag, p.color, &out[i]);
      };
      for (size_t z = z_lo; z <= z_hi; ++z) {
        const std::vector<Point>& pts = zones_[z];
        if (half >= 180.0) {
          for (const Point& p : pts) visit(p);
          continue;
        }
        auto scan = [&](double lo, double hi) {
          auto it = std::lower_bound(
              pts.begin(), pts.end(), lo,
              [](const Point& p, double v) { return p.ra < v; });
          for (; it != pts.end() && it->ra <= hi; ++it) visit(*it);
        };
        const double lo = qo.ra_deg - half;
        const double hi = qo.ra_deg + half;
        scan(std::max(lo, 0.0), std::min(hi, 360.0));
        if (lo < 0.0) scan(lo + 360.0, 360.0);
        if (hi > 360.0) scan(0.0, hi - 360.0);
      }
    }
  }
  return out;
}

std::vector<MatchBounds> AllPairsCrossMatch(
    const std::vector<CatalogObject>& catalog,
    const std::vector<CrossMatchQuery>& trace) {
  std::vector<MatchBounds> out(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    for (const QueryObject& qo : trace[i].objects) {
      for (const CatalogObject& o : catalog) {
        Classify(qo, trace[i].predicate, o.ra_deg, o.dec_deg, o.mag, o.color,
                 &out[i]);
      }
    }
  }
  return out;
}

}  // namespace perfbench
