// Checks the zone-grid oracle against a naive all-pairs loop on a small
// random set that includes the poles, the ra wrap and pairs placed exactly
// on the match radius. Exits non-zero on any disagreement.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "oracle.h"

using liferaft::SkyPoint;
using liferaft::query::CrossMatchQuery;
using liferaft::storage::CatalogObject;

int main() {
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  auto random_point = [&] {
    const double ra = 360.0 * u01(rng);
    const double dec = std::asin(2.0 * u01(rng) - 1.0) * 180.0 / M_PI;
    return SkyPoint{ra, dec};
  };

  std::vector<CatalogObject> catalog;
  for (uint64_t i = 0; i < 4000; ++i) {
    SkyPoint p = random_point();
    if (i % 10 == 0) p.dec_deg = (i % 20 == 0 ? 1 : -1) * (89.0 + u01(rng));
    if (i % 10 == 1) p.ra_deg = u01(rng) < 0.5 ? u01(rng) : 360.0 - u01(rng);
    catalog.push_back(liferaft::storage::MakeObject(
        i, p, static_cast<float>(14.0 + 10.0 * u01(rng)),
        static_cast<float>(u01(rng))));
  }

  std::vector<CrossMatchQuery> trace;
  int failures = 0;
  for (uint64_t q = 0; q < 60; ++q) {
    CrossMatchQuery query;
    query.id = q + 1;
    const double radius_arcsec = 3600.0 * (0.05 + 4.0 * u01(rng));
    for (uint64_t j = 0; j < 25; ++j) {
      SkyPoint p = random_point();
      if (j % 5 == 0) p.dec_deg = (j % 10 == 0 ? 1 : -1) * (88.0 + 2.0 * u01(rng));
      if (j % 5 == 1) p.ra_deg = u01(rng) < 0.5 ? 0.01 : 359.99;
      // Pin one object at the exact radius from a catalog point, so the
      // ambiguity band is exercised.
      if (j % 5 == 2) {
        const CatalogObject& o = catalog[(q * 25 + j) % catalog.size()];
        if (std::abs(o.dec_deg) < 80.0) {
          p = SkyPoint{o.ra_deg, o.dec_deg + radius_arcsec / 3600.0};
        }
      }
      query.objects.push_back(
          liferaft::query::MakeQueryObject(j, p, radius_arcsec));
    }
    if (q % 3 == 0) query.predicate.max_mag = 20.0f;
    if (q % 4 == 0) query.predicate.min_color = 0.25f;
    trace.push_back(std::move(query));
  }

  double max_radius = 0.0;
  for (const CrossMatchQuery& q : trace) {
    for (const auto& o : q.objects) max_radius = std::max(max_radius, o.radius_arcsec);
  }
  const auto grid = perfbench::ZoneGrid(catalog, max_radius).CrossMatch(trace);
  const auto naive = perfbench::AllPairsCrossMatch(catalog, trace);
  uint64_t total = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    total += naive[i].hi;
    if (grid[i].lo != naive[i].lo || grid[i].hi != naive[i].hi) {
      std::fprintf(stderr, "query %zu: grid [%llu,%llu] != all-pairs [%llu,%llu]\n",
                   i, static_cast<unsigned long long>(grid[i].lo),
                   static_cast<unsigned long long>(grid[i].hi),
                   static_cast<unsigned long long>(naive[i].lo),
                   static_cast<unsigned long long>(naive[i].hi));
      ++failures;
    }
  }
  // A pure declination offset of one degree is 3600 arcsec.
  const double sep = perfbench::SeparationArcsec(10.0, 20.0, 10.0, 21.0);
  if (std::abs(sep - 3600.0) > 1e-6) {
    std::fprintf(stderr, "separation of 1 deg in dec is %.12f arcsec\n", sep);
    ++failures;
  }
  if (total == 0) {
    std::fprintf(stderr, "the test set produced no matches\n");
    ++failures;
  }
  std::printf("%s: %zu queries, %llu matches\n", failures ? "FAIL" : "PASS",
              trace.size(), static_cast<unsigned long long>(total));
  return failures ? 1 : 0;
}
