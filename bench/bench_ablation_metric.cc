// Ablation: the aged-metric unit mismatch (docs/ARCHITECTURE.md,
// "Modeling assumptions").
//
// The paper's Eq. 2 adds U_t (objects/ms, magnitude << 10) to A (ms,
// magnitude >> 10^4) without normalization. Taken literally, any alpha > 0
// is age-dominated almost immediately, so alpha = 0.25 / 0.5 / 0.75 behave
// identically to alpha = 1 — the graded trade-off curves of Figs 4/7/8
// cannot exist under the raw formula. This bench demonstrates that, and
// that the normalized blend (our default) restores the gradation.

#include "bench/bench_common.h"

namespace liferaft::bench {
namespace {

void Run() {
  Banner("Ablation: raw Eq. 2 blend vs normalized U_a blend");
  Standard s = BuildStandard();

  Rng rng(9001);
  auto arrivals = *sim::PoissonArrivals(s.trace.size(), 0.5, &rng);

  for (auto norm : {sched::MetricNormalization::kNormalized,
                    sched::MetricNormalization::kRawPaper}) {
    const char* label =
        norm == sched::MetricNormalization::kRawPaper ? "raw Eq. 2"
                                                      : "normalized";
    Table table({"alpha", "throughput_qps", "avg_response_s",
                 "cache_hit_pct"});
    for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      auto m = RunShared(s.catalog.get(),
                         MakeLifeRaft(*s.catalog, alpha, norm), s.trace,
                         arrivals);
      table.AddRow({Table::Num(alpha, 2), Table::Num(m.throughput_qps, 3),
                    Table::Num(m.avg_response_ms / 1000.0, 0),
                    Table::Num(m.cache.HitRate() * 100.0, 1)});
    }
    std::printf("%s blend:\n%s\n", label, table.ToText().c_str());
  }
  std::printf(
      "expected: under the raw blend every alpha > 0 row is identical\n"
      "(age dominates); the normalized blend grades smoothly.\n");
}

}  // namespace
}  // namespace liferaft::bench

int main() {
  liferaft::bench::Run();
  return 0;
}
