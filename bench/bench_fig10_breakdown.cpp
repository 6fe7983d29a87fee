// Fig. 10: per-iteration timing breakdown of the components on Frontier
// with 64 GCDs — the progress-report output of the paper's monitoring
// mechanism. Shows the benchmark is compute bound until the final trailing
// iterations, where communication wait dominates.
#include <vector>

#include "bench_util.h"
#include "trace/progress.h"

using namespace hplmxp;

int main() {
  bench::banner("Fig. 10",
                "Per-iteration breakdown, Frontier 64 GCDs (model)");

  ScaleSimConfig cfg = bench::frontierEvalConfig();
  cfg.pr = cfg.pc = 8;
  cfg.qr = 2;
  cfg.qc = 4;
  cfg.recordIterations = true;
  const ScaleSimResult r = simulateRun(cfg);

  Table t({"iter", "trailing", "getrf ms", "diag ms", "trsm ms", "cast ms",
           "bcast ms", "gemm ms", "iter ms", "bound"});
  const index_t nb = static_cast<index_t>(r.iterations.size());
  const index_t step = std::max<index_t>(1, nb / 16);
  for (index_t k = 0; k < nb; k += step) {
    const SimIteration& it = r.iterations[static_cast<std::size_t>(k)];
    t.addRow({Table::num((long long)it.k),
              Table::num((long long)(nb - it.k - 1)),
              Table::num(it.getrfSeconds * 1e3, 2),
              Table::num(it.diagBcastSeconds * 1e3, 2),
              Table::num(it.trsmSeconds * 1e3, 2),
              Table::num(it.castSeconds * 1e3, 2),
              Table::num(it.panelBcastSeconds * 1e3, 2),
              Table::num(it.gemmSeconds * 1e3, 2),
              Table::num(it.iterSeconds * 1e3, 2),
              it.commBound ? "comm" : "compute"});
  }
  t.addRow({Table::num((long long)(nb - 1)), "0",
            Table::num(r.iterations.back().getrfSeconds * 1e3, 2),
            Table::num(r.iterations.back().diagBcastSeconds * 1e3, 2),
            Table::num(r.iterations.back().trsmSeconds * 1e3, 2),
            Table::num(r.iterations.back().castSeconds * 1e3, 2),
            Table::num(r.iterations.back().panelBcastSeconds * 1e3, 2),
            Table::num(r.iterations.back().gemmSeconds * 1e3, 2),
            Table::num(r.iterations.back().iterSeconds * 1e3, 2),
            r.iterations.back().commBound ? "comm" : "compute"});
  t.print();

  std::printf("\ncompute-bound fraction: %.1f%% of iterations "
              "(paper: \"computational bounded until the final trailing "
              "iterations\")\n",
              (1.0 - r.commBoundFraction) * 100.0);

  // Early-termination demonstration: feed the breakdown into the monitor
  // with the model as the reference, then inject a fabric stall.
  bench::banner("Sec. VI-B", "Progress monitor / early termination demo");
  ProgressMonitor mon(ProgressPolicy{.slowdownFactor = 2.0, .strikes = 3},
                      [&](index_t k) {
                        return r.iterations[static_cast<std::size_t>(k)]
                            .iterSeconds;
                      });
  index_t terminatedAt = -1;
  for (index_t k = 0; k < nb; ++k) {
    double observed = r.iterations[static_cast<std::size_t>(k)].iterSeconds;
    if (k >= nb / 2) {
      observed *= 10.0;  // injected fabric hang at mid-run
    }
    if (mon.observe(k, observed) == ProgressVerdict::kTerminate) {
      terminatedAt = k;
      break;
    }
  }
  std::printf("injected a 10x slowdown at iteration %lld; monitor "
              "terminated the run at iteration %lld (3 strikes), saving "
              "%.0f%% of the remaining node-hours.\n",
              (long long)(nb / 2), (long long)terminatedAt,
              (1.0 - (double)terminatedAt / (double)nb) * 100.0);
  return 0;
}
