// lu_compute: repeated distributed HPL-AI solves (N=4096, B=128) on a 2x2
// simmpi grid. Untraced runs time core's public driver (runHplai); traced runs
// also drive the same steps by hand (gen fill, DistLU::factor, DistIR
// refine) so each layer call can be timed and the BlasShim counted.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "blas/gemm.h"
#include "blas/getrf.h"
#include "blas/trsm.h"
#include "core/dist_context.h"
#include "core/hplai.h"
#include "core/ir_dist.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "perfmodel/autotune.h"
#include "perfmodel/kernel_model.h"
#include "simmpi/runtime.h"
#include "util/buffer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using hplmxp::HplaiConfig;
using hplmxp::HplaiResult;
using hplmxp::index_t;

/// The compute-bound regime: GEMM is about half of rank-0 factor time.
HplaiConfig luConfig(std::uint64_t seed) {
  HplaiConfig cfg;
  cfg.n = 4096;
  cfg.b = 128;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.panelBcast = hplmxp::simmpi::BcastStrategy::kRing2M;
  cfg.lookahead = true;
  cfg.scheduler = HplaiConfig::Scheduler::kBulk;
  cfg.seed = deriveSeed(seed, 0x4c55);
  return cfg;
}

bool hplaiValid(const HplaiResult& r) {
  return r.converged && !r.aborted && r.scaledResidual() < 1.0;
}

/// Everything one hand-driven (traced) solve reports.
struct TracedSolve {
  HplaiResult result;
  std::vector<hplmxp::IterationTrace> steps;  // rank 0
  hplmxp::ShimCallCounts counts;              // rank 0
  double fillSeconds = 0.0;                   // slowest rank
  std::vector<double> waitTotals;             // per rank, summed over steps
  std::vector<double> x;
};

/// One solve with the same steps as runHplaiOnComm, timed per layer call.
TracedSolve tracedSolve(HplaiConfig cfg, Spans& spans, std::uint64_t group,
                        std::uint64_t solveSpan) {
  cfg.collectTrace = true;
  TracedSolve out;
  out.waitTotals.assign(static_cast<std::size_t>(cfg.worldSize()), 0.0);
  std::vector<double> fill(out.waitTotals.size(), 0.0);
  const std::uint64_t factorSpan = spans.reserve();
  double stepStartUs = 0.0;
  hplmxp::simmpi::run(cfg.worldSize(), [&](hplmxp::simmpi::Comm& world) {
    const index_t rank = world.rank();
    const int tid = static_cast<int>(rank);
    hplmxp::DistContext ctx(world, cfg);
    const hplmxp::ProblemGenerator gen(cfg.seed, cfg.n);
    const index_t b = cfg.b;
    const index_t lda = ctx.localRows();
    hplmxp::Buffer<float> localA(ctx.localRows() * ctx.localCols());

    const double fill0 = Spans::nowUs();
    const hplmxp::BlockCyclic& layout = ctx.layout();
    for (index_t lj = 0; lj < ctx.localCols() / b; ++lj) {
      const index_t gj = layout.globalBlockCol(ctx.myCol(), lj);
      for (index_t li = 0; li < ctx.localRows() / b; ++li) {
        const index_t gi = layout.globalBlockRow(ctx.myRow(), li);
        gen.fillTile<float>(gi * b, gj * b, b, b,
                            localA.data() + li * b + lj * b * lda, lda);
      }
    }
    const double fill1 = Spans::nowUs();
    fill[static_cast<std::size_t>(rank)] = (fill1 - fill0) * 1e-6;
    spans.add({"gen.fill", "gen", fill0, fill1, 0, group, solveSpan, tid, ""});

    hplmxp::BlasShim shim(cfg.vendor);
    hplmxp::DistLU lu(ctx, cfg, shim);
    lu.setRankProgressCallback(
        [&](index_t k, const std::vector<double>& waits) {
          for (std::size_t r = 0; r < waits.size(); ++r) {
            out.waitTotals[r] += waits[r];
          }
          const double now = Spans::nowUs();
          spans.add({"core.step", "core", stepStartUs, now, 0, group,
                     factorSpan, 0, "\"k\": " + std::to_string(k)});
          stepStartUs = now;
          return false;
        });
    world.barrier();
    const double factor0 = Spans::nowUs();
    if (rank == 0) {
      stepStartUs = factor0;  // read by the rank-0 progress callback
    }
    hplmxp::Timer timer;
    std::vector<hplmxp::IterationTrace> steps =
        lu.factor(localA.data(), lda);
    world.barrier();
    const double factorSeconds = timer.seconds();
    const double factor1 = Spans::nowUs();

    std::vector<double> x(static_cast<std::size_t>(cfg.n));
    for (index_t i = 0; i < cfg.n; ++i) {
      x[static_cast<std::size_t>(i)] = gen.rhs(i) / gen.entry(i, i);
    }
    timer.reset();
    hplmxp::DistIR ir(ctx, cfg, gen);
    const hplmxp::IrOutcome outcome = ir.refine(localA.data(), lda, x);
    world.barrier();
    const double irSeconds = timer.seconds();
    const double ir1 = Spans::nowUs();
    if (rank != 0) {
      return;
    }
    spans.add({"core.factor", "core", factor0, factor1, factorSpan, group,
               solveSpan, tid, ""});
    spans.add({"core.ir", "core", factor1, ir1, 0, group, solveSpan, tid,
               "\"iterations\": " + std::to_string(outcome.iterations)});
    HplaiResult& r = out.result;
    r.n = cfg.n;
    r.b = cfg.b;
    r.ranks = world.size();
    r.factorSeconds = factorSeconds;
    r.irSeconds = irSeconds;
    r.totalSeconds = factorSeconds + irSeconds;
    r.irIterations = outcome.iterations;
    r.converged = outcome.converged;
    r.residualInf = outcome.residualInf;
    r.threshold = outcome.threshold;
    out.steps = std::move(steps);
    out.counts = shim.callCounts();
    out.x = std::move(x);
  });
  out.fillSeconds = *std::max_element(fill.begin(), fill.end());
  return out;
}

// --- rank-0 geometry, for computed flops, bytes and messages --------------

/// Elements of the trailing extent after block step k that grid row/col
/// `coord` of `procs` owns (block-cyclic over nb blocks).
index_t trailingLocal(index_t nb, index_t b, index_t k, index_t procs,
                      index_t coord) {
  index_t blocks = 0;
  for (index_t i = k + 1; i < nb; ++i) {
    blocks += (i % procs == coord) ? 1 : 0;
  }
  return blocks * b;
}

/// Point-to-point messages one broadcast of `bytes` over `p` ranks sends.
double bcastMessages(hplmxp::simmpi::BcastStrategy s, index_t p,
                     double bytes) {
  using hplmxp::simmpi::BcastStrategy;
  if (p <= 1) {
    return 0.0;
  }
  const double segs = std::max(
      1.0, std::ceil(bytes / static_cast<double>(
                                 hplmxp::simmpi::kDefaultSegmentBytes)));
  switch (s) {
    case BcastStrategy::kBcast:
    case BcastStrategy::kIbcast:
      return static_cast<double>(p - 1);
    case BcastStrategy::kRing1:
      return static_cast<double>(p - 1) * segs;
    case BcastStrategy::kRing1M:
    case BcastStrategy::kRing2M:
      return 1.0 + static_cast<double>(p - 2) * segs;
  }
  return 0.0;
}

/// Rank-0 work of one factorization, computed from the geometry.
struct Rank0Work {
  double getrfPredS = 0.0, trsmPredS = 0.0, gemmPredS = 0.0;
  double gemmFlops = 0.0;  // regions the traced gemmSeconds covers
  double panelBytes = 0.0;  // delivered to receivers, whole grid
  double messages = 0.0;    // whole grid
  index_t trailingRows0 = 0, trailingCols0 = 0;  // step-0 local shape
};

Rank0Work rank0Work(const HplaiConfig& cfg,
                    const hplmxp::KernelModel& model) {
  using hplmxp::blas::Side;
  Rank0Work w;
  const index_t b = cfg.b;
  const index_t nb = cfg.n / b;
  const index_t lda = cfg.n / cfg.pr;
  for (index_t k = 0; k < nb; ++k) {
    const index_t h = trailingLocal(nb, b, k, cfg.pr, 0);
    const index_t wd = trailingLocal(nb, b, k, cfg.pc, 0);
    if (k == 0) {
      w.trailingRows0 = h;
      w.trailingCols0 = wd;
    }
    const bool ownRow = k % cfg.pr == 0;
    const bool ownCol = k % cfg.pc == 0;
    if (ownRow && ownCol) {
      w.getrfPredS += hplmxp::blas::getrfFlops(b) / model.getrfRate(b);
    }
    if (ownRow && wd > 0) {
      w.trsmPredS += hplmxp::blas::trsmFlops(Side::kLeft, b, wd) /
                     model.trsmRate(b, wd);
    }
    if (ownCol && h > 0) {
      w.trsmPredS += hplmxp::blas::trsmFlops(Side::kRight, h, b) /
                     model.trsmRate(b, h);
    }
    // With look-ahead the strips of block row/col k+1 run untimed before
    // the next panel; the traced GEMM seconds cover the bulk only.
    index_t gh = h, gw = wd;
    if (cfg.lookahead && k + 1 < nb) {
      gh -= ((k + 1) % cfg.pr == 0 && h > 0) ? b : 0;
      gw -= ((k + 1) % cfg.pc == 0 && wd > 0) ? b : 0;
    }
    if (gh > 0 && gw > 0) {
      const double f = hplmxp::blas::gemmFlops(gh, gw, b);
      w.gemmFlops += f;
      w.gemmPredS += f / model.gemmRate(static_cast<double>(gh),
                                        static_cast<double>(gw),
                                        static_cast<double>(b), lda);
    }
    // Whole-grid traffic: the diagonal block along its row and column,
    // then U down every process column and L across every process row.
    const double diagBytes = static_cast<double>(b * b) * sizeof(float);
    w.panelBytes += diagBytes * static_cast<double>(cfg.pc - 1 + cfg.pr - 1);
    w.messages += static_cast<double>(cfg.pc - 1 + cfg.pr - 1);
    for (index_t c = 0; c < cfg.pc; ++c) {
      const double bytes =
          static_cast<double>(trailingLocal(nb, b, k, cfg.pc, c) * b) * 2.0;
      if (bytes > 0.0) {
        w.panelBytes += bytes * static_cast<double>(cfg.pr - 1);
        w.messages += bcastMessages(cfg.panelBcast, cfg.pr, bytes);
      }
    }
    for (index_t r = 0; r < cfg.pr; ++r) {
      const double bytes =
          static_cast<double>(trailingLocal(nb, b, k, cfg.pr, r) * b) * 2.0;
      if (bytes > 0.0) {
        w.panelBytes += bytes * static_cast<double>(cfg.pc - 1);
        w.messages += bcastMessages(cfg.panelBcast, cfg.pc, bytes);
      }
    }
  }
  return w;
}

/// BlasShim::gemmEx alone at rank 0's step-0 trailing shape (GF/s).
double gemmProbeGflops(const HplaiConfig& cfg, index_t m, index_t n) {
  const index_t k = cfg.b;
  const index_t ldc = cfg.n / cfg.pr;
  std::vector<hplmxp::half16> l(static_cast<std::size_t>(m * k),
                                hplmxp::half16(0.25f));
  std::vector<hplmxp::half16> u(static_cast<std::size_t>(n * k),
                                hplmxp::half16(0.5f));
  std::vector<float> c(static_cast<std::size_t>(ldc * n), 1.0f);
  hplmxp::BlasShim shim(cfg.vendor);
  std::vector<double> rates;
  for (int rep = 0; rep < 6; ++rep) {
    hplmxp::Timer t;
    shim.gemmEx(hplmxp::blas::Trans::kNoTrans, hplmxp::blas::Trans::kTrans, m,
                n, k, -1.0f, l.data(), m, u.data(), n, 1.0f, c.data(), ldc);
    const double s = t.seconds();
    if (rep > 0) {  // first call warms packing arenas
      rates.push_back(hplmxp::blas::gemmFlops(m, n, k) / s * 1e-9);
    }
  }
  return median(rates);
}

}  // namespace

void runLu(const Options& opts, Spans& spans, RunResult& out) {
  HplaiConfig cfg = luConfig(opts.seed);
  hplmxp::ThreadPool::global();  // pool start belongs to set-up
  // Block-step latencies from core's progress hook (the per-iteration
  // progress output of a long run); rank 0 calls it once per step. With
  // about 30 solves per run, a per-solve p99 would be the slowest solve.
  std::vector<double> stepS;
  bool recordSteps = false;
  cfg.progressCallback = [&](index_t, double seconds) {
    if (recordSteps) {
      stepS.push_back(seconds);
    }
    return false;
  };

  // Set-up: matrix generation plus a warm-up solve, repeated; the first
  // solve in a process runs markedly slower than later ones.
  std::vector<double> reference;
  const double preSetup = sinceStart();
  const std::vector<double> rounds = setupRounds([&] {
    std::vector<double> x;
    const HplaiResult r = hplmxp::runHplai(cfg, &x);
    ++out.attempted;
    if (!hplaiValid(r)) {
      ++out.failed;
    }
    out.check(hplaiValid(r), "warm-up solve is not HPL-AI-valid");
    if (reference.empty()) {
      reference = std::move(x);
    } else {
      out.check(x == reference, "x differs between solves of one seed");
    }
  });
  const double setupSeconds = preSetup + median(rounds);

  // Traced runs calibrate the kernel model during set-up.
  hplmxp::KernelModel model(hplmxp::MachineKind::kFrontier);
  double probeGflops = 0.0;
  Rank0Work work;
  if (opts.trace) {
    const double t0 = Spans::nowUs();
    model.calibrate(hplmxp::measureKernelCurves({16, 32, 64, 128, 256, 512}));
    spans.add({"perfmodel.calibrate", "perfmodel", t0, Spans::nowUs(), 0, 0,
               0, 0, ""});
    work = rank0Work(cfg, model);
    const double p0 = Spans::nowUs();
    probeGflops = gemmProbeGflops(cfg, work.trailingRows0, work.trailingCols0);
    spans.add({"blas.gemm_probe", "blas", p0, Spans::nowUs(), 0, 0, 0, 0,
               ""});
  }

  // Measurement: untraced runs time runHplai only; traced runs alternate
  // untraced and traced solves so the tracing overhead is measured too.
  std::vector<double> gflops, totalS, tracedTotalS;
  std::vector<TracedSolve> traced;
  std::uint64_t valid = 0;
  const double measure0 = sinceStart();
  // At least one solve of each kind, however short the run.
  const std::uint64_t minSolves = opts.trace ? 2 : 1;
  for (std::uint64_t i = 0;
       i < minSolves || sinceStart() - measure0 < opts.seconds; ++i) {
    const bool tracedTurn = opts.trace && i % 2 == 1;
    recordSteps = !tracedTurn;
    HplaiResult r;
    std::vector<double> x;
    if (tracedTurn) {
      const std::uint64_t group = i + 1;
      const std::uint64_t solveSpan = spans.reserve();
      const double t0 = Spans::nowUs();
      TracedSolve ts = tracedSolve(cfg, spans, group, solveSpan);
      spans.add({"solve", "lu", t0, Spans::nowUs(), solveSpan, group, 0, 0,
                 ""});
      r = ts.result;
      x = ts.x;
      tracedTotalS.push_back(r.totalSeconds);
      traced.push_back(std::move(ts));
    } else {
      r = hplmxp::runHplai(cfg, &x);
      gflops.push_back(r.gflopsTotal());
      totalS.push_back(r.totalSeconds);
    }
    ++out.attempted;
    if (hplaiValid(r)) {
      ++valid;
    } else {
      ++out.failed;
    }
    out.check(hplaiValid(r), "solve is not HPL-AI-valid");
    out.check(x == reference, "x differs between solves of one seed");
  }
  const double measureSeconds = sinceStart() - measure0;

  if (!opts.trace) {
    out.add("hplai_gflops", median(gflops), "GF/s");
    out.add("req_p50_ms", median(stepS) * 1e3, "ms");
    out.add("goodput_rps", static_cast<double>(valid) / measureSeconds,
            "req/s");
    out.add("setup_s", setupSeconds, "s");
    return;
  }

  std::vector<double> factorS, getrfS, trsmS, castS, bcastS, gemmS, waitMax,
      waitMin, fillS, irS, irIters, gemmCalls, trsmCalls, getrfCalls;
  for (const TracedSolve& ts : traced) {
    hplmxp::IterationTrace sum;
    for (const hplmxp::IterationTrace& it : ts.steps) {
      sum.diagSeconds += it.diagSeconds;
      sum.trsmSeconds += it.trsmSeconds;
      sum.castSeconds += it.castSeconds;
      sum.bcastSeconds += it.bcastSeconds;
      sum.gemmSeconds += it.gemmSeconds;
    }
    factorS.push_back(ts.result.factorSeconds);
    getrfS.push_back(sum.diagSeconds);
    trsmS.push_back(sum.trsmSeconds);
    castS.push_back(sum.castSeconds);
    bcastS.push_back(sum.bcastSeconds);
    gemmS.push_back(sum.gemmSeconds);
    waitMax.push_back(
        *std::max_element(ts.waitTotals.begin(), ts.waitTotals.end()));
    waitMin.push_back(
        *std::min_element(ts.waitTotals.begin(), ts.waitTotals.end()));
    fillS.push_back(ts.fillSeconds);
    irS.push_back(ts.result.irSeconds);
    irIters.push_back(static_cast<double>(ts.result.irIterations));
    gemmCalls.push_back(static_cast<double>(ts.counts.gemm));
    trsmCalls.push_back(static_cast<double>(ts.counts.trsm));
    getrfCalls.push_back(static_cast<double>(ts.counts.getrf));
  }
  const double gemmSec = median(gemmS);
  out.add("blas.gemm_calls", median(gemmCalls), "count");
  out.add("blas.trsm_calls", median(trsmCalls), "count");
  out.add("blas.getrf_calls", median(getrfCalls), "count");
  out.add("blas.gemm_gflops", work.gemmFlops / gemmSec * 1e-9, "GF/s");
  out.add("blas.gemm_probe_gflops", probeGflops, "GF/s");
  out.add("blas.gemm_frac", gemmSec / median(factorS), "ratio");
  out.add("core.factor_s", median(factorS), "s");
  out.add("core.phase.getrf_s", median(getrfS), "s");
  out.add("core.phase.trsm_s", median(trsmS), "s");
  out.add("core.phase.cast_s", median(castS), "s");
  out.add("core.phase.bcast_s", median(bcastS), "s");
  out.add("core.phase.gemm_s", gemmSec, "s");
  out.add("core.steps", static_cast<double>(traced.front().steps.size()),
          "count");
  out.add("core.step_p99_ms", pct(stepS, 99.0) * 1e3, "ms");
  out.add("simmpi.wait_s.max", median(waitMax), "s");
  out.add("simmpi.wait_s.min", median(waitMin), "s");
  out.add("simmpi.panel_mib", work.panelBytes / (1024.0 * 1024.0),
          "MiB.computed");
  out.add("simmpi.msgs", work.messages, "count.computed");
  out.add("gen.fill_s", median(fillS), "s");
  out.add("core.ir_s", median(irS), "s");
  out.add("core.ir_iters", median(irIters), "count");
  const struct {
    const char* name;
    double measured;
    double predicted;
  } ratios[] = {
      {"perfmodel.getrf_ratio", median(getrfS), work.getrfPredS},
      {"perfmodel.trsm_ratio", median(trsmS), work.trsmPredS},
      {"perfmodel.gemm_ratio", gemmSec, work.gemmPredS},
  };
  for (const auto& r : ratios) {
    const double ratio = r.measured / r.predicted;
    out.add(r.name, ratio, "ratio");
    if (ratio < 1.0 / 1.3 || ratio > 1.3) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "%s = %.3f: measured phase is outside +-30%% of the "
                    "calibrated KernelModel prediction",
                    r.name, ratio);
      out.finding(line);
    }
  }
  out.add("trace.overhead_frac", median(tracedTotalS) / median(totalS) - 1.0,
          "ratio");
  out.finding("first set-up round (generation + first solve in the process) "
              "took " + std::to_string(rounds.front()) + " s; the median of "
              "the later ones " +
              std::to_string(median({rounds.begin() + 1, rounds.end()})) +
              " s");
}

}  // namespace perfbench
