// Schedule equivalence of the distributed LU: every (broadcast strategy,
// look-ahead) configuration must produce the same bits as the plain
// reference schedule (root-linear Bcast, no look-ahead). The mathematical
// argument: every trailing-matrix element's update at step k is one
// fixed-order dot product over the inner dimension B whether it lands in
// a look-ahead strip or in the bulk, TRSM and CAST run on the same panel
// bytes, and a broadcast strategy only changes how those bytes travel —
// so no variant may change a single bit of the factors. These tests
// enforce that claim on every rank's factored local matrix across grids,
// shapes, randomized property-based configs, fault injection, and the
// degenerate geometries where a pipelined schedule would hang if its
// step bookkeeping were wrong.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/dist_context.h"
#include "core/hplai.h"
#include "core/ir_dist.h"
#include "core/lu_dist.h"
#include "device/shim.h"
#include "gen/matgen.h"
#include "simmpi/faults.h"
#include "simmpi/runtime.h"
#include "util/buffer.h"

namespace hplmxp {
namespace {

HplaiConfig baseConfig(index_t n, index_t b, index_t pr, index_t pc) {
  HplaiConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.pr = pr;
  cfg.pc = pc;
  cfg.seed = 2022;
  return cfg;
}

/// Factors under cfg on every rank and returns each rank's factored local
/// matrix (the complete distributed factor, not just rank 0's shard).
std::vector<std::vector<float>> factorAllRanks(
    const HplaiConfig& cfg,
    const simmpi::RunOptions& opts = simmpi::RunOptions{}) {
  std::vector<std::vector<float>> locals(
      static_cast<std::size_t>(cfg.worldSize()));
  simmpi::run(cfg.worldSize(), [&](simmpi::Comm& world) {
    DistContext ctx(world, cfg);
    const ProblemGenerator gen(cfg.seed, cfg.n);
    const index_t b = cfg.b;
    const index_t lda = ctx.localRows();
    Buffer<float> local(ctx.localRows() * ctx.localCols());
    const BlockCyclic& layout = ctx.layout();
    for (index_t lj = 0; lj < ctx.localCols() / b; ++lj) {
      for (index_t li = 0; li < ctx.localRows() / b; ++li) {
        gen.fillTile<float>(layout.globalBlockRow(ctx.myRow(), li) * b,
                            layout.globalBlockCol(ctx.myCol(), lj) * b, b, b,
                            local.data() + li * b + lj * b * lda, lda);
      }
    }
    BlasShim shim(cfg.vendor);
    DistLU lu(ctx, cfg, shim);
    lu.factor(local.data(), lda);
    locals[static_cast<std::size_t>(world.rank())].assign(
        local.data(), local.data() + local.size());
  }, opts);
  return locals;
}

/// The reference schedule for `cfg`: same problem, root-linear Bcast,
/// no look-ahead.
HplaiConfig referenceOf(HplaiConfig cfg) {
  cfg.panelBcast = simmpi::BcastStrategy::kBcast;
  cfg.lookahead = false;
  return cfg;
}

/// Whole-value float comparison would call -0.0f == 0.0f equal; the
/// promise is identical bits, so compare the representation.
bool sameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

void expectBitwiseEqual(const std::vector<std::vector<float>>& reference,
                        const std::vector<std::vector<float>>& variant,
                        const std::string& label) {
  ASSERT_EQ(reference.size(), variant.size()) << label;
  for (std::size_t r = 0; r < reference.size(); ++r) {
    ASSERT_EQ(reference[r].size(), variant[r].size())
        << label << " rank " << r;
    for (std::size_t i = 0; i < reference[r].size(); ++i) {
      ASSERT_TRUE(sameBits(reference[r][i], variant[r][i]))
          << label << " rank " << r << " element " << i << ": "
          << reference[r][i] << " vs " << variant[r][i]
          << " (bitwise mismatch)";
    }
  }
}

/// The most pipelined variant of `cfg`: Ring2M panels with look-ahead.
HplaiConfig pipelined(HplaiConfig cfg) {
  cfg.panelBcast = simmpi::BcastStrategy::kRing2M;
  cfg.lookahead = true;
  return cfg;
}

std::string describe(const HplaiConfig& cfg) {
  return "n=" + std::to_string(cfg.n) + " b=" + std::to_string(cfg.b) +
         " grid=" + std::to_string(cfg.pr) + "x" + std::to_string(cfg.pc) +
         " bcast=" + simmpi::toString(cfg.panelBcast) +
         " lookahead=" + (cfg.lookahead ? "on" : "off");
}

/// Factors `cfg` and its reference schedule and demands identical bits on
/// every rank.
void expectMatchesReference(const HplaiConfig& cfg,
                            const std::string& label) {
  const auto reference = factorAllRanks(referenceOf(cfg));
  const auto variant = factorAllRanks(cfg);
  expectBitwiseEqual(reference, variant, label + " " + describe(cfg));
}

TEST(SchedEquiv, BitwiseAcrossGridsShapesAndBcasts) {
  struct Case {
    index_t n, b, pr, pc;
    simmpi::BcastStrategy strategy;
    bool lookahead;
  };
  const Case cases[] = {
      // The reference against itself: two runs must agree bit for bit.
      {96, 16, 1, 1, simmpi::BcastStrategy::kBcast, false},
      {96, 16, 2, 2, simmpi::BcastStrategy::kBcast, true},
      {128, 16, 2, 2, simmpi::BcastStrategy::kRing2M, true},
      {96, 16, 3, 2, simmpi::BcastStrategy::kRing1, false},
      {144, 16, 2, 3, simmpi::BcastStrategy::kRing1M, true},
      {128, 32, 2, 2, simmpi::BcastStrategy::kIbcast, false},
      {192, 32, 3, 3, simmpi::BcastStrategy::kRing2M, true},
  };
  for (const Case& c : cases) {
    HplaiConfig cfg = baseConfig(c.n, c.b, c.pr, c.pc);
    cfg.panelBcast = c.strategy;
    cfg.lookahead = c.lookahead;
    expectMatchesReference(cfg, "grid-table");
  }
}

TEST(SchedEquiv, PropertyRandomizedConfigs) {
  // ~50 randomized (seed, N, B, Pr x Pc, bcast, lookahead) draws. Every
  // one must produce bitwise-identical factors on every rank. Problem
  // sizes follow the paper's adjustment rule so all ranks own full blocks.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> gridDim(1, 3);
  std::uniform_int_distribution<int> bPick(0, 2);
  std::uniform_int_distribution<int> blocksPick(2, 5);
  std::uniform_int_distribution<int> bcastPick(0, 4);
  std::uniform_int_distribution<std::uint64_t> seedPick(1, 1u << 20);
  const simmpi::BcastStrategy strategies[] = {
      simmpi::BcastStrategy::kBcast, simmpi::BcastStrategy::kIbcast,
      simmpi::BcastStrategy::kRing1, simmpi::BcastStrategy::kRing1M,
      simmpi::BcastStrategy::kRing2M};
  const index_t blockSizes[] = {8, 16, 32};

  int executed = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const index_t pr = gridDim(rng);
    const index_t pc = gridDim(rng);
    const index_t b = blockSizes[bPick(rng)];
    const index_t maxDim = std::max(pr, pc);
    // n = b * (multiple of lcm(pr,pc)) >= b * maxDim, capped for runtime.
    const index_t requested = b * maxDim * blocksPick(rng);
    const index_t n = adjustProblemSize(requested, b, pr, pc);
    if (n > 240 || n / b < maxDim) {
      continue;  // keep the sweep cheap; the shape mix stays rich
    }
    HplaiConfig cfg = baseConfig(n, b, pr, pc);
    cfg.seed = seedPick(rng);
    cfg.panelBcast = strategies[bcastPick(rng)];
    cfg.lookahead = (trial % 2) == 0;
    expectMatchesReference(cfg, "trial=" + std::to_string(trial) +
                                    " seed=" + std::to_string(cfg.seed));
    ++executed;
  }
  // The cap above must not hollow the sweep out.
  EXPECT_GE(executed, 35);
}

TEST(SchedEquiv, IrResidualTrajectoriesIdentical) {
  // The IR trajectory is a deterministic function of the factors, so
  // bitwise-equal factors imply an identical residual path. Enforce it
  // directly: refine under increasing iteration budgets and compare the
  // residual after every budget — that is the trajectory point j — plus
  // the full FP64 solution vector bitwise at the end.
  const HplaiConfig cfg = pipelined(baseConfig(128, 16, 2, 2));
  const int budgets = 5;

  struct Trajectory {
    std::vector<double> residuals;
    std::vector<index_t> iterations;
    std::vector<double> solution;
  };
  auto runOne = [&](const HplaiConfig& c) {
    Trajectory t;
    simmpi::run(c.worldSize(), [&](simmpi::Comm& world) {
      DistContext ctx(world, c);
      const ProblemGenerator gen(c.seed, c.n);
      const index_t b = c.b;
      const index_t lda = ctx.localRows();
      Buffer<float> local(ctx.localRows() * ctx.localCols());
      const BlockCyclic& layout = ctx.layout();
      for (index_t lj = 0; lj < ctx.localCols() / b; ++lj) {
        for (index_t li = 0; li < ctx.localRows() / b; ++li) {
          gen.fillTile<float>(layout.globalBlockRow(ctx.myRow(), li) * b,
                              layout.globalBlockCol(ctx.myCol(), lj) * b, b,
                              b, local.data() + li * b + lj * b * lda, lda);
        }
      }
      BlasShim shim(c.vendor);
      DistLU lu(ctx, c, shim);
      lu.factor(local.data(), lda);
      for (int j = 1; j <= budgets; ++j) {
        HplaiConfig cj = c;
        cj.maxIrIterations = j;
        cj.irDivergenceStrikes = 0;  // pure classical IR path
        DistIR ir(ctx, cj, gen);
        std::vector<double> x(static_cast<std::size_t>(c.n));
        for (index_t i = 0; i < c.n; ++i) {
          x[static_cast<std::size_t>(i)] = gen.rhs(i) / gen.entry(i, i);
        }
        const IrOutcome out = ir.refine(local.data(), lda, x);
        if (world.rank() == 0) {
          t.residuals.push_back(out.residualInf);
          t.iterations.push_back(out.iterations);
          if (j == budgets) {
            t.solution = x;
          }
        }
      }
    });
    return t;
  };

  const Trajectory reference = runOne(referenceOf(cfg));
  const Trajectory variant = runOne(cfg);
  ASSERT_EQ(reference.residuals.size(), static_cast<std::size_t>(budgets));
  ASSERT_EQ(variant.residuals.size(), static_cast<std::size_t>(budgets));
  for (int j = 0; j < budgets; ++j) {
    // Bitwise: both schedules walked the same residual trajectory.
    EXPECT_EQ(reference.residuals[static_cast<std::size_t>(j)],
              variant.residuals[static_cast<std::size_t>(j)])
        << "residual after IR budget " << (j + 1);
    EXPECT_EQ(reference.iterations[static_cast<std::size_t>(j)],
              variant.iterations[static_cast<std::size_t>(j)]);
  }
  ASSERT_EQ(reference.solution.size(), variant.solution.size());
  for (std::size_t i = 0; i < reference.solution.size(); ++i) {
    ASSERT_EQ(reference.solution[i], variant.solution[i])
        << "solution element " << i;
  }
}

TEST(SchedEquiv, EndToEndResultsMatch) {
  const HplaiConfig cfg = pipelined(baseConfig(128, 16, 2, 2));
  const HplaiResult reference = runHplai(referenceOf(cfg));
  const HplaiResult variant = runHplai(cfg);
  for (const HplaiResult* r : {&reference, &variant}) {
    EXPECT_TRUE(r->converged);
    EXPECT_LT(r->scaledResidual(), 1.0);
  }
  // And the numeric outputs agree bitwise between the two schedules.
  EXPECT_EQ(reference.irIterations, variant.irIterations);
  EXPECT_EQ(reference.residualInf, variant.residualInf);
  EXPECT_EQ(reference.converged, variant.converged);
}

TEST(SchedEquiv, EquivalentUnderDelayFaultInjection) {
  // Timing faults (random injected delays, a stalling rank) perturb the
  // schedule without corrupting data: the pipelined Ring2M + look-ahead
  // factors must stay bitwise identical to a clean reference run. This is
  // the chaos harness aimed at the schedule.
  const HplaiConfig cfg = pipelined(baseConfig(96, 16, 2, 2));
  const auto clean = factorAllRanks(referenceOf(cfg));

  for (const char* scenario : {"delay", "stall"}) {
    simmpi::RunOptions opts;
    opts.faults = std::make_shared<simmpi::FaultInjector>(
        simmpi::faultScenario(scenario, 7, cfg.worldSize()),
        cfg.worldSize());
    opts.timeout = std::chrono::milliseconds(20000);
    const auto faulted = factorAllRanks(cfg, opts);
    expectBitwiseEqual(clean, faulted, std::string("scenario=") + scenario);
  }
}

// ---- Deadlock/starvation regressions: degenerate geometries ------------

TEST(SchedDeadlock, SingleTileMatrixTerminates) {
  // N == B: the whole matrix is one tile; the factorization is a single
  // GETRF (no panels, no trailing update, no broadcasts) and the
  // look-ahead pipeline never has a next step to start.
  const HplaiConfig cfg = pipelined(baseConfig(32, 32, 1, 1));
  expectMatchesReference(cfg, "single-tile");
}

TEST(SchedDeadlock, OneByOneGridTerminates) {
  // All collectives are single-member no-ops; the look-ahead split must
  // still cover every trailing block exactly once.
  const HplaiConfig cfg = pipelined(baseConfig(128, 16, 1, 1));
  expectMatchesReference(cfg, "1x1-grid");
}

TEST(SchedDeadlock, MinimalLocalExtentTerminates) {
  // Each rank owns exactly one block (N_L == B): the trailing region on
  // every rank empties after its first step, so most steps have zero
  // local tiles — the classic shape for a pipeline that assumes "every
  // step has work on every rank" to hang on.
  const HplaiConfig cfg = pipelined(baseConfig(64, 32, 2, 2));
  expectMatchesReference(cfg, "one-block-per-rank");
}

TEST(SchedDeadlock, UnevenBlockDistributionTerminates) {
  // n/b = 3 on a 2x2 grid: ranks own 1 or 2 blocks per dimension, so
  // local extents differ across the grid and some ranks run out of
  // trailing tiles steps before others.
  const HplaiConfig cfg = pipelined(baseConfig(48, 16, 2, 2));
  expectMatchesReference(cfg, "uneven-blocks");
}

TEST(SchedDeadlock, StalledRankTerminatesOrFailsStructured) {
  // A chaos `stall` fault parks one rank inside comm ops. With a comm
  // timeout armed the run must either complete with correct factors or
  // fail with a structured error — never hang ctest.
  const HplaiConfig cfg = pipelined(baseConfig(96, 16, 2, 2));

  simmpi::FaultConfig faults = simmpi::faultScenario("stall", 3, 4);
  simmpi::RunOptions opts;
  opts.faults = std::make_shared<simmpi::FaultInjector>(faults, 4);
  opts.timeout = std::chrono::milliseconds(2000);

  bool structuredError = false;
  std::vector<std::vector<float>> locals;
  try {
    locals = factorAllRanks(cfg, opts);
  } catch (const CheckError&) {
    structuredError = true;  // CommTimeoutError / MultiRankError etc.
  }
  if (!structuredError) {
    // Completed despite the stall: results must be correct.
    const auto clean = factorAllRanks(referenceOf(cfg));
    expectBitwiseEqual(clean, locals, "stall-completed");
  }
  SUCCEED();  // reaching here at all proves termination
}

TEST(SchedEquiv, ProgressHookAbortsCollectively) {
  // The per-step abort poll is itself a collective: every rank must stop
  // at the same step without hanging, on both step loops. Abort after
  // step 2 via the progress hook.
  for (const bool lookahead : {false, true}) {
    HplaiConfig cfg = pipelined(baseConfig(128, 16, 2, 2));
    cfg.lookahead = lookahead;
    cfg.progressCallback = [](index_t k, double) { return k >= 2; };
    const HplaiResult r = runHplai(cfg);
    EXPECT_TRUE(r.aborted) << describe(cfg);
    EXPECT_FALSE(r.converged) << describe(cfg);
  }
}

}  // namespace
}  // namespace hplmxp
