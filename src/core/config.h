// Benchmark configuration and result types.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "device/device.h"
#include "grid/process_grid.h"
#include "simmpi/recovery.h"
#include "simmpi/ring_bcast.h"
#include "util/common.h"

namespace hplmxp {

/// Input parameters of Algorithm 1 plus the tuning knobs of Sec. IV.
struct HplaiConfig {
  index_t n = 0;    // global matrix order (must be a multiple of b)
  index_t b = 0;    // block size B
  index_t pr = 1;   // process rows
  index_t pc = 1;   // process cols
  std::uint64_t seed = 42;

  /// Panel broadcast strategy (Bcast / IBcast / Ring1 / Ring1M / Ring2M).
  simmpi::BcastStrategy panelBcast = simmpi::BcastStrategy::kBcast;

  /// Rank-to-grid-coordinate mapping (Finding 8). Column-major is the
  /// default; node-local mapping places each node's `qr x qc` GCDs as a
  /// contiguous subgrid (requires qr | pr, qc | pc). The factorization is
  /// mapping-invariant — the same mathematical ranks just live at
  /// different coordinates — which the tests exploit; at machine scale the
  /// mapping changes which traffic crosses NICs (Eqs. 4-5).
  GridOrder gridOrder = GridOrder::kColumnMajor;
  index_t qr = 1;  // node-local grid rows (used when gridOrder==kNodeLocal)
  index_t qc = 1;  // node-local grid cols
  index_t gcdsPerNode = 1;  // node size for the column-major mapping

  /// Look-ahead: overlap next iteration's diag/panel work with the bulk
  /// trailing update (Sec. IV-B).
  bool lookahead = true;

  /// Retired knob, read by nothing in src/: every factorization runs the
  /// bulk step loop (optionally with look-ahead). The one-value enum and
  /// the field exist only so perfbench/driver/lu.cpp, which assigns kBulk,
  /// still compiles; both go with the next benchmark revision.
  enum class Scheduler { kBulk };
  Scheduler scheduler = Scheduler::kBulk;

  /// Which vendor dispatch path the shim takes (Table II).
  Vendor vendor = Vendor::kAmd;

  /// Refinement scheme: Algorithm 1's classical iterative refinement, or
  /// the LU-preconditioned GMRES used by the reference HPL-AI code.
  enum class Refiner { kClassicIr, kGmres };
  Refiner refiner = Refiner::kClassicIr;

  /// Iterative refinement controls (classical IR iteration budget; GMRES
  /// uses gmresRestart Krylov steps per cycle under the same budget).
  index_t maxIrIterations = 50;
  index_t gmresRestart = 16;

  /// Record a per-iteration timing breakdown on rank 0 (Fig. 10).
  bool collectTrace = false;

  /// Optional progress hook, evaluated on rank 0 after every block step
  /// with (k, iteration seconds); returning true aborts the factorization
  /// collectively (the Sec. VI-B early-termination mechanism). Wire a
  /// trace::ProgressMonitor into it, typically against a recorded
  /// reference trace (trace/reference.h).
  std::function<bool(index_t, double)> progressCallback;

  /// Optional per-rank progress hook for mid-run slow-rank detection:
  /// after each block step every rank's time-to-barrier wait is gathered
  /// and the hook runs on rank 0 with (k, per-rank barrier-wait seconds).
  /// A rank that arrives persistently last (near-zero wait while peers
  /// idle) is the pipeline's pacing rank; wire a trace::SlowRankMonitor in
  /// and return true to terminate early. Costs one gather + (with
  /// look-ahead) one extra barrier per step — only when set.
  std::function<bool(index_t, const std::vector<double>&)>
      rankProgressCallback;

  /// Self-healing guards (the fail-fast half of Sec. VI-B): scan the
  /// factored diagonal block, the FP16 panels after cast/broadcast, and
  /// the trailing tiles after GEMM for non-finite or abnormally large
  /// entries, raising blas::AbnormalValueError instead of letting silent
  /// corruption reach verification. Off by default (zero cost).
  bool guardPanels = false;

  /// ABFT panel protection (blas/abft.h): checksum every FP16 panel at its
  /// broadcast root, broadcast the checksums alongside, and verify on every
  /// receiver — a single in-flight bit flip is located and corrected in
  /// place bit-exactly instead of aborting the run. Off by default.
  bool abftPanels = false;

  /// ABFT trailing-update carry check: verify the row-sum invariant of
  /// C -= L * U^T after each local GEMM region (catches corruption arising
  /// during the update, not just in flight). Off by default.
  bool abftGemm = false;

  /// Crash-rank recovery (simmpi/recovery.h): rotating in-memory
  /// checkpoints plus comm-replay resurrection. Requires look-ahead off
  /// and RunOptions.replayLog.
  simmpi::RecoveryConfig recovery;

  /// Shared sink for recovery/ABFT tallies (checkpoint, replay, flip
  /// detection/correction counts). Optional; allocated by the caller that
  /// wants the report (e.g. `hplmxp recover`).
  std::shared_ptr<simmpi::RecoveryStats> recoveryStats;

  /// Classical-IR divergence guard: when the residual fails to improve for
  /// this many consecutive iterations, automatically fall back to the
  /// GMRES refiner from the best iterate seen (Algorithm 1's safeguard
  /// spirit). 0 disables the fallback.
  index_t irDivergenceStrikes = 4;

  /// Device memory per GCD in bytes for the memory-accounting model;
  /// 0 disables accounting (tests on tiny problems).
  std::size_t deviceMemoryBytes = 0;

  /// Total number of ranks.
  [[nodiscard]] index_t worldSize() const { return pr * pc; }

  /// Throws CheckError when inconsistent.
  void validate() const {
    HPLMXP_REQUIRE(n > 0 && b > 0, "N and B must be positive");
    HPLMXP_REQUIRE(n % b == 0, "N must be a multiple of B");
    HPLMXP_REQUIRE(pr > 0 && pc > 0, "grid dims must be positive");
    HPLMXP_REQUIRE(n / b >= 1, "need at least one block");
    HPLMXP_REQUIRE(maxIrIterations >= 1, "need at least one IR iteration");
    recovery.validate();
    HPLMXP_REQUIRE(!recovery.enabled || !lookahead,
                   "crash recovery requires look-ahead off (deterministic "
                   "step replay)");
  }
};

/// Adjusts a requested problem size the way the paper does (Sec. III-C:
/// "The size of A is determined by N and adjusted to a multiple of Pr, Pc
/// and B"): the returned N is the nearest positive multiple of
/// B * lcm(Pr, Pc), so every rank owns full blocks and equal-sized local
/// matrices with no padding.
constexpr index_t adjustProblemSize(index_t n, index_t b, index_t pr,
                                    index_t pc) {
  // gcd/lcm without <numeric> to stay constexpr-friendly everywhere.
  index_t a = pr, y = pc;
  while (y != 0) {
    const index_t t = a % y;
    a = y;
    y = t;
  }
  const index_t lcm = pr / a * pc;
  const index_t unit = b * lcm;
  const index_t down = (n / unit) * unit;
  const index_t up = down + unit;
  if (down <= 0) {
    return up;
  }
  return (n - down <= up - n) ? down : up;
}

/// Per-iteration timing breakdown (rank 0), the functional analogue of the
/// paper's Fig. 10 progress output.
struct IterationTrace {
  index_t k = 0;             // iteration (block step)
  index_t trailingBlocks = 0;  // remaining trailing extent in blocks
  double diagSeconds = 0.0;    // GETRF + diag broadcast
  double trsmSeconds = 0.0;    // panel solves
  double castSeconds = 0.0;    // CAST / TRANS_CAST
  double bcastSeconds = 0.0;   // panel broadcasts (includes wait time)
  double gemmSeconds = 0.0;    // trailing update
  index_t abftEvents = 0;      // ABFT corrections applied this step (rank 0)
};

/// Outcome of a benchmark run (the numbers HPL-AI reports).
struct HplaiResult {
  index_t n = 0;
  index_t b = 0;
  index_t ranks = 0;

  double factorSeconds = 0.0;
  double irSeconds = 0.0;
  double totalSeconds = 0.0;

  /// Effective flop count per the HPL-AI submission rules:
  /// (2/3) N^3 + (3/2) N^2, regardless of precision used.
  [[nodiscard]] double effectiveFlops() const {
    const double d = static_cast<double>(n);
    return (2.0 / 3.0) * d * d * d + 1.5 * d * d;
  }
  [[nodiscard]] double gflopsTotal() const {
    return totalSeconds > 0.0 ? effectiveFlops() / totalSeconds / 1e9 : 0.0;
  }
  [[nodiscard]] double gflopsPerRank() const {
    return ranks > 0 ? gflopsTotal() / static_cast<double>(ranks) : 0.0;
  }

  index_t irIterations = 0;
  bool converged = false;
  /// True when the run was stopped early by the progress hook.
  bool aborted = false;
  /// True when classical IR diverged and the run self-healed by falling
  /// back to the GMRES refiner (irDivergenceStrikes guard).
  bool fellBackToGmres = false;
  double residualInf = 0.0;   // final ||b - A x||_inf in FP64
  double threshold = 0.0;     // the line-44 convergence threshold
  /// residualInf / threshold; < 1 means HPL-AI-valid solution.
  [[nodiscard]] double scaledResidual() const {
    return threshold > 0.0 ? residualInf / threshold : 0.0;
  }

  std::vector<IterationTrace> trace;  // non-empty iff collectTrace
};

}  // namespace hplmxp
