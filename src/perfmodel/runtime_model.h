// The paper's analytic performance model (Sec. IV, Eqs. 1-5).
//
// These closed-form bounds are the *guideline* model: the paper uses them
// to structure the tuning discussion and to drive the parameter search,
// while stressing they cannot be back-solved for exact optima. The
// iteration-level simulator (scalesim) refines them; this module encodes
// the equations themselves.
#pragma once

#include "grid/process_grid.h"
#include "perfmodel/kernel_model.h"
#include "util/common.h"

namespace hplmxp {

/// Inputs of the Eq. 3 projected upper bound.
struct ModelInput {
  index_t n = 0;    // global matrix order
  index_t b = 0;    // block size
  index_t pr = 1;   // grid rows
  index_t pc = 1;   // grid cols
  double nbb = 10e9;  // network broadcast bandwidth per rank flow (bytes/s)
};

/// Eq. 2: serial per-iteration upper bound (seconds) —
/// B^3/GETRF_fr + 2*N*B^2/TRSM_fr + N^2*B/GEMM_fr.
double serialIterationBound(const KernelModel& kernels, index_t n, index_t b);

/// Per-term breakdown of the Eq. 3 projected parallel runtime.
struct ParallelBound {
  double getrf = 0.0;
  double trsmRow = 0.0;
  double trsmCol = 0.0;
  double bcastRow = 0.0;
  double bcastCol = 0.0;
  double gemm = 0.0;
  [[nodiscard]] double total() const {
    return getrf + trsmRow + trsmCol + bcastRow + bcastCol + gemm;
  }
  /// With look-ahead the panel broadcast overlaps the GEMM (Sec. IV-B):
  /// the last two terms of Eq. 1 become max(T_bcast, T_gemm).
  [[nodiscard]] double totalWithLookahead() const {
    return getrf + trsmRow + trsmCol +
           std::max(bcastRow + bcastCol, gemm);
  }
};

/// Eq. 3: projected parallel upper bound for the full factorization.
ParallelBound projectedParallelBound(const KernelModel& kernels,
                                     const ModelInput& in);

/// Eq. 5: inter-node communication time given the node-local grid, using
/// NBN (network bandwidth per node): 2*N^2*Qr/(Pr*NBN) + 2*N^2*Qc/(Pc*NBN).
double interNodeCommTime(const ModelInput& in, const ProcessGrid& grid,
                         double nbnBytesPerSec);

/// HPL-AI effective rate for a runtime: ((2/3)N^3 + (3/2)N^2) / (P * t),
/// per GCD, in FLOP/s.
double effectiveRatePerGcd(index_t n, index_t p, double seconds);

}  // namespace hplmxp
