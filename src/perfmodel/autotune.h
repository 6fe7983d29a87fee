// Kernel autotuner: measures the native GEMM/GETRF/TRSM kernels on this
// host and feeds the results back into (a) the GEMM macro-blocking used by
// the hot path (blas/tune.h) and (b) the performance model
// (KernelModel::calibrate), so parameter search runs on measured curves
// instead of hand-fit constants.
//
// This mirrors the paper's tuning methodology (Sec. IV-A): the block-size
// and problem-shape optima are derived from *measured* per-kernel flop-rate
// curves (Figs. 3, 5, 6), not from datasheet peaks. Here the "device" is
// the CPU substrate, so the sweep times the real microkernel.
//
// The sweep only changes the GEMM blocking (mc, nc, kc) — macro-tile
// scheduling parameters that never change numerical results (see
// blas/gemm.h for the determinism contract) — so autotuning is always
// safe to run, including mid-application.
#pragma once

#include <string>
#include <vector>

#include "blas/tune.h"
#include "perfmodel/kernel_model.h"
#include "util/thread_pool.h"

namespace hplmxp {

/// Outcome of a blocking sweep: the winning blocking and its measured rate.
struct GemmTuneResult {
  std::string isa;  // kernel the blocking was tuned on (GemmKernelShape::name)
  blas::GemmBlocking blocking;
  double gflops = 0.0;   // rate of the winning blocking
  double baseline = 0.0; // rate of the default blocking, for comparison
  index_t problemSize = 0;
  int candidatesTried = 0;
};

/// Sweeps a fixed (mc, nc, kc) candidate grid by timing the mixed-precision
/// GEMM at size n x n x n, installs the fastest blocking process-wide via
/// blas::setGemmBlocking, and returns what it found. `reps` timed runs per
/// candidate (best-of, after one warmup). Deterministic with respect to
/// results: only scheduling changes.
GemmTuneResult autotuneGemmBlocking(index_t n, ThreadPool* pool = nullptr,
                                    int reps = 2);

/// Measures GF/s ladders for the three hot kernels at each size in `sizes`
/// (GEMM: s x s x s mixed; GETRF: s x s no-pivot; TRSM: s x s left-lower
/// panel). Feed the result to KernelModel::calibrate().
MeasuredKernelCurves measureKernelCurves(const std::vector<index_t>& sizes,
                                         ThreadPool* pool = nullptr,
                                         int reps = 2);

/// The TRSM rung of measureKernelCurves: best-of-`reps` seconds for an
/// s x s left-lower unit-diagonal solve on a diagonally dominant triangle,
/// the right-hand sides restored before every repetition so each timed
/// solve runs on the same bounded data. `solution`, when given, receives
/// the last repetition's result.
double trsmRungSeconds(index_t s, ThreadPool* pool = nullptr, int reps = 2,
                       std::vector<float>* solution = nullptr);

/// Persists / restores a tune table as plain "key value..." text lines:
///   isa <sse2|avx2|avx512>
///   blocking <mc> <nc> <kc> <gflops>
///   gemm <size> <flops_per_sec>
///   getrf <size> <flops_per_sec>
///   trsm <size> <flops_per_sec>
/// Unknown lines and '#' comments are skipped on load. loadTuneTable does
/// NOT install the blocking; callers decide (see bench_kernel_autotune),
/// and a blocking whose isa is not activeGemmKernel().name was tuned for
/// another microkernel shape.
bool saveTuneTable(const std::string& path, const GemmTuneResult& tune,
                   const MeasuredKernelCurves& curves);
bool loadTuneTable(const std::string& path, GemmTuneResult* tune,
                   MeasuredKernelCurves* curves);

}  // namespace hplmxp
