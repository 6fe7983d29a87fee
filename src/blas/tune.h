// Tunable macro-tile blocking of the packed GEMM kernel, and the per-ISA
// microkernel shapes it runs on.
//
// The packed GEMM (blas/gemm.cpp) is compiled once per x86 ISA level; the
// widest level the CPU supports is picked once per process, at first use
// (activeGemmKernel). Each level has its own register-tile shape
// (MR x NR accumulators), but every level performs the identical
// arithmetic, so the choice moves time, never bits. The macro blocking
// (mc, nc, kc) only moves work between cache levels and parallel tasks.
// Changing either NEVER changes results: the kernel accumulates each C
// element in ascending-k order regardless of the blocking or the ISA,
// which is what the scheduler-equivalence suite relies on. The autotuner
// (perfmodel/autotune.h) sweeps candidate blockings on the host and
// installs the fastest via setGemmBlocking().
#pragma once

#include <vector>

#include "util/common.h"

namespace hplmxp::blas {

/// The x86 ISA levels the packed GEMM is compiled for, narrowest first.
/// Hosts that are not x86 run only kSse2, which there names the portable
/// baseline build.
enum class GemmIsa { kSse2, kAvx2, kAvx512 };

/// One compiled microkernel: its ISA and its MR x NR register tile.
struct GemmKernelShape {
  GemmIsa isa;
  const char* name;  // "sse2" | "avx2" | "avx512"
  index_t mr;
  index_t nr;
};

/// Register-tile sweep, one row per ISA. Every row runs the identical
/// mul-then-add arithmetic (-ffp-contract=off). GF/s are single-core
/// FP32 sgemm on a 4-core AVX-512 x86-64 host, whole packed GEMM
/// (pack + blocking + microkernel) at m=n=1024, k=256, best of 3,
/// spread about +-10% between repeats:
///
///   sse2 (16 xmm; the baseline, no -march flag): 24x2: 24. An earlier
///     streaming-microkernel sweep (k=256) read 24x2: 30.0, 8x4: 23.5,
///     16x2: 23.5, 8x6: 5.1, 16x4: 3.1. 24x2 keeps 6 accumulator + 6 A
///     registers + 1 B broadcast inside the file.
///   avx2 (16 ymm): 24x3: 56, 24x6: 50, 24x4: 47, 24x8: 47, 48x2: 42,
///     32x4: 38, 32x6: 37, 32x8: 37, 16x6: 2, 16x8: 3. 24x3 is taken:
///     9 accumulators + 3 A + 1 broadcast fit the file. NR=3 does not
///     divide B=128, so the last column strip of a trailing update takes
///     the edge path.
///   avx512 (32 zmm, built under the target attribute): 32x8: 66-78,
///     48x6: 76, 48x8: 76, 48x4: 76, 64x3: 76, 64x6: 78, 32x6: 58-79,
///     32x12: 69, 64x4: 67, 32x4: 64, 64x2: 55, 48x3: 56. At the
///     lu_compute shape (m=n=2048, k=128) 32x8 led in 3 of 3 repeats
///     (62-65, others 55-61). 32x8 is taken: 16 accumulators + 2 A + 1
///     broadcast fit, and MR=32 and NR=8 divide B=128, so the trailing
///     updates of lu_compute never reach the edge path.
inline constexpr GemmKernelShape kGemmKernels[] = {
    {GemmIsa::kSse2, "sse2", 24, 2},
    {GemmIsa::kAvx2, "avx2", 24, 3},
    {GemmIsa::kAvx512, "avx512", 32, 8},
};

/// The shape compiled for `isa`.
constexpr const GemmKernelShape& gemmKernelShape(GemmIsa isa) {
  return kGemmKernels[static_cast<int>(isa)];
}

/// The kernel every GEMM of this process runs: the widest ISA the CPU
/// supports, picked once with __builtin_cpu_supports.
[[nodiscard]] const GemmKernelShape& activeGemmKernel();

/// Cache/task blocking of the packed GEMM. mc rows x nc cols define one
/// macro-tile task of the 2D parallel decomposition; kc is the packed
/// panel depth. Values are rounded up to microkernel multiples on use.
struct GemmBlocking {
  index_t mc = 120;
  index_t nc = 240;
  index_t kc = 256;
};

/// Snapshot of the globally installed blocking (thread-safe).
[[nodiscard]] GemmBlocking gemmBlocking();

/// Installs a new blocking for subsequent GEMM calls (thread-safe).
/// mc and nc round up to the active kernel's MR and NR; non-positive
/// fields are clamped to the microkernel minimum.
void setGemmBlocking(const GemmBlocking& blocking);

namespace detail {

/// Test seam: the ISAs this CPU can run, narrowest first (always starts
/// with kSse2).
[[nodiscard]] std::vector<GemmIsa> supportedGemmIsas();

/// Test seam: GEMMs issued from the constructing thread run through
/// `isa` (which must be supported) until the guard is destroyed. Not a
/// tuning option: production code always runs activeGemmKernel().
class ScopedGemmIsa {
 public:
  explicit ScopedGemmIsa(GemmIsa isa);
  ~ScopedGemmIsa();
  ScopedGemmIsa(const ScopedGemmIsa&) = delete;
  ScopedGemmIsa& operator=(const ScopedGemmIsa&) = delete;

 private:
  const GemmKernelShape* saved_;
};

/// The kernel GEMMs issued from this thread run: the ScopedGemmIsa
/// override if one is live, else activeGemmKernel().
[[nodiscard]] const GemmKernelShape& callerGemmKernel();

}  // namespace detail

}  // namespace hplmxp::blas
