// The packed GEMM's building blocks, shared by every kernel that runs
// through the microkernel: the GEMM itself (gemm.cpp) and the blocked
// TRSM's off-diagonal updates (trsm.cpp). Private to the blas library.
//
// Everything here is always-inline: each ISA-tagged entry point
// (packAvx2, solveAvx512, ...) compiles its own copy at its own ISA and
// tile shape. The arithmetic is one multiply then one add (or subtract)
// per k step (-ffp-contract=off), so every copy produces the same bits.
#pragma once

#include "blas/tune.h"
#include "blas/types.h"
#include "util/common.h"

namespace hplmxp::blas::kernel {

template <typename TAcc, typename TIn>
inline TAcc widen(TIn v) {
  return static_cast<TAcc>(v);
}

/// Packs one MR-row strip of op(A)[i0:i0+rows, k0:k0+kc] into dst, laid
/// out l-major (dst[l*MR + i]) and zero-padded to the full MR so the
/// microkernel always streams aligned full-width strips. This is where
/// FP16 operands widen to the FP32 accumulation type: gemmMixed and sgemm
/// share the identical numeric path from here on.
template <index_t MR, typename TAcc, typename TIn>
[[gnu::always_inline]] inline void packAStrip(Trans ta, const TIn* a,
                                              index_t lda, index_t i0,
                                              index_t rows, index_t k0,
                                              index_t kc, TAcc* dst) {
  if (ta == Trans::kNoTrans) {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = a + i0 + (k0 + l) * lda;
      TAcc* d = dst + l * MR;
      for (index_t i = 0; i < rows; ++i) {
        d[i] = widen<TAcc>(src[i]);
      }
      for (index_t i = rows; i < MR; ++i) {
        d[i] = TAcc{0};
      }
    }
  } else {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = a + (k0 + l) + i0 * lda;
      TAcc* d = dst + l * MR;
      for (index_t i = 0; i < rows; ++i) {
        d[i] = widen<TAcc>(src[i * lda]);
      }
      for (index_t i = rows; i < MR; ++i) {
        d[i] = TAcc{0};
      }
    }
  }
}

/// Packs one NR-column strip of op(B)[k0:k0+kc, j0:j0+cols] into dst,
/// l-major (dst[l*NR + j]), zero-padded to NR, with alpha folded in:
/// alpha * widen(b) is the exact per-step scaling the pre-rewrite kernel
/// applied (bv = alpha * bcol[l]), so results stay bitwise identical.
template <index_t NR, typename TAcc, typename TIn>
[[gnu::always_inline]] inline void packBStrip(Trans tb, const TIn* b,
                                              index_t ldb, index_t k0,
                                              index_t j0, index_t cols,
                                              index_t kc, TAcc alpha,
                                              TAcc* dst) {
  if (tb == Trans::kNoTrans) {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = b + (k0 + l);
      TAcc* d = dst + l * NR;
      for (index_t j = 0; j < cols; ++j) {
        d[j] = alpha * widen<TAcc>(src[(j0 + j) * ldb]);
      }
      for (index_t j = cols; j < NR; ++j) {
        d[j] = TAcc{0};
      }
    }
  } else {
    for (index_t l = 0; l < kc; ++l) {
      const TIn* src = b + (k0 + l) * ldb;
      TAcc* d = dst + l * NR;
      for (index_t j = 0; j < cols; ++j) {
        d[j] = alpha * widen<TAcc>(src[j0 + j]);
      }
      for (index_t j = cols; j < NR; ++j) {
        d[j] = TAcc{0};
      }
    }
  }
}

/// Register-blocked microkernel: C[0:rows, 0:cols] += Ap * Bp over one
/// packed k panel, with an MR x NR accumulator block held in registers.
/// Each C element still receives its updates in ascending-k order, one
/// multiply then one add per step, exactly as the pre-rewrite kernel did
/// — the register tile only changes where the partial sums live, not
/// their arithmetic. kSub = true subtracts each product instead (C -= Ap *
/// Bp, the TRSM update). kEdge = true is the templated edge path: partial
/// tiles load/store through bounds masks while the mul-add loop stays
/// full-width (the packed strips are zero-padded, so the padded lanes
/// are dead weight, not branches).
template <index_t MR, index_t NR, typename TAcc, bool kEdge, bool kSub>
[[gnu::always_inline]] inline void microKernel(index_t kc, const TAcc* ap,
                                               const TAcc* bp, TAcc* c,
                                               index_t ldc, index_t rows,
                                               index_t cols) {
  TAcc acc[NR][MR];
  if constexpr (kEdge) {
    for (index_t j = 0; j < NR; ++j) {
      for (index_t i = 0; i < MR; ++i) {
        acc[j][i] = (j < cols && i < rows) ? c[i + j * ldc] : TAcc{0};
      }
    }
  } else {
    for (index_t j = 0; j < NR; ++j) {
      for (index_t i = 0; i < MR; ++i) {
        acc[j][i] = c[i + j * ldc];
      }
    }
  }
  for (index_t l = 0; l < kc; ++l) {
    const TAcc* a = ap + l * MR;
    const TAcc* b = bp + l * NR;
    for (index_t j = 0; j < NR; ++j) {
      const TAcc bv = b[j];
      for (index_t i = 0; i < MR; ++i) {
        if constexpr (kSub) {
          acc[j][i] -= a[i] * bv;
        } else {
          acc[j][i] += a[i] * bv;
        }
      }
    }
  }
  if constexpr (kEdge) {
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) {
        c[i + j * ldc] = acc[j][i];
      }
    }
  } else {
    for (index_t j = 0; j < NR; ++j) {
      for (index_t i = 0; i < MR; ++i) {
        c[i + j * ldc] = acc[j][i];
      }
    }
  }
}

/// One MR x NR tile of C += Ap * Bp (C -= Ap * Bp when kSub): the
/// full-width kernel when the tile is whole, the masked edge kernel
/// otherwise.
template <index_t MR, index_t NR, bool kSub, typename TAcc>
[[gnu::always_inline]] inline void microTile(index_t kc, const TAcc* ap,
                                             const TAcc* bp, TAcc* c,
                                             index_t ldc, index_t rows,
                                             index_t cols) {
  if (rows == MR && cols == NR) {
    microKernel<MR, NR, TAcc, false, kSub>(kc, ap, bp, c, ldc, rows, cols);
  } else {
    microKernel<MR, NR, TAcc, true, kSub>(kc, ap, bp, c, ldc, rows, cols);
  }
}

// The tile shape each ISA's entry points instantiate the templates at.
inline constexpr GemmKernelShape kSse2Tile = gemmKernelShape(GemmIsa::kSse2);
inline constexpr GemmKernelShape kAvx2Tile = gemmKernelShape(GemmIsa::kAvx2);
inline constexpr GemmKernelShape kAvx512Tile =
    gemmKernelShape(GemmIsa::kAvx512);

}  // namespace hplmxp::blas::kernel
