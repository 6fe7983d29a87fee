// Order-exact TRSM oracle: the serial, unblocked column-oriented
// substitution that defines the bits of blas::strsm / dtrsm. The blocked
// solve promises every element the same multiplies, subtracts and
// division, in the same order, so it must match this oracle bit for bit
// (not merely to a tolerance) on every ISA and lane count.
#pragma once

#include "blas/types.h"
#include "util/common.h"

namespace hplmxp::oracle {

/// op(A) * X = alpha * B (kLeft) or X * op(A) = alpha * B (kRight); X
/// overwrites B.
template <typename T>
void trsmOrderExact(blas::Side side, blas::Uplo uplo, blas::Trans trans,
                    blas::Diag diag, index_t m, index_t n, T alpha,
                    const T* a, index_t lda, T* b, index_t ldb) {
  using blas::Diag;
  using blas::Side;
  using blas::Trans;
  using blas::Uplo;
  if (alpha != T{1}) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        b[i + j * ldb] *= alpha;
      }
    }
  }
  const bool unit = diag == Diag::kUnit;
  if (side == Side::kLeft && trans == Trans::kNoTrans) {
    // Column sweep: forward for lower, backward for upper.
    for (index_t j = 0; j < n; ++j) {
      T* bcol = b + j * ldb;
      if (uplo == Uplo::kLower) {
        for (index_t l = 0; l < m; ++l) {
          const T* acol = a + l * lda;
          if (!unit) {
            bcol[l] /= acol[l];
          }
          const T x = bcol[l];
          for (index_t i = l + 1; i < m; ++i) {
            bcol[i] -= acol[i] * x;
          }
        }
      } else {
        for (index_t l = m - 1; l >= 0; --l) {
          const T* acol = a + l * lda;
          if (!unit) {
            bcol[l] /= acol[l];
          }
          const T x = bcol[l];
          for (index_t i = 0; i < l; ++i) {
            bcol[i] -= acol[i] * x;
          }
        }
      }
    }
  } else if (side == Side::kLeft) {
    // op(A) = A^T: dot products down the stored columns of A. Lower^T
    // solves backward, Upper^T forward; both dot in ascending order.
    for (index_t j = 0; j < n; ++j) {
      T* bcol = b + j * ldb;
      if (uplo == Uplo::kLower) {
        for (index_t l = m - 1; l >= 0; --l) {
          const T* acol = a + l * lda;
          T acc = bcol[l];
          for (index_t i = l + 1; i < m; ++i) {
            acc -= acol[i] * bcol[i];
          }
          bcol[l] = unit ? acc : acc / acol[l];
        }
      } else {
        for (index_t l = 0; l < m; ++l) {
          const T* acol = a + l * lda;
          T acc = bcol[l];
          for (index_t i = 0; i < l; ++i) {
            acc -= acol[i] * bcol[i];
          }
          bcol[l] = unit ? acc : acc / acol[l];
        }
      }
    }
  } else {
    // Right side: the column recurrence over X * op(A) = B, with
    // op(A)[l][j] = A[l][j] (no-trans) or A[j][l] (trans). op(A) upper
    // solves forward, lower backward; the updates run ascending in l.
    const bool opUpper = (uplo == Uplo::kUpper) == (trans == Trans::kNoTrans);
    const auto opA = [&](index_t l, index_t j) {
      return trans == Trans::kNoTrans ? a[l + j * lda] : a[j + l * lda];
    };
    const auto solveColumn = [&](index_t j, index_t lBegin, index_t lEnd) {
      T* bcol = b + j * ldb;
      for (index_t l = lBegin; l < lEnd; ++l) {
        const T ax = opA(l, j);
        const T* xcol = b + l * ldb;
        for (index_t i = 0; i < m; ++i) {
          bcol[i] -= xcol[i] * ax;
        }
      }
      if (!unit) {
        const T pivot = opA(j, j);
        for (index_t i = 0; i < m; ++i) {
          bcol[i] /= pivot;
        }
      }
    };
    if (opUpper) {
      for (index_t j = 0; j < n; ++j) {
        solveColumn(j, 0, j);
      }
    } else {
      for (index_t j = n - 1; j >= 0; --j) {
        solveColumn(j, j + 1, n);
      }
    }
  }
}

}  // namespace hplmxp::oracle
