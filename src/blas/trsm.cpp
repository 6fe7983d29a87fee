#include "blas/trsm.h"

#include <optional>

#include "blas/microkernel.h"
#include "blas/tune.h"

namespace hplmxp::blas {

namespace {

template <typename T>
[[gnu::always_inline]] inline void scaleColumns(T* b, index_t ldb, index_t m,
                                                index_t j0, index_t j1,
                                                T alpha) {
  if (alpha == T{1}) {
    return;
  }
  for (index_t j = j0; j < j1; ++j) {
    T* col = b + j * ldb;
    for (index_t i = 0; i < m; ++i) {
      col[i] *= alpha;
    }
  }
}

/// Left-side solve of one kb x kb diagonal block whose right-hand sides
/// are held row by row: row t (x + t*ldx, `cols` values) holds row t of
/// the block for every column of the stripe, so each update is one vector
/// operation across the columns. Every element sees the column-oriented
/// solve's sequence: a multiply and a subtract per op(A)(t, s), in that
/// solve's order, then the division by the pivot.
template <typename T>
[[gnu::always_inline]] inline void leftSolveRows(Uplo uplo, Trans trans,
                                                 Diag diag, index_t kb,
                                                 const T* a, index_t lda,
                                                 T* x, index_t ldx,
                                                 index_t cols) {
  const auto update = [&](index_t t, index_t s) {
    const T coef = trans == Trans::kNoTrans ? a[t + s * lda] : a[s + t * lda];
    T* __restrict xt = x + t * ldx;
    const T* __restrict xs = x + s * ldx;
    for (index_t j = 0; j < cols; ++j) {
      xt[j] -= coef * xs[j];
    }
  };
  const auto divide = [&](index_t t) {
    if (diag == Diag::kNonUnit) {
      const T pivot = a[t + t * lda];
      T* xt = x + t * ldx;
      for (index_t j = 0; j < cols; ++j) {
        xt[j] /= pivot;
      }
    }
  };
  if ((uplo == Uplo::kLower) == (trans == Trans::kNoTrans)) {
    // op(A) lower: forward, updates ascending.
    for (index_t t = 0; t < kb; ++t) {
      for (index_t s = 0; s < t; ++s) {
        update(t, s);
      }
      divide(t);
    }
  } else if (trans == Trans::kNoTrans) {
    // Upper: backward, updates descending (the column sweep's order).
    for (index_t t = kb - 1; t >= 0; --t) {
      for (index_t s = kb - 1; s > t; --s) {
        update(t, s);
      }
      divide(t);
    }
  } else {
    // Lower^T: backward, but the dot products run ascending.
    for (index_t t = kb - 1; t >= 0; --t) {
      for (index_t s = t + 1; s < kb; ++s) {
        update(t, s);
      }
      divide(t);
    }
  }
}

/// Left-side Lower^T solve on columns [j0, j1), in place: the unblocked
/// fallback for triangles larger than one block (op(A) = A^T is upper,
/// so it solves backward, dotting A's column below the diagonal against
/// already-solved entries in ascending order).
template <typename T>
[[gnu::always_inline]] inline void leftLowerTransColumns(
    Diag diag, index_t m, const T* a, index_t lda, T* b, index_t ldb,
    index_t j0, index_t j1) {
  for (index_t l = m - 1; l >= 0; --l) {
    const T* acol = a + l * lda;
    for (index_t j = j0; j < j1; ++j) {
      T* bcol = b + j * ldb;
      T acc = bcol[l];
      for (index_t i = l + 1; i < m; ++i) {
        acc -= acol[i] * bcol[i];
      }
      bcol[l] = diag == Diag::kUnit ? acc : acc / acol[l];
    }
  }
}

/// Right-side solve on rows [i0, i1): rows of B are independent, so each
/// stripe runs the column recurrence X * op(A) = B on its own rows,
/// vectorized down them, with op(A)[l][j] = A[l][j] (no-trans) or A[j][l]
/// (trans). op(A) upper solves forward, lower backward; either way column
/// j's updates run ascending in l, then it is divided by the pivot.
template <typename T>
[[gnu::always_inline]] inline void rightSolveStripe(Uplo uplo, Trans trans,
                                                    Diag diag, index_t n,
                                                    const T* a, index_t lda,
                                                    T* b, index_t ldb,
                                                    index_t i0, index_t i1) {
  const auto solveColumn = [&](index_t j, index_t lBegin, index_t lEnd) {
    T* bcol = b + j * ldb;
    for (index_t l = lBegin; l < lEnd; ++l) {
      const T ax = trans == Trans::kNoTrans ? a[l + j * lda] : a[j + l * lda];
      const T* xcol = b + l * ldb;
      for (index_t i = i0; i < i1; ++i) {
        bcol[i] -= xcol[i] * ax;
      }
    }
    if (diag == Diag::kNonUnit) {
      const T pivot = a[j + j * lda];
      for (index_t i = i0; i < i1; ++i) {
        bcol[i] /= pivot;
      }
    }
  };
  if ((uplo == Uplo::kUpper) == (trans == Trans::kNoTrans)) {
    for (index_t j = 0; j < n; ++j) {
      solveColumn(j, 0, j);
    }
  } else {
    for (index_t j = n - 1; j >= 0; --j) {
      solveColumn(j, j + 1, n);
    }
  }
}

// Diagonal block order of the blocked solve, and the stripe widths. A
// triangle of order <= kTrsmBlock runs unblocked, so small solves (serve's
// B = 32 panels) pay nothing for the blocking.
constexpr index_t kTrsmBlock = 32;
constexpr index_t kLeftStripe = 64;       // columns, rounded up to NR
constexpr index_t kRightStripeTiles = 4;  // rows = this many MR strips
constexpr index_t kMaxStripe = 128;       // bounds the stack pack buffer

/// One TRSM call as the per-ISA entry points see it. The right-hand
/// sides split into stripes of `stripe` columns (kLeft) or rows (kRight);
/// the triangle splits into diagonal blocks of order nb, walked in solve
/// order. When nb covers the whole triangle the call is unblocked: each
/// stripe is one in-block solve and there are no microkernel updates.
template <typename T>
struct TrsmJob {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
  index_t m, n;
  T alpha;
  const T* a;
  index_t lda;
  T* b;
  index_t ldb;
  index_t tri;        // order of the triangle: m (kLeft) or n (kRight)
  index_t nb;         // diagonal block order
  bool backward;      // blocks walk from the bottom (left, upper, no-trans)
  index_t stripe;     // right-hand-side columns or rows per stripe
  const T* triPack;   // packed off-diagonal panels, one per block
  index_t panelSize;  // elements per packed panel
};

/// Diagonal block `blk` in solve order: triangle indices [k0, k1), and
/// the indices [u0, u1) its solved values update.
struct TrsmBlock {
  index_t k0, k1, u0, u1;
};

template <typename T>
TrsmBlock trsmBlock(const TrsmJob<T>& p, index_t blk) {
  if (p.backward) {
    const index_t k1 = p.tri - blk * p.nb;
    const index_t k0 = std::max<index_t>(0, k1 - p.nb);
    return {k0, k1, 0, k0};
  }
  const index_t k0 = blk * p.nb;
  const index_t k1 = std::min(p.tri, k0 + p.nb);
  return {k0, k1, k1, p.tri};
}

/// Packs `width` (<= w) lines of a kc-deep panel, l-major and zero-padded
/// to w: dst[l*w + r] = src[r*rs + l*ks]. The strides may be negative (a
/// backward block packs its columns in descending order).
template <typename T>
[[gnu::always_inline]] inline void packLines(index_t w, const T* src,
                                             index_t rs, index_t ks,
                                             index_t width, index_t kc,
                                             T* dst) {
  for (index_t l = 0; l < kc; ++l) {
    T* d = dst + l * w;
    for (index_t r = 0; r < width; ++r) {
      d[r] = src[r * rs + l * ks];
    }
    for (index_t r = width; r < w; ++r) {
      d[r] = T{0};
    }
  }
}

/// Packs `count` lines into ceil(count / w) strips of w (see packLines),
/// consecutive lines `rs` apart in src.
template <typename T>
[[gnu::always_inline]] inline void packStrips(index_t w, const T* src,
                                              index_t rs, index_t ks,
                                              index_t count, index_t kc,
                                              T* dst) {
  for (index_t r0 = 0; r0 < count; r0 += w) {
    packLines(w, src + r0 * rs, rs, ks, std::min(w, count - r0), kc,
              dst + r0 * kc);
  }
}

/// Block `k`'s off-diagonal panel of op(A): where it starts, its line
/// stride (across the updated indices) and its k stride (across the
/// block, in update order). kLeft packs it as the microkernel's A operand
/// (op(A)[u0:u1, k0:k1]), kRight as its B operand (op(A)[k0:k1, u0:u1]).
template <typename T>
struct TriPanel {
  const T* src;
  index_t rs, ks;
};

template <typename T>
TriPanel<T> triPanel(const TrsmJob<T>& p, const TrsmBlock& k) {
  const T* a = p.a;
  const index_t lda = p.lda;
  if (p.backward) {  // left upper: A[u, k1-1-l]
    return {a + k.u0 + (k.k1 - 1) * lda, 1, -lda};
  }
  // Forward: op(A)[u, k0+l] (kLeft) or op(A)[k0+l, u] (kRight), i.e.
  // A[u, k0+l] for left lower and right lower^T, A[k0+l, u] for left
  // upper^T and right upper.
  if ((p.side == Side::kLeft) == (p.trans == Trans::kNoTrans)) {
    return {a + k.u0 + k.k0 * lda, 1, lda};
  }
  return {a + k.k0 + k.u0 * lda, lda, 1};
}

/// Left solve of columns [j0, j1). Per diagonal block: the block's rows
/// of the stripe are copied row by row into `rows`, solved there
/// (leftSolveRows) and copied back; then the microkernel subtracts the
/// block's contribution from every row it updates, k in update order.
/// Each element therefore sees the same multiplies and subtracts, in the
/// same order, as in the unblocked column-oriented solve.
template <index_t MR, index_t NR, typename T>
[[gnu::always_inline]] inline void leftStripe(const TrsmJob<T>& p,
                                              index_t j0, index_t j1,
                                              T* rows, T* xPack) {
  scaleColumns(p.b, p.ldb, p.m, j0, j1, p.alpha);
  if (p.nb > kTrsmBlock) {  // unblocked and larger than `rows`: Lower^T
    leftLowerTransColumns(p.diag, p.m, p.a, p.lda, p.b, p.ldb, j0, j1);
    return;
  }
  const index_t cols = j1 - j0;
  const index_t ldx = p.stripe;
  for (index_t blk = 0; blk * p.nb < p.tri; ++blk) {
    const TrsmBlock k = trsmBlock(p, blk);
    const index_t kb = k.k1 - k.k0;
    T* bBlock = p.b + k.k0 + j0 * p.ldb;
    for (index_t c = 0; c < cols; ++c) {
      for (index_t t = 0; t < kb; ++t) {
        rows[t * ldx + c] = bBlock[t + c * p.ldb];
      }
    }
    leftSolveRows(p.uplo, p.trans, p.diag, kb, p.a + k.k0 + k.k0 * p.lda,
                  p.lda, rows, ldx, cols);
    for (index_t c = 0; c < cols; ++c) {
      for (index_t t = 0; t < kb; ++t) {
        bBlock[t + c * p.ldb] = rows[t * ldx + c];
      }
    }
    const index_t urows = k.u1 - k.u0;
    if (urows == 0) {
      continue;
    }
    // The block's solved rows -> NR strips, k in update order.
    packStrips(NR, rows + (p.backward ? (kb - 1) * ldx : 0), 1,
               p.backward ? -ldx : ldx, cols, kb, xPack);
    const T* aPack = p.triPack + blk * p.panelSize;
    for (index_t jr = 0; jr < cols; jr += NR) {
      for (index_t ir = 0; ir < urows; ir += MR) {
        kernel::microTile<MR, NR, true>(
            kb, aPack + ir * kb, xPack + jr * kb,
            p.b + k.u0 + ir + (j0 + jr) * p.ldb, p.ldb,
            std::min(MR, urows - ir), std::min(NR, cols - jr));
      }
    }
  }
}

/// Right solve of rows [i0, i1): the mirror of leftStripe, with the
/// stripe's solved columns as the microkernel's A operand.
template <index_t MR, index_t NR, typename T>
[[gnu::always_inline]] inline void rightStripe(const TrsmJob<T>& p,
                                               index_t i0, index_t i1,
                                               T* xPack) {
  if (p.alpha != T{1}) {
    for (index_t j = 0; j < p.n; ++j) {
      T* col = p.b + j * p.ldb;
      for (index_t i = i0; i < i1; ++i) {
        col[i] *= p.alpha;
      }
    }
  }
  const index_t rows = i1 - i0;
  for (index_t blk = 0; blk * p.nb < p.tri; ++blk) {
    const TrsmBlock k = trsmBlock(p, blk);
    const index_t kb = k.k1 - k.k0;
    const T* diagBlock = p.a + k.k0 + k.k0 * p.lda;
    T* bBlock = p.b + k.k0 * p.ldb;
    rightSolveStripe(p.uplo, p.trans, p.diag, kb, diagBlock, p.lda, bBlock,
                     p.ldb, i0, i1);
    const index_t cols = k.u1 - k.u0;
    if (cols == 0) {
      continue;
    }
    packStrips(MR, bBlock + i0, 1, p.ldb, rows, kb, xPack);
    const T* bPack = p.triPack + blk * p.panelSize;
    for (index_t jr = 0; jr < cols; jr += NR) {
      for (index_t ir = 0; ir < rows; ir += MR) {
        kernel::microTile<MR, NR, true>(
            kb, xPack + ir * kb, bPack + jr * kb,
            p.b + i0 + ir + (k.u0 + jr) * p.ldb, p.ldb,
            std::min(MR, rows - ir), std::min(NR, cols - jr));
      }
    }
  }
}

/// Stripes [lo, hi) of the job at one ISA's tile shape.
template <index_t MR, index_t NR, typename T>
[[gnu::always_inline]] inline void solveRange(const TrsmJob<T>& p,
                                              index_t lo, index_t hi) {
  static_assert(roundUp(kLeftStripe, NR) <= kMaxStripe &&
                kRightStripeTiles * MR <= kMaxStripe);
  alignas(64) T xPack[kMaxStripe * kTrsmBlock];
  alignas(64) T rows[kTrsmBlock * kMaxStripe];
  const index_t extent = p.side == Side::kLeft ? p.n : p.m;
  for (index_t s = lo; s < hi; ++s) {
    const index_t r0 = s * p.stripe;
    const index_t r1 = std::min(extent, r0 + p.stripe);
    if (p.side == Side::kLeft) {
      leftStripe<MR, NR>(p, r0, r1, rows, xPack);
    } else {
      rightStripe<MR, NR>(p, r0, r1, xPack);
    }
  }
}

// Per-ISA entry points, the TRSM twin of gemm.cpp's pack/compute pairs.
template <typename T>
void solveSse2(const TrsmJob<T>& p, index_t lo, index_t hi) {
  solveRange<kernel::kSse2Tile.mr, kernel::kSse2Tile.nr>(p, lo, hi);
}

#if defined(__x86_64__) || defined(__i386__)
template <typename T>
[[gnu::target("avx2")]] void solveAvx2(const TrsmJob<T>& p, index_t lo,
                                       index_t hi) {
  solveRange<kernel::kAvx2Tile.mr, kernel::kAvx2Tile.nr>(p, lo, hi);
}

template <typename T>
[[gnu::target("avx512f,avx512vl")]] void solveAvx512(const TrsmJob<T>& p,
                                                     index_t lo, index_t hi) {
  solveRange<kernel::kAvx512Tile.mr, kernel::kAvx512Tile.nr>(p, lo, hi);
}
#endif

template <typename T>
auto solveFn(GemmIsa isa) -> void (*)(const TrsmJob<T>&, index_t, index_t) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case GemmIsa::kAvx512:
      return &solveAvx512<T>;
    case GemmIsa::kAvx2:
      return &solveAvx2<T>;
#endif
    default:
      return &solveSse2<T>;
  }
}

/// Whether the blocked solve keeps every element's update order. It does
/// when the solve walks the triangle in the order the column-oriented
/// kernel applies its updates: forward with ascending updates (left lower,
/// left upper^T, right upper, right lower^T) or backward with descending
/// ones (left upper). The other three variants update in ascending order
/// while solving backward, so each update needs the value solved just
/// before it; they run unblocked.
bool blockable(Side side, Uplo uplo, Trans trans) {
  const bool opLower = (uplo == Uplo::kLower) == (trans == Trans::kNoTrans);
  if (side == Side::kLeft) {
    return opLower || trans == Trans::kNoTrans;
  }
  return !opLower;
}

template <typename T>
void trsmCore(Side side, Uplo uplo, Trans trans, Diag diag, index_t m,
              index_t n, T alpha, const T* a, index_t lda, T* b, index_t ldb,
              ThreadPool* pool) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trsm dims must be >= 0");
  if (m == 0 || n == 0) {
    return;
  }
  const index_t triOrder = (side == Side::kLeft) ? m : n;
  HPLMXP_REQUIRE(lda >= triOrder, "trsm: lda too small");
  HPLMXP_REQUIRE(ldb >= m, "trsm: ldb too small");
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }

  // The single ISA dispatch point, as in gemmCore.
  const GemmKernelShape& kern = detail::callerGemmKernel();
  const bool blocked = triOrder > kTrsmBlock && blockable(side, uplo, trans);
  TrsmJob<T> p{.side = side,
               .uplo = uplo,
               .trans = trans,
               .diag = diag,
               .m = m,
               .n = n,
               .alpha = alpha,
               .a = a,
               .lda = lda,
               .b = b,
               .ldb = ldb,
               .tri = triOrder,
               .nb = blocked ? kTrsmBlock : triOrder,
               .backward = blocked && side == Side::kLeft &&
                           uplo == Uplo::kUpper && trans == Trans::kNoTrans,
               .stripe = side == Side::kLeft ? roundUp(kLeftStripe, kern.nr)
                                             : kRightStripeTiles * kern.mr,
               .triPack = nullptr,
               .panelSize = 0};

  // Blocked: pack every block's off-diagonal panel of op(A) once, on the
  // calling thread, into a pooled arena all stripes read. Steady-state
  // calls never touch the allocator.
  std::optional<ThreadPool::ScratchLease> lease;
  if (blocked) {
    const index_t w = side == Side::kLeft ? kern.mr : kern.nr;
    const index_t blocks = ceilDiv(triOrder, p.nb);
    p.panelSize = roundUp(triOrder, w) * p.nb;
    lease.emplace(pool->scratch());
    Arena& arena = lease->arena();
    arena.reserve(static_cast<std::size_t>(blocks * p.panelSize) * sizeof(T) +
                  64);
    T* pack = arena.alloc<T>(blocks * p.panelSize);
    for (index_t blk = 0; blk < blocks; ++blk) {
      const TrsmBlock k = trsmBlock(p, blk);
      const TriPanel<T> t = triPanel(p, k);
      packStrips(w, t.src, t.rs, t.ks, k.u1 - k.u0, k.k1 - k.k0,
                 pack + blk * p.panelSize);
    }
    p.triPack = pack;
  }

  // One parallel loop over independent right-hand-side stripes: columns
  // (kLeft) or rows (kRight).
  const auto solve = solveFn<T>(kern.isa);
  const index_t stripes = ceilDiv(side == Side::kLeft ? n : m, p.stripe);
  pool->parallelForChunked(
      0, stripes, [&](index_t lo, index_t hi) { solve(p, lo, hi); },
      stripes);
}

}  // namespace

void strsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, float alpha,
           const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<float>(side, uplo, Trans::kNoTrans, diag, m, n, alpha, a, lda, b,
                  ldb, pool);
}

void dtrsm(Side side, Uplo uplo, Diag diag, index_t m, index_t n, double alpha,
           const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<double>(side, uplo, Trans::kNoTrans, diag, m, n, alpha, a, lda, b,
                   ldb, pool);
}

void strsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           float alpha, const float* a, index_t lda, float* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<float>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb, pool);
}

void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
           double alpha, const double* a, index_t lda, double* b, index_t ldb,
           ThreadPool* pool) {
  trsmCore<double>(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb,
                   pool);
}

namespace {

// Stripe width for the mixed multi-RHS solve: wide enough that the
// triangular block and sub-panel stay resident while every column of the
// chunk streams through them, small enough that a stripe of the factor
// fits in L1/L2 alongside a handful of FP64 columns.
constexpr index_t kMixedStripe = 64;

/// One chunk of right-hand-side columns, forward substitution. Each
/// column-j axpy of the column-oriented TRSV is split at the stripe edge;
/// per (element, column) the update order over j is unchanged, which is
/// what makes the batched solve bitwise-equal to strsvMixed per column.
void mixedLowerColumns(Diag diag, index_t n, const float* a, index_t lda,
                       double* x, index_t ldx, index_t c0, index_t c1) {
  for (index_t s0 = 0; s0 < n; s0 += kMixedStripe) {
    const index_t s1 = std::min(n, s0 + kMixedStripe);
    for (index_t c = c0; c < c1; ++c) {
      double* xc = x + c * ldx;
      // In-stripe substitution on the triangular block.
      for (index_t j = s0; j < s1; ++j) {
        const float* col = a + j * lda;
        if (diag == Diag::kNonUnit) {
          xc[j] /= static_cast<double>(col[j]);
        }
        const double xj = xc[j];
        for (index_t i = j + 1; i < s1; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
      // Panel update of the rows below the stripe (the TRSM "GEMM"
      // stage, kept as ordered axpys for the bitwise contract).
      for (index_t j = s0; j < s1; ++j) {
        const float* col = a + j * lda;
        const double xj = xc[j];
        for (index_t i = s1; i < n; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
    }
  }
}

/// One chunk of right-hand-side columns, backward substitution (mirror of
/// mixedLowerColumns: stripes and columns walk downward).
void mixedUpperColumns(Diag diag, index_t n, const float* a, index_t lda,
                       double* x, index_t ldx, index_t c0, index_t c1) {
  for (index_t s1 = n; s1 > 0; s1 -= std::min(s1, kMixedStripe)) {
    const index_t s0 = s1 - std::min(s1, kMixedStripe);
    for (index_t c = c0; c < c1; ++c) {
      double* xc = x + c * ldx;
      for (index_t j = s1 - 1; j >= s0; --j) {
        const float* col = a + j * lda;
        if (diag == Diag::kNonUnit) {
          xc[j] /= static_cast<double>(col[j]);
        }
        const double xj = xc[j];
        for (index_t i = s0; i < j; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
      for (index_t j = s1 - 1; j >= s0; --j) {
        const float* col = a + j * lda;
        const double xj = xc[j];
        for (index_t i = 0; i < s0; ++i) {
          xc[i] -= static_cast<double>(col[i]) * xj;
        }
      }
    }
  }
}

}  // namespace

void strsmMixed(Uplo uplo, Diag diag, index_t n, index_t nrhs, const float* a,
                index_t lda, double* x, index_t ldx, ThreadPool* pool) {
  HPLMXP_REQUIRE(n >= 0 && nrhs >= 0, "strsmMixed: negative extent");
  if (n == 0 || nrhs == 0) {
    return;
  }
  HPLMXP_REQUIRE(lda >= n, "strsmMixed: lda too small");
  HPLMXP_REQUIRE(ldx >= n, "strsmMixed: ldx too small");
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  // Columns are independent solves; chunking over them keeps each stripe
  // of the factor hot across a chunk's columns with zero synchronization.
  pool->parallelForChunked(
      0, nrhs,
      [&](index_t c0, index_t c1) {
        if (uplo == Uplo::kLower) {
          mixedLowerColumns(diag, n, a, lda, x, ldx, c0, c1);
        } else {
          mixedUpperColumns(diag, n, a, lda, x, ldx, c0, c1);
        }
      },
      nrhs);
}

}  // namespace hplmxp::blas
