#include "blas/gemm.h"

#include "blas/tune.h"

namespace hplmxp::blas {

namespace {

// Upper bound on one GEMM invocation's pack working set; kc is halved (it
// only affects speed, never results) until the packed panels fit.
constexpr std::size_t kPackBytesCap = std::size_t{96} << 20;

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
/// their arithmetic. kEdge = true is the templated edge path: partial
/// tiles load/store through bounds masks while the mul-add loop stays
/// full-width (the packed strips are zero-padded, so the padded lanes
/// are dead weight, not branches).
template <index_t MR, index_t NR, typename TAcc, bool kEdge>
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
        acc[j][i] += a[i] * bv;
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

/// One k panel of one GEMM call: everything the per-ISA entry points
/// need to pack strips and compute macro-tiles of it.
template <typename TIn, typename TAcc>
struct Panel {
  Trans ta, tb;
  index_t m, n;
  const TIn* a;
  index_t lda;
  const TIn* b;
  index_t ldb;
  TAcc alpha;
  TAcc* c;
  index_t ldc;
  index_t k0, kc;
  TAcc* aPack;
  TAcc* bPack;
  index_t aStrips;
  index_t mc, nc, nBlocks;
};

/// Packs strips [lo, hi) of the panel: every A strip is packed exactly
/// once per k panel and shared across all column blocks; the B panel is
/// packed once and shared too. Strips below aStrips are A, the rest B.
template <index_t MR, index_t NR, typename TIn, typename TAcc>
[[gnu::always_inline]] inline void packRange(const Panel<TIn, TAcc>& p,
                                             index_t lo, index_t hi) {
  for (index_t u = lo; u < hi; ++u) {
    if (u < p.aStrips) {
      const index_t i0 = u * MR;
      packAStrip<MR>(p.ta, p.a, p.lda, i0, std::min(MR, p.m - i0), p.k0, p.kc,
                     p.aPack + u * (MR * p.kc));
    } else {
      const index_t j0 = (u - p.aStrips) * NR;
      packBStrip<NR>(p.tb, p.b, p.ldb, p.k0, j0, std::min(NR, p.n - j0), p.kc,
                     p.alpha, p.bPack + (u - p.aStrips) * (NR * p.kc));
    }
  }
}

/// Computes (mc x nc) macro-tiles [lo, hi) of the panel, row-major over
/// the nBlocks-wide tile grid.
template <index_t MR, index_t NR, typename TIn, typename TAcc>
[[gnu::always_inline]] inline void computeRange(const Panel<TIn, TAcc>& p,
                                                index_t lo, index_t hi) {
  for (index_t t = lo; t < hi; ++t) {
    const index_t i0 = (t / p.nBlocks) * p.mc;
    const index_t j0 = (t % p.nBlocks) * p.nc;
    const index_t iEnd = std::min(p.m, i0 + p.mc);
    const index_t jEnd = std::min(p.n, j0 + p.nc);
    for (index_t jr = j0; jr < jEnd; jr += NR) {
      const index_t cols = std::min(NR, p.n - jr);
      const TAcc* bp = p.bPack + (jr / NR) * (NR * p.kc);
      for (index_t ir = i0; ir < iEnd; ir += MR) {
        const index_t rows = std::min(MR, p.m - ir);
        const TAcc* ap = p.aPack + (ir / MR) * (MR * p.kc);
        TAcc* ctile = p.c + ir + jr * p.ldc;
        if (rows == MR && cols == NR) {
          microKernel<MR, NR, TAcc, false>(p.kc, ap, bp, ctile, p.ldc, rows,
                                           cols);
        } else {
          microKernel<MR, NR, TAcc, true>(p.kc, ap, bp, ctile, p.ldc, rows,
                                          cols);
        }
      }
    }
  }
}

// Per-ISA entry points. Each always-inlines the shared templates above
// at its ISA's tile shape. The AVX ones are the only functions compiled
// for a wider ISA than the baseline, and the wide code never leaves
// them (tests/blas_isa_audit.cmake checks this, and that no FMA was
// contracted).
constexpr GemmKernelShape kSse2Tile = gemmKernelShape(GemmIsa::kSse2);

template <typename TIn, typename TAcc>
void packSse2(const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  packRange<kSse2Tile.mr, kSse2Tile.nr>(p, lo, hi);
}
template <typename TIn, typename TAcc>
void computeSse2(const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  computeRange<kSse2Tile.mr, kSse2Tile.nr>(p, lo, hi);
}

#if defined(__x86_64__) || defined(__i386__)
constexpr GemmKernelShape kAvx2Tile = gemmKernelShape(GemmIsa::kAvx2);
constexpr GemmKernelShape kAvx512Tile = gemmKernelShape(GemmIsa::kAvx512);

template <typename TIn, typename TAcc>
[[gnu::target("avx2")]] void packAvx2(const Panel<TIn, TAcc>& p, index_t lo,
                                      index_t hi) {
  packRange<kAvx2Tile.mr, kAvx2Tile.nr>(p, lo, hi);
}
template <typename TIn, typename TAcc>
[[gnu::target("avx2")]] void computeAvx2(const Panel<TIn, TAcc>& p,
                                         index_t lo, index_t hi) {
  computeRange<kAvx2Tile.mr, kAvx2Tile.nr>(p, lo, hi);
}

template <typename TIn, typename TAcc>
[[gnu::target("avx512f,avx512vl")]] void packAvx512(
    const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  packRange<kAvx512Tile.mr, kAvx512Tile.nr>(p, lo, hi);
}
template <typename TIn, typename TAcc>
[[gnu::target("avx512f,avx512vl")]] void computeAvx512(
    const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  computeRange<kAvx512Tile.mr, kAvx512Tile.nr>(p, lo, hi);
}
#endif

/// The compiled pack and compute entry points of one ISA.
template <typename TIn, typename TAcc>
struct KernelFns {
  void (*pack)(const Panel<TIn, TAcc>&, index_t, index_t);
  void (*compute)(const Panel<TIn, TAcc>&, index_t, index_t);
};

template <typename TIn, typename TAcc>
KernelFns<TIn, TAcc> kernelFns(GemmIsa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case GemmIsa::kAvx512:
      return {&packAvx512<TIn, TAcc>, &computeAvx512<TIn, TAcc>};
    case GemmIsa::kAvx2:
      return {&packAvx2<TIn, TAcc>, &computeAvx2<TIn, TAcc>};
#endif
    default:
      return {&packSse2<TIn, TAcc>, &computeSse2<TIn, TAcc>};
  }
}

template <typename TIn, typename TAcc>
void gemmCore(Trans ta, Trans tb, index_t m, index_t n, index_t k, TAcc alpha,
              const TIn* a, index_t lda, const TIn* b, index_t ldb, TAcc beta,
              TAcc* c, index_t ldc, ThreadPool* pool) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dims must be >= 0");
  HPLMXP_REQUIRE(ldc >= (m > 0 ? m : 1), "gemm: ldc too small");
  if (m == 0 || n == 0) {
    return;
  }
  const index_t opARows = (ta == Trans::kNoTrans) ? m : k;
  const index_t opBRows = (tb == Trans::kNoTrans) ? k : n;
  HPLMXP_REQUIRE(lda >= (opARows > 0 ? opARows : 1), "gemm: lda too small");
  HPLMXP_REQUIRE(ldb >= (opBRows > 0 ? opBRows : 1), "gemm: ldb too small");

  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }

  // beta-scale all of C once, up front (element-wise, order-free).
  pool->parallelForChunked(0, n, [&](index_t jLo, index_t jHi) {
    for (index_t j = jLo; j < jHi; ++j) {
      TAcc* col = c + j * ldc;
      if (beta == TAcc{0}) {
        for (index_t i = 0; i < m; ++i) {
          col[i] = TAcc{0};
        }
      } else if (beta != TAcc{1}) {
        for (index_t i = 0; i < m; ++i) {
          col[i] *= beta;
        }
      }
    }
  });
  if (k == 0 || alpha == TAcc{0}) {
    return;
  }

  // The single ISA dispatch point: the shape sizes the blocking and the
  // pack buffers, the entry points run the panels.
  const GemmKernelShape& kern = detail::callerGemmKernel();
  const KernelFns<TIn, TAcc> fns = kernelFns<TIn, TAcc>(kern.isa);
  const index_t mr = kern.mr;
  const index_t nr = kern.nr;

  GemmBlocking bl = gemmBlocking();
  bl.mc = roundUp(std::max<index_t>(bl.mc, mr), mr);
  bl.nc = roundUp(std::max<index_t>(bl.nc, nr), nr);
  const index_t mPad = roundUp(m, mr);
  const index_t nPad = roundUp(n, nr);
  index_t kcMax = std::min(std::max<index_t>(bl.kc, 1), k);
  while (kcMax > 64 &&
         static_cast<std::size_t>(mPad + nPad) * kcMax * sizeof(TAcc) >
             kPackBytesCap) {
    kcMax /= 2;  // speed-only: the accumulation order is kc-independent
  }

  // Persistent pack arenas: one lease per invocation, shared read-only by
  // every compute task. Steady-state calls never touch the allocator.
  auto lease = pool->scratch();
  Arena& arena = lease.arena();
  arena.reserve(static_cast<std::size_t>(mPad + nPad) * kcMax * sizeof(TAcc) +
                2 * 64);
  Panel<TIn, TAcc> p{.ta = ta,
                     .tb = tb,
                     .m = m,
                     .n = n,
                     .a = a,
                     .lda = lda,
                     .b = b,
                     .ldb = ldb,
                     .alpha = alpha,
                     .c = c,
                     .ldc = ldc,
                     .k0 = 0,
                     .kc = 0,
                     .aPack = arena.alloc<TAcc>(mPad * kcMax),
                     .bPack = arena.alloc<TAcc>(nPad * kcMax),
                     .aStrips = mPad / mr,
                     .mc = bl.mc,
                     .nc = bl.nc,
                     .nBlocks = ceilDiv(n, bl.nc)};
  const index_t strips = p.aStrips + nPad / nr;
  const index_t tiles = ceilDiv(m, bl.mc) * p.nBlocks;

  for (index_t k0 = 0; k0 < k; k0 += kcMax) {
    p.k0 = k0;
    p.kc = std::min(kcMax, k - k0);
    pool->parallelForChunked(
        0, strips, [&](index_t lo, index_t hi) { fns.pack(p, lo, hi); });
    // 2D parallelization over (mc x nc) macro-tiles. Each C tile is owned
    // by exactly one task per panel and panels run in ascending-k order
    // behind a barrier, so every element's accumulation order is fixed no
    // matter the thread count, blocking or ISA.
    pool->parallelForChunked(
        0, tiles, [&](index_t lo, index_t hi) { fns.compute(p, lo, hi); });
  }
}

}  // namespace

void sgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc, ThreadPool* pool) {
  gemmCore<float, float>(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta,
                         c, ldc, pool);
}

void dgemm(Trans transA, Trans transB, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           ThreadPool* pool) {
  gemmCore<double, double>(transA, transB, m, n, k, alpha, a, lda, b, ldb,
                           beta, c, ldc, pool);
}

template <typename TLow>
void gemmLowp(Trans transA, Trans transB, index_t m, index_t n, index_t k,
              float alpha, const TLow* a, index_t lda, const TLow* b,
              index_t ldb, float beta, float* c, index_t ldc,
              ThreadPool* pool) {
  gemmCore<TLow, float>(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, pool);
}

template void gemmLowp<half16>(Trans, Trans, index_t, index_t, index_t, float,
                               const half16*, index_t, const half16*, index_t,
                               float, float*, index_t, ThreadPool*);
template void gemmLowp<lowp::bfloat16>(Trans, Trans, index_t, index_t,
                                       index_t, float, const lowp::bfloat16*,
                                       index_t, const lowp::bfloat16*,
                                       index_t, float, float*, index_t,
                                       ThreadPool*);
template void gemmLowp<lowp::fp8e4m3>(Trans, Trans, index_t, index_t, index_t,
                                      float, const lowp::fp8e4m3*, index_t,
                                      const lowp::fp8e4m3*, index_t, float,
                                      float*, index_t, ThreadPool*);
template void gemmLowp<lowp::fp8e5m2>(Trans, Trans, index_t, index_t, index_t,
                                      float, const lowp::fp8e5m2*, index_t,
                                      const lowp::fp8e5m2*, index_t, float,
                                      float*, index_t, ThreadPool*);

void gemmMixed(Trans transA, Trans transB, index_t m, index_t n, index_t k,
               float alpha, const half16* a, index_t lda, const half16* b,
               index_t ldb, float beta, float* c, index_t ldc,
               ThreadPool* pool) {
  gemmLowp<half16>(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c,
                   ldc, pool);
}

}  // namespace hplmxp::blas
