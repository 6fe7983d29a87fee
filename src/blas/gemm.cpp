#include "blas/gemm.h"

#include "blas/microkernel.h"
#include "blas/tune.h"

namespace hplmxp::blas {

namespace {

// Upper bound on one GEMM invocation's pack working set; kc is halved (it
// only affects speed, never results) until the packed panels fit.
constexpr std::size_t kPackBytesCap = std::size_t{96} << 20;

using kernel::kAvx2Tile;
using kernel::kAvx512Tile;
using kernel::kSse2Tile;
using kernel::microTile;
using kernel::packAStrip;
using kernel::packBStrip;

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
        microTile<MR, NR, false>(p.kc, ap, bp, p.c + ir + jr * p.ldc, p.ldc, rows,
                          cols);
      }
    }
  }
}

// Per-ISA entry points. Each always-inlines the shared templates above
// at its ISA's tile shape. The AVX ones are the only functions compiled
// for a wider ISA than the baseline, and the wide code never leaves
// them (tests/blas_isa_audit.cmake checks this, and that no FMA was
// contracted).
template <typename TIn, typename TAcc>
void packSse2(const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  packRange<kSse2Tile.mr, kSse2Tile.nr>(p, lo, hi);
}
template <typename TIn, typename TAcc>
void computeSse2(const Panel<TIn, TAcc>& p, index_t lo, index_t hi) {
  computeRange<kSse2Tile.mr, kSse2Tile.nr>(p, lo, hi);
}

#if defined(__x86_64__) || defined(__i386__)
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
