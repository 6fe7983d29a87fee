#include "blas/cast.h"

#include <cmath>
#include <cstring>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "blas/tune.h"
#include "lowp/scale.h"
#include "lowp/traits.h"

namespace hplmxp::blas {

namespace {

constexpr index_t kColChunk = 16;

/// Converts each column of m x n src into dst through run(s, d, count),
/// which converts one contiguous column segment.
template <typename TSrc, typename TDst, typename Run>
void castColumns(index_t m, index_t n, const TSrc* src, index_t ldSrc,
                 TDst* dst, index_t ldDst, ThreadPool* pool, const Run& run) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "cast dims must be >= 0");
  HPLMXP_REQUIRE(ldSrc >= (m > 0 ? m : 1) && ldDst >= (m > 0 ? m : 1),
                 "cast: leading dimension too small");
  if (m == 0 || n == 0) {
    return;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  pool->parallelForChunked(
      0, n,
      [&](index_t j0, index_t j1) {
        for (index_t j = j0; j < j1; ++j) {
          run(src + j * ldSrc, dst + j * ldDst, m);
        }
      },
      ceilDiv(n, kColChunk));
}

/// The run form (see castColumns) of an element-wise conversion.
template <typename Convert>
auto elementwise(Convert convert) {
  return [convert](const auto* s, auto* d, index_t count) {
    for (index_t i = 0; i < count; ++i) {
      d[i] = convert(s[i]);
    }
  };
}

/// dst(j,i) = narrow(src(i,j)), run(s, d, count) narrowing one contiguous
/// column segment. Each 32 x 32 tile is narrowed column by column into a
/// stack buffer, then transposed into dst as whole storage words.
template <typename TLow, typename Run>
void transCastCore(index_t m, index_t n, const float* src, index_t ldSrc,
                   TLow* dst, index_t ldDst, ThreadPool* pool,
                   const Run& run) {
  HPLMXP_REQUIRE(m >= 0 && n >= 0, "trans_cast dims must be >= 0");
  HPLMXP_REQUIRE(ldSrc >= (m > 0 ? m : 1), "trans_cast: ldSrc too small");
  HPLMXP_REQUIRE(ldDst >= (n > 0 ? n : 1), "trans_cast: ldDst too small");
  if (m == 0 || n == 0) {
    return;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  constexpr index_t kTile = 32;
  const index_t rowTiles = ceilDiv(m, kTile);
  const index_t colTiles = ceilDiv(n, kTile);
  pool->parallelForChunked(0, rowTiles * colTiles, [&](index_t lo,
                                                       index_t hi) {
    TLow tile[kTile * kTile];
    for (index_t t = lo; t < hi; ++t) {
      const index_t i0 = (t % rowTiles) * kTile;
      const index_t j0 = (t / rowTiles) * kTile;
      const index_t rows = std::min(kTile, m - i0);
      const index_t cols = std::min(kTile, n - j0);
      for (index_t j = 0; j < cols; ++j) {
        run(src + i0 + (j0 + j) * ldSrc, tile + j * kTile, rows);
      }
      for (index_t i = 0; i < rows; ++i) {
        TLow* d = dst + j0 + (i0 + i) * ldDst;
        for (index_t j = 0; j < cols; ++j) {
          d[j] = tile[i + j * kTile];
        }
      }
    }
  });
}

/// Narrows one contiguous run to binary16: dst[i] = half16(src[i]).
using HalfNarrowFn = void (*)(const float*, half16*, index_t);

// Per-ISA narrowing entry points, picked by the same ISA as the GEMM
// (blas/tune.h). The scalar one is the definition; the F16C ones convert
// with vcvtps2ph, which rounds to nearest even exactly like
// half16::fromFloat. The one difference is NaN: vcvtps2ph keeps the top
// payload bits, fromFloat returns sign | 0x7E00, so NaN lanes are
// rewritten. tests/test_half.cpp checks all 2^32 inputs on every ISA.
void narrowSse2(const float* src, half16* dst, index_t count) {
  for (index_t i = 0; i < count; ++i) {
    dst[i] = half16(src[i]);
  }
}

#if defined(__x86_64__) || defined(__i386__)
/// Rewrites the NaN lanes of 8 binary16 words to sign | 0x7E00.
[[gnu::target("avx2,f16c"), gnu::always_inline]] inline __m128i
canonicalNan8(__m128i h) {
  const __m128i nan = _mm_cmpgt_epi16(_mm_and_si128(h, _mm_set1_epi16(0x7FFF)),
                                      _mm_set1_epi16(0x7C00));
  const __m128i quiet = _mm_or_si128(
      _mm_and_si128(h, _mm_set1_epi16(static_cast<short>(0x8000))),
      _mm_set1_epi16(0x7E00));
  return _mm_blendv_epi8(h, quiet, nan);
}

[[gnu::target("avx2,f16c"), gnu::always_inline]] inline __m128i narrow8(
    __m256 v) {
  return canonicalNan8(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

[[gnu::target("avx2,f16c")]] void narrowAvx2(const float* src, half16* dst,
                                             index_t count) {
  index_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     narrow8(_mm256_loadu_ps(src + i)));
  }
  if (i < count) {
    const auto rest = static_cast<std::size_t>(count - i);
    float in[8] = {};
    half16 out[8];
    std::memcpy(in, src + i, rest * sizeof(float));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     narrow8(_mm256_loadu_ps(in)));
    std::memcpy(dst + i, out, rest * sizeof(half16));
  }
}

/// 16 lanes: vcvtps2ph on zmm, then the NaN fix-up on both halves.
[[gnu::target("avx512f,avx512vl"), gnu::always_inline]] inline __m256i
narrow16(__m512 v) {
  // The maskz form with every lane set: GCC 12's _mm512_cvtps_ph passes
  // an undefined vector that -Wmaybe-uninitialized reports.
  const __m256i h = _mm512_maskz_cvtps_ph(
      0xFFFF, v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256i nan =
      _mm256_cmpgt_epi16(_mm256_and_si256(h, _mm256_set1_epi16(0x7FFF)),
                         _mm256_set1_epi16(0x7C00));
  const __m256i quiet = _mm256_or_si256(
      _mm256_and_si256(h, _mm256_set1_epi16(static_cast<short>(0x8000))),
      _mm256_set1_epi16(0x7E00));
  return _mm256_blendv_epi8(h, quiet, nan);
}

[[gnu::target("avx512f,avx512vl")]] void narrowAvx512(const float* src,
                                                      half16* dst,
                                                      index_t count) {
  index_t i = 0;
  for (; i + 16 <= count; i += 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        narrow16(_mm512_loadu_ps(src + i)));
  }
  if (i < count) {
    const auto rest = static_cast<std::size_t>(count - i);
    float in[16] = {};
    half16 out[16];
    std::memcpy(in, src + i, rest * sizeof(float));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        narrow16(_mm512_loadu_ps(in)));
    std::memcpy(dst + i, out, rest * sizeof(half16));
  }
}
#endif

/// The calling thread's narrowing entry point (its GEMM ISA).
HalfNarrowFn halfNarrowFn() {
  switch (detail::callerGemmKernel().isa) {
#if defined(__x86_64__) || defined(__i386__)
    case GemmIsa::kAvx512:
      return &narrowAvx512;
    case GemmIsa::kAvx2:
      return &narrowAvx2;
#endif
    default:
      return &narrowSse2;
  }
}

/// Narrows one contiguous run: binary16 through the caller's ISA entry
/// point, the other rungs element by element.
template <typename TLow>
auto narrowRun() {
  if constexpr (std::is_same_v<TLow, half16>) {
    return [narrow = halfNarrowFn()](const float* s, half16* d,
                                     index_t count) { narrow(s, d, count); };
  } else {
    return elementwise([](float v) { return TLow(v); });
  }
}

/// Tile amax (max |src(i,j)|), parallel per-chunk maxima folded with
/// std::max — order-free, so the result is thread-count independent.
float tileAmax(index_t m, index_t n, const float* src, index_t ldSrc,
               ThreadPool* pool) {
  if (m == 0 || n == 0) {
    return 0.0f;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  const index_t chunks = ceilDiv(n, kColChunk);
  std::vector<float> partial(static_cast<std::size_t>(chunks), 0.0f);
  pool->parallelForChunked(
      0, chunks,
      [&](index_t c0, index_t c1) {
        for (index_t c = c0; c < c1; ++c) {
          float best = 0.0f;
          const index_t j1 = std::min(n, (c + 1) * kColChunk);
          for (index_t j = c * kColChunk; j < j1; ++j) {
            const float* s = src + j * ldSrc;
            for (index_t i = 0; i < m; ++i) {
              best = std::max(best, std::fabs(s[i]));
            }
          }
          partial[static_cast<std::size_t>(c)] = best;
        }
      },
      chunks);
  float amax = 0.0f;
  for (float v : partial) {
    amax = std::max(amax, v);
  }
  return amax;
}

}  // namespace

template <typename TLow>
void castToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                TLow* dst, index_t ldDst, ThreadPool* pool) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool, narrowRun<TLow>());
}

template <typename TLow>
void transCastToLowp(index_t m, index_t n, const float* src, index_t ldSrc,
                     TLow* dst, index_t ldDst, ThreadPool* pool) {
  transCastCore(m, n, src, ldSrc, dst, ldDst, pool, narrowRun<TLow>());
}

template <typename TLow>
void lowpToFloat(index_t m, index_t n, const TLow* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              elementwise([](TLow v) { return v.toFloat(); }));
}

template <typename TLow>
float castToLowpScaled(index_t m, index_t n, const float* src, index_t ldSrc,
                       TLow* dst, index_t ldDst, ThreadPool* pool) {
  const float amax = tileAmax(m, n, src, ldSrc, pool);
  const float s =
      lowp::tileScale(amax, lowp::StorageTraits<TLow>::maxFinite());
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              elementwise([s](float v) { return TLow(v / s); }));
  return s;
}

template <typename TLow>
float transCastToLowpScaled(index_t m, index_t n, const float* src,
                            index_t ldSrc, TLow* dst, index_t ldDst,
                            ThreadPool* pool) {
  const float amax = tileAmax(m, n, src, ldSrc, pool);
  const float s =
      lowp::tileScale(amax, lowp::StorageTraits<TLow>::maxFinite());
  transCastCore(m, n, src, ldSrc, dst, ldDst, pool,
                elementwise([s](float v) { return TLow(v / s); }));
  return s;
}

// The four ladder rungs.
#define HPLMXP_INSTANTIATE_CASTS(T)                                          \
  template void castToLowp<T>(index_t, index_t, const float*, index_t, T*,   \
                              index_t, ThreadPool*);                         \
  template void transCastToLowp<T>(index_t, index_t, const float*, index_t,  \
                                   T*, index_t, ThreadPool*);                \
  template void lowpToFloat<T>(index_t, index_t, const T*, index_t, float*,  \
                               index_t, ThreadPool*);                        \
  template float castToLowpScaled<T>(index_t, index_t, const float*,         \
                                     index_t, T*, index_t, ThreadPool*);     \
  template float transCastToLowpScaled<T>(index_t, index_t, const float*,    \
                                          index_t, T*, index_t, ThreadPool*)

HPLMXP_INSTANTIATE_CASTS(half16);
HPLMXP_INSTANTIATE_CASTS(lowp::bfloat16);
HPLMXP_INSTANTIATE_CASTS(lowp::fp8e4m3);
HPLMXP_INSTANTIATE_CASTS(lowp::fp8e5m2);
#undef HPLMXP_INSTANTIATE_CASTS

void castToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                half16* dst, index_t ldDst, ThreadPool* pool) {
  castToLowp<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void transCastToHalf(index_t m, index_t n, const float* src, index_t ldSrc,
                     half16* dst, index_t ldDst, ThreadPool* pool) {
  transCastToLowp<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void castToFloat(index_t m, index_t n, const half16* src, index_t ldSrc,
                 float* dst, index_t ldDst, ThreadPool* pool) {
  lowpToFloat<half16>(m, n, src, ldSrc, dst, ldDst, pool);
}

void narrowToFloat(index_t m, index_t n, const double* src, index_t ldSrc,
                   float* dst, index_t ldDst, ThreadPool* pool) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              elementwise([](double v) { return static_cast<float>(v); }));
}

void widenToDouble(index_t m, index_t n, const float* src, index_t ldSrc,
                   double* dst, index_t ldDst, ThreadPool* pool) {
  castColumns(m, n, src, ldSrc, dst, ldDst, pool,
              elementwise([](float v) { return static_cast<double>(v); }));
}

}  // namespace hplmxp::blas
