// Unit and property tests of the software IEEE binary16 type. Correct
// storage rounding is what drives the numerical behaviour of the whole
// mixed-precision benchmark, so this module is tested exhaustively.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/cast.h"
#include "blas/gemm.h"
#include "blas/reference.h"
#include "blas/tune.h"
#include "encoding_oracle.h"
#include "fp16/half.h"
#include "util/thread_pool.h"

namespace hplmxp {
namespace {

TEST(Half, ZeroAndSigns) {
  EXPECT_EQ(half16(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half16(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(half16(0.0f).toFloat(), 0.0f);
  EXPECT_TRUE(std::signbit(half16(-0.0f).toFloat()));
}

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2^11 are exactly representable.
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(half16(f).toFloat(), f) << "i=" << i;
  }
}

TEST(Half, KnownValues) {
  EXPECT_EQ(half16(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(half16(-2.0f).bits(), 0xC000u);
  EXPECT_EQ(half16(65504.0f).bits(), 0x7BFFu);  // max finite
  EXPECT_EQ(half16(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half16(6.103515625e-05f).bits(), 0x0400u);  // min normal
  EXPECT_EQ(half16(5.9604644775390625e-08f).bits(), 0x0001u);  // min subnorm
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half16(65520.0f).isInf());  // rounds past max finite
  EXPECT_TRUE(half16(1e10f).isInf());
  EXPECT_TRUE(half16(-1e10f).toFloat() < 0.0f);
  EXPECT_TRUE(half16(-1e10f).isInf());
  // 65519.996 rounds to 65504 (below the midpoint 65520).
  EXPECT_EQ(half16(65519.0f).toFloat(), 65504.0f);
}

TEST(Half, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(half16(inf).isInf());
  EXPECT_TRUE(half16(-inf).isInf());
  EXPECT_TRUE(half16(std::numeric_limits<float>::quiet_NaN()).isNan());
  EXPECT_TRUE(std::isnan(half16(std::nanf("1")).toFloat()));
}

TEST(Half, RoundToNearestEvenAtOne) {
  // Between 1.0 and 1.0 + 2^-10, the midpoint 1 + 2^-11 ties to even (1.0).
  const float ulp = 9.765625e-04f;  // 2^-10
  EXPECT_EQ(half16(1.0f + ulp / 2.0f).toFloat(), 1.0f);        // tie -> even
  EXPECT_EQ(half16(1.0f + ulp * 0.51f).toFloat(), 1.0f + ulp);  // above
  EXPECT_EQ(half16(1.0f + ulp * 0.49f).toFloat(), 1.0f);        // below
  // Between 1+ulp and 1+2*ulp the tie rounds UP to the even mantissa.
  EXPECT_EQ(half16(1.0f + 1.5f * ulp).toFloat(), 1.0f + 2.0f * ulp);
}

TEST(Half, SubnormalRounding) {
  const float minSub = 5.9604644775390625e-08f;  // 2^-24
  // Half of the smallest subnormal ties to zero (even).
  EXPECT_EQ(half16(minSub / 2.0f).toFloat(), 0.0f);
  // Slightly above the midpoint rounds up to the smallest subnormal.
  EXPECT_EQ(half16(minSub * 0.75f).toFloat(), minSub);
  // 1.5x smallest subnormal ties to 2x (even).
  EXPECT_EQ(half16(minSub * 1.5f).toFloat(), 2.0f * minSub);
}

TEST(Half, AllBitPatternsRoundTripThroughFloat) {
  // Property: binary16 -> float -> binary16 is the identity for every
  // finite/infinite pattern, and NaNs stay NaNs.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const half16 h = half16::fromBits(static_cast<std::uint16_t>(bits));
    if (h.isNan()) {
      EXPECT_TRUE(half16(h.toFloat()).isNan());
      continue;
    }
    EXPECT_EQ(half16(h.toFloat()).bits(), bits) << "bits=" << bits;
  }
}

TEST(Half, ConversionErrorWithinHalfUlp) {
  // Property: |half(f) - f| <= 2^-11 * |f| for normal-range inputs.
  for (int i = 1; i < 4000; ++i) {
    const float f = 0.37f * static_cast<float>(i);
    if (std::fabs(f) > half16::maxFinite()) {
      break;
    }
    const float err = std::fabs(half16(f).toFloat() - f);
    EXPECT_LE(err, half16::epsilonUnit() * std::fabs(f)) << "f=" << f;
  }
}

TEST(Half, ArithmeticRoundsThroughFloat) {
  const half16 a(1.5f);
  const half16 b(2.25f);
  EXPECT_EQ((a + b).toFloat(), 3.75f);
  EXPECT_EQ((a * b).toFloat(), 3.375f);
  EXPECT_EQ((b - a).toFloat(), 0.75f);
  EXPECT_EQ((b / a).toFloat(), 1.5f);
}

TEST(Half, LimitsConstants) {
  EXPECT_EQ(half16(half16::maxFinite()).toFloat(), 65504.0f);
  EXPECT_EQ(half16(half16::minNormal()).bits(), 0x0400u);
  EXPECT_FLOAT_EQ(half16::epsilonUnit(), std::ldexp(1.0f, -11));
}

// ---------------------------------------------------------------------------
// Exhaustive conversion checks. binary16 has only 2^16 encodings, so the
// decode path can be verified for every value, and the encode path can be
// verified against a table-driven nearest-even oracle that shares no code
// with the implementation.
// ---------------------------------------------------------------------------

TEST(HalfExhaustive, EveryEncodingRoundTripsExactly) {
  long nans = 0;
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto b16 = static_cast<std::uint16_t>(bits);
    const half16 h = half16::fromBits(b16);
    const float f = h.toFloat();
    const std::uint16_t back = half16::fromFloat(f);
    if (h.isNan()) {
      // Every NaN payload canonicalizes to the quiet NaN with the sign
      // preserved — the one fixed point of the NaN encoding class.
      const std::uint16_t canonical =
          static_cast<std::uint16_t>((b16 & 0x8000u) | 0x7E00u);
      EXPECT_EQ(back, canonical) << "bits=" << bits;
      ++nans;
    } else {
      EXPECT_EQ(back, b16) << "bits=" << bits;
      // Widening must agree with the IEEE value class.
      EXPECT_EQ(std::isinf(f), h.isInf()) << "bits=" << bits;
    }
  }
  // 2 * (2^10 - 1) NaN payloads exist; make sure we actually walked them.
  EXPECT_EQ(nans, 2 * 1023);
}

TEST(HalfExhaustive, EncodeMatchesNearestEvenOracle) {
  // Shared table-driven oracle (tests/encoding_oracle.h): all positive
  // finite binary16 values plus a 2^16 sentinel standing in for "the next
  // representable value above maxFinite". Doubles hold every entry and
  // every neighbour midpoint exactly (multiples of 2^-24 below 2^17), so
  // the oracle's compares are exact.
  const oracle::EncodingTable table = oracle::buildEncodingTable<half16>();
  ASSERT_FALSE(table.saturating);  // binary16 overflows to infinity
  ASSERT_EQ(table.entries.back().second, 0x7C00u);
  ASSERT_EQ(table.entries.back().first, 65536.0);

  auto check = [&](float f) {
    if (!std::isfinite(f)) {
      return;
    }
    const auto expected =
        static_cast<std::uint16_t>(oracle::nearestEvenOracle(table, f));
    EXPECT_EQ(half16::fromFloat(f), expected) << "f=" << f;
    EXPECT_EQ(half16::fromFloat(-f),
              static_cast<std::uint16_t>(expected ^ 0x8000u))
        << "f=" << -f;
  };

  // Every exact half value, every neighbour midpoint (the ties-to-even
  // cases), and points just off each midpoint in both directions.
  const auto& grid = table.entries;
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    check(static_cast<float>(grid[i].first));
    const double mid = (grid[i].first + grid[i + 1].first) / 2.0;
    const auto fMid = static_cast<float>(mid);
    check(fMid);
    check(std::nextafter(fMid, 0.0f));
    check(std::nextafter(fMid, 1e30f));
  }

  // Overflow boundary: 65520 = midpoint(65504, "65536") ties up to inf.
  EXPECT_EQ(half16::fromFloat(65520.0f), 0x7C00u);
  EXPECT_EQ(half16::fromFloat(std::nextafter(65520.0f, 0.0f)), 0x7BFFu);
  EXPECT_EQ(half16::fromFloat(-65520.0f), 0xFC00u);

  // Underflow boundary: half the smallest subnormal ties down to zero.
  const float minSub = 5.9604644775390625e-08f;  // 2^-24
  EXPECT_EQ(half16::fromFloat(minSub / 2.0f), 0x0000u);
  EXPECT_EQ(half16::fromFloat(std::nextafter(minSub / 2.0f, 1.0f)), 0x0001u);
  EXPECT_EQ(half16::fromFloat(-minSub / 2.0f), 0x8000u);

  // A deterministic pseudo-random sweep of float bit patterns across the
  // whole finite range (LCG over the 32-bit encodings).
  std::uint32_t s = 0x9E3779B9u;
  for (int i = 0; i < 200000; ++i) {
    s = s * 1664525u + 1013904223u;
    check(std::bit_cast<float>(s & 0x7FFFFFFFu));  // sign covered in check()
  }
}

/// Independent binary16 decoder, sharing no code with toFloatBits: it
/// normalizes subnormals by shifting the significand up.
std::uint32_t decodeByNormalizing(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp16 = (h >> 10) & 0x1Fu;
  const std::uint32_t mant16 = h & 0x3FFu;
  if (exp16 == 0) {
    if (mant16 == 0) {
      return sign;
    }
    int e = -1;
    std::uint32_t m = mant16;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    return sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
           ((m & 0x3FFu) << 13);
  }
  if (exp16 == 31) {
    return sign | 0x7F800000u | (mant16 << 13);
  }
  return sign | ((exp16 + 127 - 15) << 23) | (mant16 << 13);
}

TEST(HalfExhaustive, WideningMatchesNormalizingDecoderBitwise) {
  // Every encoding, signalling NaNs included: their payloads (and the
  // quiet bit's absence) must survive widening.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto b16 = static_cast<std::uint16_t>(bits);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(half16::toFloatBits(b16)),
              decodeByNormalizing(b16))
        << "bits=" << bits;
  }
}

TEST(HalfExhaustive, GemmPackWideningOnEveryIsaMatchesScalarOracle) {
  // The GEMM pack widens FP16 inside each ISA's entry points (vectorized
  // there). A k = 1 product against 1.0 exposes every widened encoding:
  // C = -0 + widen(h) * 1 keeps zero signs and NaN payloads (the multiply
  // quiets signalling NaNs on both sides alike).
  const index_t count = 0x10000;
  std::vector<half16> all(static_cast<std::size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    all[static_cast<std::size_t>(i)] =
        half16::fromBits(static_cast<std::uint16_t>(i));
  }
  const half16 one(1.0f);
  ThreadPool pool(3);
  for (blas::GemmIsa isa : blas::detail::supportedGemmIsas()) {
    blas::detail::ScopedGemmIsa guard(isa);
    for (blas::Trans t : {blas::Trans::kNoTrans, blas::Trans::kTrans}) {
      // All encodings as op(A) (count x 1), then as op(B) (1 x count);
      // with k = 1 either storage order is one contiguous run.
      std::vector<float> c(static_cast<std::size_t>(count), -0.0f);
      auto ref = c;
      blas::gemmMixed(t, blas::Trans::kNoTrans, count, 1, 1, 1.0f, all.data(),
                      t == blas::Trans::kNoTrans ? count : 1, &one, 1, 1.0f,
                      c.data(), count, &pool);
      blas::ref::gemmLowpOrderExact<half16>(
          t, blas::Trans::kNoTrans, count, 1, 1, 1.0f, all.data(),
          t == blas::Trans::kNoTrans ? count : 1, &one, 1, 1.0f, ref.data(),
          count);
      ASSERT_EQ(0, std::memcmp(c.data(), ref.data(), c.size() * 4))
          << blas::gemmKernelShape(isa).name << " A trans=" << (t == blas::Trans::kTrans);
      std::fill(c.begin(), c.end(), -0.0f);
      ref = c;
      blas::gemmMixed(blas::Trans::kNoTrans, t, 1, count, 1, 1.0f, &one, 1,
                      all.data(), t == blas::Trans::kNoTrans ? 1 : count,
                      1.0f, c.data(), 1, &pool);
      blas::ref::gemmLowpOrderExact<half16>(
          blas::Trans::kNoTrans, t, 1, count, 1, 1.0f, &one, 1, all.data(),
          t == blas::Trans::kNoTrans ? 1 : count, 1.0f, ref.data(), 1);
      ASSERT_EQ(0, std::memcmp(c.data(), ref.data(), c.size() * 4))
          << blas::gemmKernelShape(isa).name << " B trans=" << (t == blas::Trans::kTrans);
    }
  }
}

TEST(HalfExhaustive, VectorNarrowingMatchesFromFloatOnEveryIsa) {
  // castToHalf narrows through the calling thread's ISA (blas/cast.cpp);
  // the F16C paths must agree with half16::fromFloat on all 2^32 float
  // bit patterns, NaNs included. The sweep is split across a pool: each
  // task owns a range of high halves, builds the 2^16 floats that share
  // one, and narrows them as one column (one chunk, so on its own thread
  // and through its own ISA guard).
  const std::vector<blas::GemmIsa> isas = blas::detail::supportedGemmIsas();
  ThreadPool pool(3);
  const index_t run = 0x10000;
  std::atomic<long long> mismatches{0};
  std::atomic<std::uint32_t> firstBad{0};
  pool.parallelForChunked(
      0, 0x10000,
      [&](index_t hiLo, index_t hiHi) {
        std::vector<float> in(static_cast<std::size_t>(run));
        std::vector<std::uint16_t> ref(static_cast<std::size_t>(run));
        std::vector<half16> out(static_cast<std::size_t>(run));
        for (index_t hi = hiLo; hi < hiHi; ++hi) {
          for (index_t lo = 0; lo < run; ++lo) {
            const auto bits = static_cast<std::uint32_t>(hi << 16 | lo);
            in[static_cast<std::size_t>(lo)] = std::bit_cast<float>(bits);
            ref[static_cast<std::size_t>(lo)] =
                half16::fromFloat(std::bit_cast<float>(bits));
          }
          for (blas::GemmIsa isa : isas) {
            blas::detail::ScopedGemmIsa guard(isa);
            blas::castToHalf(run, 1, in.data(), run, out.data(), run, &pool);
            if (std::memcmp(out.data(), ref.data(), ref.size() * 2) == 0) {
              continue;
            }
            for (index_t lo = 0; lo < run; ++lo) {
              if (out[static_cast<std::size_t>(lo)].bits() !=
                  ref[static_cast<std::size_t>(lo)]) {
                firstBad.store(static_cast<std::uint32_t>(hi << 16 | lo));
                mismatches.fetch_add(1);
              }
            }
          }
        }
      },
      256);
  EXPECT_EQ(mismatches.load(), 0)
      << "e.g. float bits 0x" << std::hex << firstBad.load();
}

TEST(HalfNarrowing, TransCastAndTailsMatchFromFloatOnEveryIsa) {
  // The narrowing tails (runs that are no multiple of 8 or 16) and the
  // transposing cast's 32 x 32 tiles, on every ISA, against fromFloat.
  const index_t m = 45;
  const index_t n = 71;
  std::vector<float> src(static_cast<std::size_t>(m * n));
  std::uint32_t s = 12345u;
  for (auto& v : src) {
    s = s * 1664525u + 1013904223u;
    v = std::bit_cast<float>(s);  // every class: NaN, inf, subnormal, ...
  }
  ThreadPool pool(3);
  for (blas::GemmIsa isa : blas::detail::supportedGemmIsas()) {
    blas::detail::ScopedGemmIsa guard(isa);
    std::vector<half16> plain(static_cast<std::size_t>(m * n));
    std::vector<half16> trans(static_cast<std::size_t>(m * n));
    blas::castToHalf(m, n, src.data(), m, plain.data(), m, &pool);
    blas::transCastToHalf(m, n, src.data(), m, trans.data(), n, &pool);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        const std::uint16_t want =
            half16::fromFloat(src[static_cast<std::size_t>(i + j * m)]);
        ASSERT_EQ(plain[static_cast<std::size_t>(i + j * m)].bits(), want)
            << blas::gemmKernelShape(isa).name << " i=" << i << " j=" << j;
        ASSERT_EQ(trans[static_cast<std::size_t>(j + i * n)].bits(), want)
            << blas::gemmKernelShape(isa).name << " i=" << i << " j=" << j;
      }
    }
  }
}

/// Casting a panel whose entries are bounded by 1 (the L panel after the
/// diagonally-dominant TRSM) loses at most the unit roundoff per entry —
/// the property the paper's mixed-precision GEMM accuracy rests on.
TEST(Half, PanelEntriesSurviveCast) {
  for (int i = 0; i < 2000; ++i) {
    const float v = -1.0f + 0.001f * static_cast<float>(i);
    const float err = std::fabs(half16(v).toFloat() - v);
    EXPECT_LE(err, half16::epsilonUnit() * std::max(std::fabs(v), 1e-3f));
  }
}

}  // namespace
}  // namespace hplmxp
