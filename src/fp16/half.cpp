#include "fp16/half.h"

#include <bit>
#include <cstring>

namespace hplmxp {

namespace {
constexpr std::uint32_t kF32SignMask = 0x80000000u;
constexpr int kF32ExpBias = 127;
constexpr int kF16ExpBias = 15;
}  // namespace

std::uint16_t half16::fromFloat(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint16_t sign =
      static_cast<std::uint16_t>((x & kF32SignMask) >> 16);
  const std::uint32_t absBits = x & 0x7FFFFFFFu;
  const int exp32 = static_cast<int>(absBits >> 23);
  const std::uint32_t mant32 = absBits & 0x007FFFFFu;

  if (exp32 == 0xFF) {
    // Inf / NaN: keep NaN-ness (quiet it) and propagate infinity.
    if (mant32 != 0) {
      return static_cast<std::uint16_t>(sign | 0x7E00u);  // qNaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);  // inf
  }

  const int unbiased = exp32 - kF32ExpBias;

  if (unbiased > 15) {
    // Overflows binary16 range (max exp = 15): round to infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  if (unbiased >= -14) {
    // Normal result. 23 - 10 = 13 mantissa bits are dropped.
    std::uint32_t mant = mant32;
    std::uint16_t exp16 = static_cast<std::uint16_t>(unbiased + kF16ExpBias);
    const std::uint32_t dropped = mant & 0x1FFFu;
    std::uint32_t kept = mant >> 13;
    // Round to nearest, ties to even.
    if (dropped > 0x1000u || (dropped == 0x1000u && (kept & 1u) != 0)) {
      ++kept;
      if (kept == 0x400u) {  // mantissa carry into exponent
        kept = 0;
        ++exp16;
        if (exp16 == 31) {
          return static_cast<std::uint16_t>(sign | 0x7C00u);
        }
      }
    }
    return static_cast<std::uint16_t>(sign | (exp16 << 10) |
                                      static_cast<std::uint16_t>(kept));
  }

  if (unbiased >= -25) {
    // Subnormal binary16 result (unbiased in [-25, -15]): the value is
    // significand * 2^(unbiased-23) and the target field counts units of
    // 2^-24, so m = significand >> (-unbiased - 1). unbiased == -25 rounds
    // to either 0 or the smallest subnormal under ties-to-even.
    const std::uint32_t significand = 0x00800000u | mant32;  // 1.xxx, 24 bits
    const int shift = -unbiased - 1;                         // in [14, 24]
    const std::uint32_t kept = significand >> shift;
    const std::uint32_t droppedMask = (1u << shift) - 1u;
    const std::uint32_t dropped = significand & droppedMask;
    const std::uint32_t half = 1u << (shift - 1);
    std::uint32_t mant = kept;
    if (dropped > half || (dropped == half && (mant & 1u) != 0)) {
      ++mant;  // may carry into the normal range: 0x400 encodes exp=1 mant=0
    }
    return static_cast<std::uint16_t>(sign | mant);
  }

  // Underflows to zero (magnitude below half of the smallest subnormal).
  return sign;
}

}  // namespace hplmxp
