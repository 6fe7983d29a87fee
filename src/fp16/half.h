// Software IEEE 754 binary16 ("half") storage type.
//
// The paper's trailing-matrix GEMM consumes FP16 panels produced by the
// CAST / TRANS_CAST phases and accumulates in FP32 (cublasSgemmEx /
// rocblas_gemm_ex). What matters numerically is the *storage rounding* of
// the panels to 11-bit significands; the accumulation stays FP32. This type
// reproduces exactly that: float -> binary16 with round-to-nearest-even
// (including subnormals, overflow to infinity, NaN preservation) and a
// lossless binary16 -> float widening.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace hplmxp {

/// IEEE binary16 value. Trivially copyable; 2 bytes; arithmetic is done by
/// widening to float (mirroring FP32 accumulation on tensor/matrix cores).
class half16 {
 public:
  half16() = default;

  /// Rounds a float to binary16 (round-to-nearest-even).
  explicit half16(float f) : bits_(fromFloat(f)) {}

  /// Widens to float; exact for every binary16 value.
  [[nodiscard]] float toFloat() const { return toFloatBits(bits_); }
  explicit operator float() const { return toFloat(); }

  [[nodiscard]] std::uint16_t bits() const { return bits_; }

  /// Builds a half16 from raw binary16 bits.
  static half16 fromBits(std::uint16_t bits) {
    half16 h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] bool isNan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool isInf() const { return (bits_ & 0x7FFFu) == 0x7C00u; }

  /// Largest finite binary16 value (65504).
  static constexpr float maxFinite() { return 65504.0f; }
  /// Smallest positive normal binary16 value (2^-14).
  static constexpr float minNormal() { return 6.103515625e-05f; }
  /// Unit roundoff of binary16 (2^-11).
  static constexpr float epsilonUnit() { return 4.8828125e-04f; }

  friend bool operator==(half16 a, half16 b) {
    // IEEE semantics: NaN != NaN, +0 == -0.
    return a.toFloat() == b.toFloat();
  }

  /// Round-to-nearest-even conversion, bit-exact IEEE binary16.
  static std::uint16_t fromFloat(float f);
  /// Exact widening of binary16 bits to float. Branchless and inline, so
  /// loops over it (the GEMM pack) vectorize at whatever ISA they are
  /// compiled for:
  ///   * normal: rebias the exponent by 127 - 15 = 112;
  ///   * inf/NaN: exponent 31 -> 255, the payload kept (signalling NaNs
  ///     stay signalling, which F16C's vcvtph2ps would not do);
  ///   * zero/subnormal: mant * 2^-24, exact in float.
  /// All three are computed and blended with masks: a branch, or a select
  /// GCC turns into one, would stop such loops vectorizing.
  static float toFloatBits(std::uint16_t h) {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t em = h & 0x7FFFu;
    const std::uint32_t infNan =
        (0u - static_cast<std::uint32_t>(em >= 0x7C00u)) & (112u << 23);
    const std::uint32_t large = ((em + (112u << 10)) << 13) + infNan;
    const std::uint32_t small =
        std::bit_cast<std::uint32_t>(static_cast<float>(em) * 0x1p-24f);
    const std::uint32_t isSmall =
        0u - static_cast<std::uint32_t>(em < 0x0400u);
    return std::bit_cast<float>(sign | (small & isSmall) | (large & ~isSmall));
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half16) == 2);

inline half16 operator+(half16 a, half16 b) {
  return half16(a.toFloat() + b.toFloat());
}
inline half16 operator-(half16 a, half16 b) {
  return half16(a.toFloat() - b.toFloat());
}
inline half16 operator*(half16 a, half16 b) {
  return half16(a.toFloat() * b.toFloat());
}
inline half16 operator/(half16 a, half16 b) {
  return half16(a.toFloat() / b.toFloat());
}

}  // namespace hplmxp
