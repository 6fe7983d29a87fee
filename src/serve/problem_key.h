// Cache / batching identity of a solve request.
//
// Two requests are "compatible" — may share a cached factorization and be
// coalesced into one blocked multi-RHS refinement — exactly when their
// ProblemKeys are equal: same order, block size, and matrix seed (the
// factors are a pure function of those three on one device), same grid
// shape (which selects the execution substrate the factors were produced
// on; the single-device serve backend requires a 1x1 grid today, but
// distributed keys already name their placement so the cache key never has
// to change shape), and same storage precision.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "lowp/precision.h"
#include "util/common.h"

namespace hplmxp::serve {

struct ProblemKey {
  index_t n = 0;
  index_t b = 0;
  std::uint64_t seed = 0;
  index_t pr = 1;
  index_t pc = 1;
  /// Storage rung the factors were produced at. Factors at different
  /// rungs round differently, so a cached fp16 factorization must never
  /// satisfy an fp8 request (and vice versa) — the rung is part of the
  /// key's identity.
  lowp::StoragePrecision precision = lowp::StoragePrecision::kFp16;

  [[nodiscard]] auto tied() const {
    return std::tie(n, b, seed, pr, pc, precision);
  }

  friend bool operator==(const ProblemKey& a, const ProblemKey& b) {
    return a.tied() == b.tied();
  }
  friend bool operator<(const ProblemKey& a, const ProblemKey& b) {
    return a.tied() < b.tied();
  }

  [[nodiscard]] std::string toString() const {
    return "n=" + std::to_string(n) + " b=" + std::to_string(b) +
           " seed=" + std::to_string(seed) + " grid=" + std::to_string(pr) +
           "x" + std::to_string(pc) + " prec=" + lowp::toString(precision);
  }
};

}  // namespace hplmxp::serve
