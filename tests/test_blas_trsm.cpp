// TRSM kernels vs the reference oracle and vs direct reconstruction
// (op(A) * X == alpha * B), over all side/uplo/diag combinations, and bit
// for bit vs the order-exact column-oriented oracle on every ISA.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <type_traits>
#include <vector>

#include "blas/gemm.h"
#include "blas/reference.h"
#include "blas/trsm.h"
#include "blas/tune.h"
#include "trsm_oracle.h"

namespace hplmxp {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

/// Builds a well-conditioned triangular matrix: unit-ish diagonal dominance.
std::vector<float> triangularMatrix(index_t n, Uplo uplo, Diag diag,
                                    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-0.4f, 0.4f);
  std::vector<float> a(static_cast<std::size_t>(n * n), 0.0f);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        a[static_cast<std::size_t>(i + j * n)] = d(rng) / static_cast<float>(n);
      }
    }
    a[static_cast<std::size_t>(j + j * n)] =
        diag == Diag::kUnit ? 1.0f : 2.0f + d(rng);
  }
  return a;
}

// gtest names each instantiated case by dumping this struct's bytes, so the
// alignment gaps are spelled out as zeroed members: otherwise they hold
// whatever the stack held and the test names change from build to build.
struct TrsmCase {
  TrsmCase(Side s, Uplo u, Diag d, index_t rows, index_t cols, float a)
      : side(s), uplo(u), diag(d), m(rows), n(cols), alpha(a) {}
  Side side;
  Uplo uplo;
  Diag diag;
  std::int32_t gap0 = 0;
  index_t m, n;
  float alpha;
  std::int32_t gap1 = 0;
};
static_assert(sizeof(TrsmCase) == 40, "TrsmCase must have no hidden padding");

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, MatchesReference) {
  const TrsmCase c = GetParam();
  const index_t tri = c.side == Side::kLeft ? c.m : c.n;
  auto a = triangularMatrix(tri, c.uplo, c.diag, 11);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> b1(static_cast<std::size_t>(c.m * c.n));
  for (auto& x : b1) {
    x = d(rng);
  }
  auto b2 = b1;
  blas::strsm(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(), tri,
              b1.data(), c.m);
  blas::ref::trsm<float>(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(),
                         tri, b2.data(), c.m);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(TrsmTest, SolutionReconstructsRhs) {
  const TrsmCase c = GetParam();
  const index_t tri = c.side == Side::kLeft ? c.m : c.n;
  auto a = triangularMatrix(tri, c.uplo, c.diag, 17);
  // Fill the untouched triangle with garbage: TRSM must ignore it.
  for (index_t j = 0; j < tri; ++j) {
    for (index_t i = 0; i < tri; ++i) {
      const bool inTri =
          c.uplo == Uplo::kLower ? i >= j : i <= j;
      if (!inTri) {
        a[static_cast<std::size_t>(i + j * tri)] = 777.0f;
      }
    }
  }
  std::mt19937 rng(19);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(c.m * c.n));
  for (auto& v : b) {
    v = d(rng);
  }
  auto x = b;
  blas::strsm(c.side, c.uplo, c.diag, c.m, c.n, c.alpha, a.data(), tri,
              x.data(), c.m);

  // Rebuild a clean dense triangular factor and multiply back.
  std::vector<float> full(static_cast<std::size_t>(tri * tri), 0.0f);
  for (index_t j = 0; j < tri; ++j) {
    for (index_t i = 0; i < tri; ++i) {
      const bool inTri = c.uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        full[static_cast<std::size_t>(i + j * tri)] =
            a[static_cast<std::size_t>(i + j * tri)];
      }
    }
    full[static_cast<std::size_t>(j + j * tri)] =
        c.diag == Diag::kUnit ? 1.0f : a[static_cast<std::size_t>(j + j * tri)];
  }
  std::vector<float> back(static_cast<std::size_t>(c.m * c.n), 0.0f);
  if (c.side == Side::kLeft) {
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.m, 1.0f,
                full.data(), tri, x.data(), c.m, 0.0f, back.data(), c.m);
  } else {
    blas::sgemm(Trans::kNoTrans, Trans::kNoTrans, c.m, c.n, c.n, 1.0f,
                x.data(), c.m, full.data(), tri, 0.0f, back.data(), c.m);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(back[i], c.alpha * b[i], 2e-4f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmTest,
    ::testing::Values(
        // The two variants Algorithm 1 uses:
        TrsmCase{Side::kLeft, Uplo::kLower, Diag::kUnit, 32, 96, 1.0f},
        TrsmCase{Side::kRight, Uplo::kUpper, Diag::kNonUnit, 96, 32, 1.0f},
        // Mirrors and scalars:
        TrsmCase{Side::kLeft, Uplo::kUpper, Diag::kNonUnit, 48, 20, 2.0f},
        TrsmCase{Side::kRight, Uplo::kLower, Diag::kUnit, 20, 48, -1.0f},
        TrsmCase{Side::kLeft, Uplo::kLower, Diag::kNonUnit, 1, 1, 1.0f},
        TrsmCase{Side::kLeft, Uplo::kUpper, Diag::kUnit, 65, 33, 0.5f},
        TrsmCase{Side::kRight, Uplo::kUpper, Diag::kUnit, 33, 65, 1.0f},
        TrsmCase{Side::kRight, Uplo::kLower, Diag::kNonUnit, 40, 37, 1.0f}));

TEST(Trsm, DoublePrecisionVariant) {
  const index_t n = 64;
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-0.3, 0.3);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a[static_cast<std::size_t>(i + j * n)] = d(rng);
    }
    a[static_cast<std::size_t>(j + j * n)] = 1.0;
  }
  std::vector<double> b1(static_cast<std::size_t>(n * 8));
  for (auto& v : b1) {
    v = d(rng);
  }
  auto b2 = b1;
  blas::dtrsm(Side::kLeft, Uplo::kLower, Diag::kUnit, n, 8, 1.0, a.data(), n,
              b1.data(), n);
  blas::ref::trsm<double>(Side::kLeft, Uplo::kLower, Diag::kUnit, n, 8, 1.0,
                          a.data(), n, b2.data(), n);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b1[i], b2[i], 1e-12);
  }
}

TEST(Trsm, EmptyDimsAreNoOps) {
  float a = 1.0f;
  float b = 5.0f;
  blas::strsm(Side::kLeft, Uplo::kLower, Diag::kUnit, 0, 0, 1.0f, &a, 1, &b,
              1);
  EXPECT_EQ(b, 5.0f);
}

// ---------------------------------------------------------------------------
// Bitwise contract: the blocked solve gives every element the column-
// oriented solve's multiplies, subtracts and division in the same order,
// so it matches oracle::trsmOrderExact under memcmp for every variant,
// shape, alpha, lane count and ISA.
// ---------------------------------------------------------------------------

template <typename T>
class TrsmIsaBitwiseTest : public ::testing::Test {};

using TrsmElementTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TrsmIsaBitwiseTest, TrsmElementTypes);

/// Triangle of order n in an lda x n array: diagonal 2 +- 0.4, the
/// referenced off-diagonal triangle small, and garbage (777) everywhere
/// the solve must not read, the diagonal too when it is unit.
template <typename T>
std::vector<T> garbageOutsideTriangle(index_t n, index_t lda, Uplo uplo,
                                      Diag diag, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-0.4, 0.4);
  std::vector<T> a(static_cast<std::size_t>(lda * n), T(777));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool inTri = uplo == Uplo::kLower ? i > j : i < j;
      if (inTri) {
        a[static_cast<std::size_t>(i + j * lda)] =
            static_cast<T>(d(rng) * 4.0 / static_cast<double>(n));
      }
    }
    if (diag == Diag::kNonUnit) {
      a[static_cast<std::size_t>(j + j * lda)] = static_cast<T>(2.0 + d(rng));
    }
  }
  return a;
}

TYPED_TEST(TrsmIsaBitwiseTest, EveryVariantMatchesOrderExactOracleBitwise) {
  using T = TypeParam;
  const std::vector<blas::GemmIsa> isas = blas::detail::supportedGemmIsas();
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  ThreadPool* const pools[] = {&one, &two, &four};
  // Triangle orders below, at and across the 32-wide diagonal block (none
  // a multiple of it past one block), against right-hand-side counts
  // that are multiples of no stripe or tile width.
  const index_t triOrders[] = {1, 32, 33, 70, 131};
  const index_t rhsCounts[] = {1, 37, 150};
  const T alphas[] = {T(1), T(-0.75)};
  unsigned seed = 900;
  for (Side side : {Side::kLeft, Side::kRight}) {
    for (Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (Trans trans : {Trans::kNoTrans, Trans::kTrans}) {
        for (Diag diag : {Diag::kUnit, Diag::kNonUnit}) {
          for (index_t tri : triOrders) {
            for (index_t rhs : rhsCounts) {
              const index_t m = side == Side::kLeft ? tri : rhs;
              const index_t n = side == Side::kLeft ? rhs : tri;
              const index_t lda = tri + 3;
              const index_t ldb = m + 5;
              const auto a =
                  garbageOutsideTriangle<T>(tri, lda, uplo, diag, ++seed);
              std::mt19937 rng(++seed);
              std::uniform_real_distribution<double> d(-1.0, 1.0);
              std::vector<T> b0(static_cast<std::size_t>(ldb * n));
              for (auto& v : b0) {
                v = static_cast<T>(d(rng));
              }
              for (T alpha : alphas) {
                auto ref = b0;
                oracle::trsmOrderExact<T>(side, uplo, trans, diag, m, n,
                                          alpha, a.data(), lda, ref.data(),
                                          ldb);
                for (ThreadPool* pool : pools) {
                  for (blas::GemmIsa isa : isas) {
                    blas::detail::ScopedGemmIsa guard(isa);
                    auto x = b0;
                    if constexpr (std::is_same_v<T, float>) {
                      blas::strsm(side, uplo, trans, diag, m, n, alpha,
                                  a.data(), lda, x.data(), ldb, pool);
                    } else {
                      blas::dtrsm(side, uplo, trans, diag, m, n, alpha,
                                  a.data(), lda, x.data(), ldb, pool);
                    }
                    ASSERT_EQ(0, std::memcmp(x.data(), ref.data(),
                                             x.size() * sizeof(T)))
                        << blas::gemmKernelShape(isa).name
                        << " side=" << static_cast<int>(side)
                        << " uplo=" << static_cast<int>(uplo)
                        << " trans=" << static_cast<int>(trans)
                        << " diag=" << static_cast<int>(diag) << " m=" << m
                        << " n=" << n << " alpha=" << alpha
                        << " lanes=" << pool->laneCount();
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(TrsmBitwise, NoTransShorthandIsTheNoTransSolve) {
  // The four-argument overloads are the NoTrans solve, bit for bit.
  const index_t m = 70;
  const index_t n = 45;
  const auto a = garbageOutsideTriangle<float>(m, m, Uplo::kLower,
                                               Diag::kUnit, 5);
  std::mt19937 rng(6);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(m * n));
  for (auto& v : b) {
    v = d(rng);
  }
  auto x = b;
  auto ref = b;
  blas::strsm(Side::kLeft, Uplo::kLower, Diag::kUnit, m, n, 1.0f, a.data(),
              m, x.data(), m);
  oracle::trsmOrderExact<float>(Side::kLeft, Uplo::kLower, Trans::kNoTrans,
                                Diag::kUnit, m, n, 1.0f, a.data(), m,
                                ref.data(), m);
  EXPECT_EQ(0, std::memcmp(x.data(), ref.data(), x.size() * sizeof(float)));
}

}  // namespace
}  // namespace hplmxp
