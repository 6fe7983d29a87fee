// LU factorization tests: no-pivot GETRF (the HPL-AI kernel) and partial
// pivoting DGETRF (the HPL baseline), checked by reconstruction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <type_traits>
#include <vector>

#include "blas/gemm.h"
#include "blas/gemm_baseline.h"
#include "blas/getrf.h"
#include "blas/reference.h"
#include "blas/trsm.h"
#include "blas/tune.h"
#include "gen/matgen.h"
#include "trsm_oracle.h"

namespace hplmxp {
namespace {

/// Splits a factored in-place LU into explicit L (unit lower) and U.
template <typename T>
void splitLU(index_t n, const std::vector<T>& lu, std::vector<T>& l,
             std::vector<T>& u) {
  l.assign(static_cast<std::size_t>(n * n), T{0});
  u.assign(static_cast<std::size_t>(n * n), T{0});
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const T v = lu[static_cast<std::size_t>(i + j * n)];
      if (i > j) {
        l[static_cast<std::size_t>(i + j * n)] = v;
      } else {
        u[static_cast<std::size_t>(i + j * n)] = v;
      }
    }
    l[static_cast<std::size_t>(j + j * n)] = T{1};
  }
}

class GetrfNoPivTest : public ::testing::TestWithParam<index_t> {};

TEST_P(GetrfNoPivTest, ReconstructsDiagonallyDominantMatrix) {
  const index_t n = GetParam();
  ProblemGenerator gen(31, n);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  gen.fillTile<float>(0, 0, n, n, a.data(), n);
  const auto orig = a;

  blas::getrfNoPiv(n, a.data(), n);

  std::vector<float> l, u, prod(static_cast<std::size_t>(n * n), 0.0f);
  splitLU<float>(n, a, l, u);
  blas::sgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans, n, n, n, 1.0f,
              l.data(), n, u.data(), n, 0.0f, prod.data(), n);
  // Diagonal entries are ~n, so compare with a relative tolerance.
  const float tol = 1e-4f * static_cast<float>(n);
  for (std::size_t i = 0; i < prod.size(); ++i) {
    EXPECT_NEAR(prod[i], orig[i], tol) << "i=" << i;
  }
}

TEST_P(GetrfNoPivTest, MatchesUnblockedReference) {
  const index_t n = GetParam();
  ProblemGenerator gen(37, n);
  std::vector<float> blocked(static_cast<std::size_t>(n * n));
  gen.fillTile<float>(0, 0, n, n, blocked.data(), n);
  auto unblocked = blocked;
  blas::getrfNoPiv(n, blocked.data(), n);
  blas::ref::getrfNoPiv<float>(n, unblocked.data(), n);
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_NEAR(blocked[i], unblocked[i],
                1e-3f)  // same algorithm, different update order
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GetrfNoPivTest,
                         ::testing::Values(1, 2, 5, 16, 63, 64, 65, 128, 200));

TEST(GetrfNoPiv, ZeroPivotThrows) {
  std::vector<float> a{0.0f};
  EXPECT_THROW(blas::getrfNoPiv(1, a.data(), 1), CheckError);
}

TEST(GetrfNoPiv, DoubleVariantReconstructs) {
  const index_t n = 96;
  ProblemGenerator gen(41, n);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  gen.fillTile<double>(0, 0, n, n, a.data(), n);
  const auto orig = a;
  blas::dgetrfNoPiv(n, a.data(), n);
  std::vector<double> l, u, prod(static_cast<std::size_t>(n * n), 0.0);
  splitLU<double>(n, a, l, u);
  blas::dgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans, n, n, n, 1.0,
              l.data(), n, u.data(), n, 0.0, prod.data(), n);
  for (std::size_t i = 0; i < prod.size(); ++i) {
    EXPECT_NEAR(prod[i], orig[i], 1e-10 * n);
  }
}

class DgetrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(DgetrfTest, ReconstructsPA) {
  const index_t n = GetParam();
  // A general (NOT diagonally dominant) matrix: pivoting must engage.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (auto& v : a) {
    v = d(rng);
  }
  const auto orig = a;
  std::vector<index_t> ipiv;
  blas::dgetrf(n, a.data(), n, ipiv);

  std::vector<double> l, u, prod(static_cast<std::size_t>(n * n), 0.0);
  splitLU<double>(n, a, l, u);
  blas::dgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans, n, n, n, 1.0,
              l.data(), n, u.data(), n, 0.0, prod.data(), n);

  // Apply the recorded swaps to the original to get P*A.
  std::vector<double> pa = orig;
  for (index_t k = 0; k < n; ++k) {
    const index_t piv = ipiv[static_cast<std::size_t>(k)];
    if (piv != k) {
      for (index_t j = 0; j < n; ++j) {
        std::swap(pa[static_cast<std::size_t>(k + j * n)],
                  pa[static_cast<std::size_t>(piv + j * n)]);
      }
    }
  }
  for (std::size_t i = 0; i < prod.size(); ++i) {
    EXPECT_NEAR(prod[i], pa[i], 1e-9 * n) << "i=" << i;
  }
}

TEST_P(DgetrfTest, PivotsEnsureBoundedMultipliers) {
  const index_t n = GetParam();
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (auto& v : a) {
    v = d(rng);
  }
  std::vector<index_t> ipiv;
  blas::dgetrf(n, a.data(), n, ipiv);
  // Partial pivoting bounds every L multiplier by 1 in magnitude.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      EXPECT_LE(std::fabs(a[static_cast<std::size_t>(i + j * n)]),
                1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, DgetrfTest,
                         ::testing::Values(2, 8, 64, 65, 129, 192));

// ---------------------------------------------------------------------------
// Bitwise contract: the blocked no-pivot LU is a panel factorization, then
// TRSM and GEMM, each with a fixed per-element order, so it matches the
// same algorithm composed from the order-exact oracles under memcmp on
// every ISA and lane count.
// ---------------------------------------------------------------------------

/// The blocked algorithm of blas/getrf.cpp, built from oracles: the same
/// 64-wide panels, the unblocked panel factorization, the column-oriented
/// TRSM (oracle::trsmOrderExact) and the pre-rewrite GEMM
/// (blas::baseline).
template <typename T>
void getrfOracle(index_t n, T* a, index_t lda) {
  constexpr index_t kPanel = 64;
  for (index_t k = 0; k < n; k += kPanel) {
    const index_t nb = std::min(kPanel, n - k);
    T* akk = a + k + k * lda;
    const index_t rows = n - k;
    for (index_t p = 0; p < nb; ++p) {
      T* col = akk + p * lda;
      const T inv = T{1} / col[p];
      for (index_t i = p + 1; i < rows; ++i) {
        col[i] *= inv;
      }
      for (index_t j = p + 1; j < nb; ++j) {
        T* cj = akk + j * lda;
        const T up = cj[p];
        for (index_t i = p + 1; i < rows; ++i) {
          cj[i] -= col[i] * up;
        }
      }
    }
    const index_t rest = n - k - nb;
    if (rest > 0) {
      oracle::trsmOrderExact<T>(blas::Side::kLeft, blas::Uplo::kLower,
                                blas::Trans::kNoTrans, blas::Diag::kUnit, nb,
                                rest, T{1}, akk, lda, akk + nb * lda, lda);
      if constexpr (std::is_same_v<T, float>) {
        blas::baseline::sgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans,
                              rest, rest, nb, -1.0f, akk + nb, lda,
                              akk + nb * lda, lda, 1.0f, akk + nb + nb * lda,
                              lda);
      } else {
        blas::baseline::dgemm(blas::Trans::kNoTrans, blas::Trans::kNoTrans,
                              rest, rest, nb, -1.0, akk + nb, lda,
                              akk + nb * lda, lda, 1.0, akk + nb + nb * lda,
                              lda);
      }
    }
  }
}

template <typename T>
class GetrfIsaBitwiseTest : public ::testing::Test {};

using GetrfElementTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(GetrfIsaBitwiseTest, GetrfElementTypes);

TYPED_TEST(GetrfIsaBitwiseTest, EveryIsaMatchesComposedOracleBitwise) {
  using T = TypeParam;
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  ThreadPool* const pools[] = {&one, &two, &four};
  // 200 = three full 64-wide panels and a partial one, each TRSM blocked.
  for (index_t n : {37, 64, 200}) {
    const index_t lda = n + 3;
    ProblemGenerator gen(43, n);
    std::vector<T> a0(static_cast<std::size_t>(lda * n));
    gen.fillTile<T>(0, 0, n, n, a0.data(), lda);
    auto ref = a0;
    getrfOracle<T>(n, ref.data(), lda);
    for (ThreadPool* pool : pools) {
      for (blas::GemmIsa isa : blas::detail::supportedGemmIsas()) {
        blas::detail::ScopedGemmIsa guard(isa);
        auto a = a0;
        if constexpr (std::is_same_v<T, float>) {
          blas::getrfNoPiv(n, a.data(), lda, pool);
        } else {
          blas::dgetrfNoPiv(n, a.data(), lda, pool);
        }
        ASSERT_EQ(0, std::memcmp(a.data(), ref.data(), a.size() * sizeof(T)))
            << blas::gemmKernelShape(isa).name << " n=" << n
            << " lanes=" << pool->laneCount();
      }
    }
  }
}

TEST(DgetrfBitwise, EveryIsaAndLaneCountGivesTheSameBits) {
  const index_t n = 150;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> a0(static_cast<std::size_t>(n * n));
  for (auto& v : a0) {
    v = d(rng);
  }
  ThreadPool one(1);
  ThreadPool four(4);
  std::vector<double> first;
  std::vector<index_t> firstPiv;
  for (ThreadPool* pool : {&one, &four}) {
    for (blas::GemmIsa isa : blas::detail::supportedGemmIsas()) {
      blas::detail::ScopedGemmIsa guard(isa);
      auto a = a0;
      std::vector<index_t> ipiv;
      blas::dgetrf(n, a.data(), n, ipiv, pool);
      if (first.empty()) {
        first = a;
        firstPiv = ipiv;
        continue;
      }
      EXPECT_EQ(ipiv, firstPiv);
      ASSERT_EQ(0, std::memcmp(a.data(), first.data(),
                               a.size() * sizeof(double)))
          << blas::gemmKernelShape(isa).name
          << " lanes=" << pool->laneCount();
    }
  }
}

TEST(FlopCounts, Conventions) {
  EXPECT_DOUBLE_EQ(blas::getrfFlops(10), 2.0 / 3.0 * 1000.0);
  EXPECT_DOUBLE_EQ(blas::gemmFlops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(blas::trsmFlops(blas::Side::kLeft, 4, 5), 80.0);
  EXPECT_DOUBLE_EQ(blas::trsmFlops(blas::Side::kRight, 4, 5), 100.0);
}

}  // namespace
}  // namespace hplmxp
