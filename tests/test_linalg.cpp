// Unit + property tests for src/linalg: GEMM against a naive reference over
// all transpose combinations and a size sweep, sort_4 permutation algebra,
// and the BLAS-1 helpers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/sort4.h"
#include "support/aligned_buf.h"
#include "support/rng.h"

namespace mp::linalg {
namespace {

// Naive triple-loop reference GEMM (column-major, same semantics as dgemm).
void ref_gemm(bool ta, bool tb, size_t m, size_t n, size_t k, double alpha,
              const double* a, size_t lda, const double* b, size_t ldb,
              double beta, double* c, size_t ldc) {
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a[i * lda + kk] : a[kk * lda + i];
        const double bv = tb ? b[kk * ldb + j] : b[j * ldb + kk];
        acc += av * bv;
      }
      c[j * ldc + i] = alpha * acc + beta * c[j * ldc + i];
    }
  }
}

std::vector<double> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct GemmCase {
  char ta, tb;
  size_t m, n, k;
};

// Every tier runs these, so each shape covers full tiles and edge tiles.
// The ctest names print GetParam()'s raw bytes, padding after tb included;
// static storage zero-fills that padding, so the names are the same on every
// build (temporaries passed to Values() left stack garbage there).
const GemmCase kGemmCases[] = {
    {'N', 'N', 1, 1, 1},    {'N', 'N', 5, 7, 3},     {'N', 'N', 64, 64, 64},
    {'N', 'N', 65, 63, 129}, {'T', 'N', 5, 7, 3},    {'T', 'N', 64, 48, 130},
    {'N', 'T', 5, 7, 3},    {'N', 'T', 33, 65, 17},  {'T', 'T', 5, 7, 3},
    {'T', 'T', 70, 70, 70}, {'T', 'N', 128, 1, 128}, {'N', 'N', 1, 128, 128}};

// The checks below take the GEMM under test as a callable with dgemm's
// signature: dgemm itself (run-time dispatch) or one forced tier.
template <class Gemm>
void check_matches_reference(Gemm gemm, const GemmCase& gc) {
  const auto [ta, tb, m, n, k] = gc;
  const bool is_ta = (ta == 'T');
  const bool is_tb = (tb == 'T');
  // op(A) is m x k: stored as (m x k) if 'N', (k x m) if 'T'.
  const size_t lda = is_ta ? k : m;
  const size_t ldb = is_tb ? n : k;
  const size_t ldc = m;
  const auto a = random_vec(lda * (is_ta ? m : k), 1);
  const auto b = random_vec(ldb * (is_tb ? k : n), 2);
  auto c1 = random_vec(ldc * n, 3);
  auto c2 = c1;

  const double alpha = 1.25, beta = -0.5;
  gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c1.data(),
       ldc);
  ref_gemm(is_ta, is_tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
           c2.data(), ldc);
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-11)
        << ta << tb << " m=" << m << " n=" << n << " k=" << k << " at " << i;
  }
}

template <class Gemm>
void check_beta_zero_overwrites_nan(Gemm gemm) {
  // beta == 0 must overwrite even NaN garbage in C (BLAS convention); the
  // 17x1 case also covers a full tile plus an edge tile on every tier.
  for (size_t m : {size_t{1}, size_t{17}}) {
    std::vector<double> a(m, 1.0), b{1.0};
    std::vector<double> c(m, std::nan(""));
    gemm('N', 'N', m, 1, 1, 1.0, a.data(), m, b.data(), 1, 0.0, c.data(), m);
    for (double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  check_matches_reference(dgemm, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GemmVsReference, ::testing::ValuesIn(kGemmCases),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(1, p.ta) + p.tb + "_" + std::to_string(p.m) + "x" +
             std::to_string(p.n) + "x" + std::to_string(p.k);
    });

TEST(Gemm, BetaZeroOverwritesNaN) { check_beta_zero_overwrites_nan(dgemm); }

TEST(Gemm, AlphaZeroOnlyScalesC) {
  auto a = random_vec(16, 4);
  auto b = random_vec(16, 5);
  std::vector<double> c(16, 2.0);
  dgemm('N', 'N', 4, 4, 4, 0.0, a.data(), 4, b.data(), 4, 0.5, c.data(), 4);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Gemm, EmptyKIsScaleOnly) {
  std::vector<double> c(4, 3.0);
  dgemm('N', 'N', 2, 2, 0, 1.0, nullptr, 2, nullptr, 2, 2.0, c.data(), 2);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Gemm, RejectsBadTransposeFlag) {
  std::vector<double> x(1, 0.0);
  EXPECT_THROW(
      dgemm('X', 'N', 1, 1, 1, 1.0, x.data(), 1, x.data(), 1, 0.0, x.data(), 1),
      InvalidArgument);
}

TEST(Gemm, AccumulatesAcrossCalls) {
  // The CC chains rely on C += A*B across many calls: check associativity
  // of the accumulation against a single big reference GEMM.
  const size_t m = 12, n = 10, k = 40, pieces = 4;
  const auto a = random_vec(m * k, 6);
  const auto b = random_vec(k * n, 7);
  std::vector<double> c_chain(m * n, 0.0), c_once(m * n, 0.0);
  ref_gemm(false, false, m, n, k, 1.0, a.data(), m, b.data(), k, 1.0,
           c_once.data(), m);
  const size_t kb = k / pieces;
  for (size_t p = 0; p < pieces; ++p) {
    dgemm('N', 'N', m, n, kb, 1.0, a.data() + p * kb * m, m,
          b.data() + p * kb, k, 1.0, c_chain.data(), m);
  }
  for (size_t i = 0; i < c_chain.size(); ++i) {
    EXPECT_NEAR(c_chain[i], c_once[i], 1e-11);
  }
}

TEST(Blas1, DfillSetsAll) {
  std::vector<double> x(100, 1.0);
  dfill(x.size(), -2.5, x.data());
  for (double v : x) EXPECT_DOUBLE_EQ(v, -2.5);
}

TEST(Blas1, DaxpyAccumulates) {
  std::vector<double> x{1.0, 2.0, 3.0}, y{10.0, 20.0, 30.0};
  daxpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(Blas1, DdotMatchesManual) {
  std::vector<double> x{1.0, -2.0, 3.0}, y{4.0, 5.0, -6.0};
  EXPECT_DOUBLE_EQ(ddot(3, x.data(), y.data()), 4.0 - 10.0 - 18.0);
}

TEST(Matrix, IndexingIsColumnMajor) {
  Matrix m(3, 2);
  m(2, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.data()[1 * 3 + 2], 7.0);
}

TEST(Matrix, NormAndDiff) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  b(0, 0) = 3.5;
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.5);
}

TEST(Matrix, DiffRejectsShapeMismatch) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), InvalidArgument);
}

// ---- sort_4 ----

using Perm = std::array<int, 4>;
using Dims = std::array<size_t, 4>;

// All 24 permutations of {0,1,2,3}.
std::vector<Perm> all_perms() {
  Perm p{0, 1, 2, 3};
  std::vector<Perm> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

size_t lin4(const Dims& d, size_t i0, size_t i1, size_t i2, size_t i3) {
  return ((i0 * d[1] + i1) * d[2] + i2) * d[3] + i3;
}

class Sort4AllPerms : public ::testing::TestWithParam<int> {};

TEST_P(Sort4AllPerms, PermutesCorrectly) {
  const Perm perm = all_perms()[static_cast<size_t>(GetParam())];
  const Dims d{3, 4, 2, 5};
  const auto in = random_vec(sort4_elems(d), 42);
  std::vector<double> out(in.size(), 0.0);
  sort_4(in.data(), out.data(), d, perm, 2.0);

  Dims od;
  for (int j = 0; j < 4; ++j) od[static_cast<size_t>(j)] = d[static_cast<size_t>(perm[static_cast<size_t>(j)])];
  for (size_t i0 = 0; i0 < d[0]; ++i0)
    for (size_t i1 = 0; i1 < d[1]; ++i1)
      for (size_t i2 = 0; i2 < d[2]; ++i2)
        for (size_t i3 = 0; i3 < d[3]; ++i3) {
          const std::array<size_t, 4> idx{i0, i1, i2, i3};
          const size_t o = lin4(od, idx[static_cast<size_t>(perm[0])],
                                idx[static_cast<size_t>(perm[1])],
                                idx[static_cast<size_t>(perm[2])],
                                idx[static_cast<size_t>(perm[3])]);
          EXPECT_DOUBLE_EQ(out[o], 2.0 * in[lin4(d, i0, i1, i2, i3)]);
        }
}

INSTANTIATE_TEST_SUITE_P(All24, Sort4AllPerms, ::testing::Range(0, 24));

TEST(Sort4, IdentityPermIsScaledCopy) {
  const Dims d{2, 3, 4, 5};
  const auto in = random_vec(sort4_elems(d), 1);
  std::vector<double> out(in.size());
  sort_4(in.data(), out.data(), d, {0, 1, 2, 3}, -1.5);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], -1.5 * in[i]);
  }
}

TEST(Sort4, InverseRoundTrip) {
  // Applying a permutation then its inverse restores the input.
  const Dims d{4, 3, 5, 2};
  const Perm p{2, 0, 3, 1};
  Perm pinv{};
  for (int j = 0; j < 4; ++j) pinv[static_cast<size_t>(p[static_cast<size_t>(j)])] = j;
  const auto in = random_vec(sort4_elems(d), 2);
  std::vector<double> mid(in.size()), back(in.size());
  sort_4(in.data(), mid.data(), d, p, 2.0);
  Dims dmid;
  for (int j = 0; j < 4; ++j) dmid[static_cast<size_t>(j)] = d[static_cast<size_t>(p[static_cast<size_t>(j)])];
  sort_4(mid.data(), back.data(), dmid, pinv, 0.5);
  for (size_t i = 0; i < in.size(); ++i) EXPECT_DOUBLE_EQ(back[i], in[i]);
}

TEST(Sort4, AccumulatingFlavourAdds) {
  const Dims d{2, 2, 2, 2};
  const auto in = random_vec(16, 3);
  std::vector<double> out(16, 1.0);
  sort_4_acc(in.data(), out.data(), d, {0, 1, 2, 3}, 1.0);
  for (size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(out[i], 1.0 + in[i]);
}

TEST(Sort4, RejectsNonPermutation) {
  const Dims d{2, 2, 2, 2};
  std::vector<double> in(16), out(16);
  EXPECT_THROW(sort_4(in.data(), out.data(), d, {0, 0, 1, 2}, 1.0),
               InvalidArgument);
  EXPECT_THROW(sort_4(in.data(), out.data(), d, {0, 1, 2, 4}, 1.0),
               InvalidArgument);
}

TEST(Sort4, PreservesSumUnderPermutation) {
  const Dims d{3, 5, 2, 4};
  const auto in = random_vec(sort4_elems(d), 5);
  std::vector<double> out(in.size());
  sort_4(in.data(), out.data(), d, {3, 1, 0, 2}, 1.0);
  const double s_in = std::accumulate(in.begin(), in.end(), 0.0);
  const double s_out = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(s_in, s_out, 1e-12);
}

// Every perm, both flavours, must agree bit-for-bit with the generic
// reference path — the rotation fast paths reorder only the iteration, not
// the arithmetic (one multiply per element), so exact equality is required.
TEST_P(Sort4AllPerms, FastPathsMatchReferenceBitForBit) {
  const Perm perm = all_perms()[static_cast<size_t>(GetParam())];
  // Mixed dims so rows/cols of the rotation transposes exercise tile edges.
  const Dims d{5, 8, 3, 33};
  const auto in = random_vec(sort4_elems(d), 77);
  const auto seed = random_vec(sort4_elems(d), 78);

  std::vector<double> got(in.size()), want(in.size());
  sort_4(in.data(), got.data(), d, perm, -1.75);
  sort_4_reference(in.data(), want.data(), d, perm, -1.75);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "plain flavour at " << i;
  }

  got = seed;
  want = seed;
  sort_4_acc(in.data(), got.data(), d, perm, 0.375);
  sort_4_acc_reference(in.data(), want.data(), d, perm, 0.375);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "accumulate flavour at " << i;
  }
}

TEST(Sort4, FastPathPredicateCoversExactlyTheRotations) {
  int fast = 0;
  for (const Perm& p : all_perms()) fast += sort4_is_fast_path(p) ? 1 : 0;
  EXPECT_EQ(fast, 4);  // identity + the three rotations
  EXPECT_TRUE(sort4_is_fast_path({0, 1, 2, 3}));
  EXPECT_TRUE(sort4_is_fast_path({1, 2, 3, 0}));
  EXPECT_TRUE(sort4_is_fast_path({2, 3, 0, 1}));
  EXPECT_TRUE(sort4_is_fast_path({3, 0, 1, 2}));
  EXPECT_FALSE(sort4_is_fast_path({1, 0, 3, 2}));
}

// ---- exhaustive GEMM sweep --------------------------------------------------

// All transpose combos x odd/prime sizes x alpha/beta grid against the
// naive reference: catches packing edge cases (partial register tiles,
// kb < kKc) and the beta=0 / beta=1 store fast paths.
template <class Gemm>
void check_exhaustive_sweep(Gemm gemm) {
  const size_t sizes[] = {1, 3, 7, 17, 63, 65};
  const double scalars[] = {0.0, 1.0, -0.5};
  const char flags[] = {'N', 'T'};
  for (char ta : flags) {
    for (char tb : flags) {
      for (size_t m : sizes) {
        for (size_t n : sizes) {
          for (size_t k : sizes) {
            const size_t lda = (ta == 'T') ? k : m;
            const size_t ldb = (tb == 'T') ? n : k;
            const auto a = random_vec(lda * ((ta == 'T') ? m : k),
                                      1000 + m * 7 + n * 3 + k);
            const auto b = random_vec(ldb * ((tb == 'T') ? k : n),
                                      2000 + m + n * 5 + k * 11);
            const auto c0 = random_vec(m * n, 3000 + m + n + k);
            for (double alpha : scalars) {
              for (double beta : scalars) {
                std::vector<double> c1 = c0, c2 = c0;
                gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                     beta, c1.data(), m);
                ref_gemm(ta == 'T', tb == 'T', m, n, k, alpha, a.data(), lda,
                         b.data(), ldb, beta, c2.data(), m);
                for (size_t i = 0; i < c1.size(); ++i) {
                  ASSERT_NEAR(c1[i], c2[i], 1e-11)
                      << ta << tb << " m=" << m << " n=" << n << " k=" << k
                      << " alpha=" << alpha << " beta=" << beta << " at "
                      << i;
                }
              }
            }
          }
        }
      }
    }
  }
}

// The packing workspaces come from the thread-local pool: after warm-up, a
// long GEMM loop must perform no heap allocations at all (the regression
// this guards against is a per-call pack-buffer malloc on the hot path).
template <class Gemm>
void check_zero_steady_state_allocations(Gemm gemm) {
  const size_t n = 96;
  const auto a = random_vec(n * n, 11);
  const auto b = random_vec(n * n, 12);
  std::vector<double> c(n * n, 0.0);
  // Warm-up sizes the pool slots for this shape.
  gemm('N', 'N', n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
  gemm('T', 'T', n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);

  const uint64_t before = support::WorkspacePool::allocation_count();
  for (int iter = 0; iter < 1000; ++iter) {
    gemm('N', 'N', n, n, n, 1.0, a.data(), n, b.data(), n, 1.0, c.data(),
         n);
  }
  EXPECT_EQ(support::WorkspacePool::allocation_count(), before)
      << "dgemm allocated on the steady-state hot path";
}

TEST(Gemm, ExhaustiveShapeAndScalarSweep) { check_exhaustive_sweep(dgemm); }

TEST(Gemm, ZeroSteadyStateAllocations) {
  check_zero_steady_state_allocations(dgemm);
}

// ---- every microkernel tier -------------------------------------------------

// The checks above, with dgemm forced onto each tier this host supports
// (dgemm alone reaches a tier only through its size rule).
class GemmOnTier : public ::testing::TestWithParam<GemmTier> {
 protected:
  void SetUp() override {
    if (!gemm_tier_supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks the " << to_string(GetParam())
                   << " tier";
    }
  }

  auto gemm() const {
    return [tier = GetParam()](auto... args) { dgemm_on_tier(tier, args...); };
  }
};

TEST_P(GemmOnTier, MatchesReference) {
  for (const GemmCase& gc : kGemmCases) check_matches_reference(gemm(), gc);
}

TEST_P(GemmOnTier, ExhaustiveShapeAndScalarSweep) {
  check_exhaustive_sweep(gemm());
}

TEST_P(GemmOnTier, BetaZeroOverwritesNaN) {
  check_beta_zero_overwrites_nan(gemm());
}

TEST_P(GemmOnTier, ZeroSteadyStateAllocations) {
  check_zero_steady_state_allocations(gemm());
}

INSTANTIATE_TEST_SUITE_P(Tiers, GemmOnTier,
                         ::testing::Values(GemmTier::kBase, GemmTier::kAvx2,
                                           GemmTier::kAvx512),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(GemmDispatch, SmallMTakesBaseTierLargeMTakesWidest) {
  // Tile-2 GEMMs (m = 4) stay on the 4-row baseline tile; m = 64 gets the
  // widest tier the CPU has.
  EXPECT_EQ(gemm_tier_for(4), GemmTier::kBase);
  GemmTier widest = GemmTier::kBase;
  for (GemmTier t : {GemmTier::kAvx2, GemmTier::kAvx512}) {
    if (gemm_tier_supported(t)) widest = t;
  }
  EXPECT_EQ(gemm_tier_for(64), widest);
  EXPECT_TRUE(gemm_tier_supported(GemmTier::kBase));
}

}  // namespace
}  // namespace mp::linalg
