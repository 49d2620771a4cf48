#include "linalg/gemm.h"

#include <algorithm>

#include "support/aligned_buf.h"
#include "support/error.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mp::linalg {
namespace {

// BLIS-style cache blocking (see DESIGN.md "Kernel & scheduler hot paths"):
//   kMr x kNr — the register tile held in accumulators by the microkernel;
//   kMc x kKc — the packed A block, sized for L2;
//   kKc x kNc — the packed B panel, sized to stay resident in L3 while the
//               ic loop sweeps the whole M dimension over it.
// Loop order is NC -> KC -> MC: for each B panel we stream every A block
// against it, so B is loaded from memory once per KC pass.
constexpr size_t kMc = 128;  // multiple of every tier's kMr
constexpr size_t kKc = 256;
constexpr size_t kNc = 768;  // multiple of every tier's kNr; B panel 1.5 MiB

// One register tile per ISA tier; dgemm picks a tier at run time (see
// gemm_tier_for). The tile must fit its accumulators in architectural
// vector registers or the microkernel spills and loses to the naive loop:
//   AVX-512: 16x6 doubles = 12 zmm of 32;  AVX2+FMA: 8x6 = 12 ymm of 16;
//   SSE2 baseline: 4x4 = 8 xmm of 16. The accumulators are explicit named
// SIMD variables because GCC will not promote an accumulator array out of
// the stack even when the loops fully unroll.
//
// Each `micro` computes acc(kMr x kNr) = Ap-panel * Bp-panel over kb ranks,
// acc column-major (i fastest). Only the wider tiers' `micro` carry a
// target attribute: the rest of this file, and every inline or template
// function it instantiates, is compiled for the baseline ISA, so no
// AVX-512 copy of shared code can reach the link (DESIGN.md §7).
#if defined(__x86_64__)

struct Sse2Tile {
  static constexpr size_t kMr = 4;
  static constexpr size_t kNr = 4;

  static void micro(size_t kb, const double* __restrict ap,
                    const double* __restrict bp, double* __restrict acc) {
    __m128d c0a = _mm_setzero_pd(), c0b = _mm_setzero_pd();
    __m128d c1a = _mm_setzero_pd(), c1b = _mm_setzero_pd();
    __m128d c2a = _mm_setzero_pd(), c2b = _mm_setzero_pd();
    __m128d c3a = _mm_setzero_pd(), c3b = _mm_setzero_pd();
    for (size_t k = 0; k < kb; ++k) {
      const __m128d a0 = _mm_loadu_pd(ap);
      const __m128d a1 = _mm_loadu_pd(ap + 2);
      __m128d b;
      b = _mm_set1_pd(bp[0]);
      c0a = _mm_add_pd(c0a, _mm_mul_pd(a0, b));
      c0b = _mm_add_pd(c0b, _mm_mul_pd(a1, b));
      b = _mm_set1_pd(bp[1]);
      c1a = _mm_add_pd(c1a, _mm_mul_pd(a0, b));
      c1b = _mm_add_pd(c1b, _mm_mul_pd(a1, b));
      b = _mm_set1_pd(bp[2]);
      c2a = _mm_add_pd(c2a, _mm_mul_pd(a0, b));
      c2b = _mm_add_pd(c2b, _mm_mul_pd(a1, b));
      b = _mm_set1_pd(bp[3]);
      c3a = _mm_add_pd(c3a, _mm_mul_pd(a0, b));
      c3b = _mm_add_pd(c3b, _mm_mul_pd(a1, b));
      ap += kMr;
      bp += kNr;
    }
    _mm_storeu_pd(acc + 0 * kMr, c0a);
    _mm_storeu_pd(acc + 0 * kMr + 2, c0b);
    _mm_storeu_pd(acc + 1 * kMr, c1a);
    _mm_storeu_pd(acc + 1 * kMr + 2, c1b);
    _mm_storeu_pd(acc + 2 * kMr, c2a);
    _mm_storeu_pd(acc + 2 * kMr + 2, c2b);
    _mm_storeu_pd(acc + 3 * kMr, c3a);
    _mm_storeu_pd(acc + 3 * kMr + 2, c3b);
  }
};

struct Avx2Tile {
  static constexpr size_t kMr = 8;
  static constexpr size_t kNr = 6;

  __attribute__((target("avx2,fma"))) static void micro(
      size_t kb, const double* __restrict ap, const double* __restrict bp,
      double* __restrict acc) {
    __m256d c0a = _mm256_setzero_pd(), c0b = _mm256_setzero_pd();
    __m256d c1a = _mm256_setzero_pd(), c1b = _mm256_setzero_pd();
    __m256d c2a = _mm256_setzero_pd(), c2b = _mm256_setzero_pd();
    __m256d c3a = _mm256_setzero_pd(), c3b = _mm256_setzero_pd();
    __m256d c4a = _mm256_setzero_pd(), c4b = _mm256_setzero_pd();
    __m256d c5a = _mm256_setzero_pd(), c5b = _mm256_setzero_pd();
    for (size_t k = 0; k < kb; ++k) {
      const __m256d a0 = _mm256_loadu_pd(ap);
      const __m256d a1 = _mm256_loadu_pd(ap + 4);
      __m256d b;
      b = _mm256_set1_pd(bp[0]);
      c0a = _mm256_fmadd_pd(a0, b, c0a);
      c0b = _mm256_fmadd_pd(a1, b, c0b);
      b = _mm256_set1_pd(bp[1]);
      c1a = _mm256_fmadd_pd(a0, b, c1a);
      c1b = _mm256_fmadd_pd(a1, b, c1b);
      b = _mm256_set1_pd(bp[2]);
      c2a = _mm256_fmadd_pd(a0, b, c2a);
      c2b = _mm256_fmadd_pd(a1, b, c2b);
      b = _mm256_set1_pd(bp[3]);
      c3a = _mm256_fmadd_pd(a0, b, c3a);
      c3b = _mm256_fmadd_pd(a1, b, c3b);
      b = _mm256_set1_pd(bp[4]);
      c4a = _mm256_fmadd_pd(a0, b, c4a);
      c4b = _mm256_fmadd_pd(a1, b, c4b);
      b = _mm256_set1_pd(bp[5]);
      c5a = _mm256_fmadd_pd(a0, b, c5a);
      c5b = _mm256_fmadd_pd(a1, b, c5b);
      ap += kMr;
      bp += kNr;
    }
    _mm256_storeu_pd(acc + 0 * kMr, c0a);
    _mm256_storeu_pd(acc + 0 * kMr + 4, c0b);
    _mm256_storeu_pd(acc + 1 * kMr, c1a);
    _mm256_storeu_pd(acc + 1 * kMr + 4, c1b);
    _mm256_storeu_pd(acc + 2 * kMr, c2a);
    _mm256_storeu_pd(acc + 2 * kMr + 4, c2b);
    _mm256_storeu_pd(acc + 3 * kMr, c3a);
    _mm256_storeu_pd(acc + 3 * kMr + 4, c3b);
    _mm256_storeu_pd(acc + 4 * kMr, c4a);
    _mm256_storeu_pd(acc + 4 * kMr + 4, c4b);
    _mm256_storeu_pd(acc + 5 * kMr, c5a);
    _mm256_storeu_pd(acc + 5 * kMr + 4, c5b);
  }
};

struct Avx512Tile {
  static constexpr size_t kMr = 16;
  static constexpr size_t kNr = 6;

  __attribute__((target("avx512f"))) static void micro(
      size_t kb, const double* __restrict ap, const double* __restrict bp,
      double* __restrict acc) {
    __m512d c0a = _mm512_setzero_pd(), c0b = _mm512_setzero_pd();
    __m512d c1a = _mm512_setzero_pd(), c1b = _mm512_setzero_pd();
    __m512d c2a = _mm512_setzero_pd(), c2b = _mm512_setzero_pd();
    __m512d c3a = _mm512_setzero_pd(), c3b = _mm512_setzero_pd();
    __m512d c4a = _mm512_setzero_pd(), c4b = _mm512_setzero_pd();
    __m512d c5a = _mm512_setzero_pd(), c5b = _mm512_setzero_pd();
    for (size_t k = 0; k < kb; ++k) {
      const __m512d a0 = _mm512_loadu_pd(ap);
      const __m512d a1 = _mm512_loadu_pd(ap + 8);
      __m512d b;
      b = _mm512_set1_pd(bp[0]);
      c0a = _mm512_fmadd_pd(a0, b, c0a);
      c0b = _mm512_fmadd_pd(a1, b, c0b);
      b = _mm512_set1_pd(bp[1]);
      c1a = _mm512_fmadd_pd(a0, b, c1a);
      c1b = _mm512_fmadd_pd(a1, b, c1b);
      b = _mm512_set1_pd(bp[2]);
      c2a = _mm512_fmadd_pd(a0, b, c2a);
      c2b = _mm512_fmadd_pd(a1, b, c2b);
      b = _mm512_set1_pd(bp[3]);
      c3a = _mm512_fmadd_pd(a0, b, c3a);
      c3b = _mm512_fmadd_pd(a1, b, c3b);
      b = _mm512_set1_pd(bp[4]);
      c4a = _mm512_fmadd_pd(a0, b, c4a);
      c4b = _mm512_fmadd_pd(a1, b, c4b);
      b = _mm512_set1_pd(bp[5]);
      c5a = _mm512_fmadd_pd(a0, b, c5a);
      c5b = _mm512_fmadd_pd(a1, b, c5b);
      ap += kMr;
      bp += kNr;
    }
    _mm512_storeu_pd(acc + 0 * kMr, c0a);
    _mm512_storeu_pd(acc + 0 * kMr + 8, c0b);
    _mm512_storeu_pd(acc + 1 * kMr, c1a);
    _mm512_storeu_pd(acc + 1 * kMr + 8, c1b);
    _mm512_storeu_pd(acc + 2 * kMr, c2a);
    _mm512_storeu_pd(acc + 2 * kMr + 8, c2b);
    _mm512_storeu_pd(acc + 3 * kMr, c3a);
    _mm512_storeu_pd(acc + 3 * kMr + 8, c3b);
    _mm512_storeu_pd(acc + 4 * kMr, c4a);
    _mm512_storeu_pd(acc + 4 * kMr + 8, c4b);
    _mm512_storeu_pd(acc + 5 * kMr, c5a);
    _mm512_storeu_pd(acc + 5 * kMr + 8, c5b);
  }
};

using BaseTile = Sse2Tile;

#else

// Scalar baseline for non-x86 hosts.
struct ScalarTile {
  static constexpr size_t kMr = 4;
  static constexpr size_t kNr = 4;

  static void micro(size_t kb, const double* __restrict ap,
                    const double* __restrict bp, double* __restrict acc) {
    double c[kMr * kNr] = {};
    for (size_t k = 0; k < kb; ++k) {
      for (size_t j = 0; j < kNr; ++j) {
        const double bj = bp[j];
        for (size_t i = 0; i < kMr; ++i) c[j * kMr + i] += ap[i] * bj;
      }
      ap += kMr;
      bp += kNr;
    }
    for (size_t x = 0; x < kMr * kNr; ++x) acc[x] = c[x];
  }
};

using BaseTile = ScalarTile;

#endif

// Packs op(A)(i0..i0+mb, k0..k0+kb) into row panels of height kMr:
// pack[panel][k][r] with r < kMr, zero-padded so the microkernel never
// needs an M edge case.
template <size_t kMr>
void pack_a(bool trans, const double* __restrict a, size_t lda, size_t i0,
            size_t k0, size_t mb, size_t kb, double* __restrict pack) {
  for (size_t ip = 0; ip < mb; ip += kMr) {
    const size_t mr = std::min(kMr, mb - ip);
    double* __restrict dst = pack + ip * kb;
    if (!trans) {
      // op(A)(i,k) = a[k*lda + i]: each k column is contiguous in A.
      for (size_t k = 0; k < kb; ++k) {
        const double* __restrict src = a + (k0 + k) * lda + (i0 + ip);
        size_t r = 0;
        for (; r < mr; ++r) dst[k * kMr + r] = src[r];
        for (; r < kMr; ++r) dst[k * kMr + r] = 0.0;
      }
    } else {
      // op(A)(i,k) = a[i*lda + k]: each output row is contiguous in A.
      for (size_t r = 0; r < mr; ++r) {
        const double* __restrict src = a + (i0 + ip + r) * lda + k0;
        for (size_t k = 0; k < kb; ++k) dst[k * kMr + r] = src[k];
      }
      for (size_t r = mr; r < kMr; ++r) {
        for (size_t k = 0; k < kb; ++k) dst[k * kMr + r] = 0.0;
      }
    }
  }
}

// Packs op(B)(k0..k0+kb, j0..j0+nb) into column panels of width kNr:
// pack[panel][k][c] with c < kNr, zero-padded in N.
template <size_t kNr>
void pack_b(bool trans, const double* __restrict b, size_t ldb, size_t k0,
            size_t j0, size_t kb, size_t nb, double* __restrict pack) {
  for (size_t jp = 0; jp < nb; jp += kNr) {
    const size_t nr = std::min(kNr, nb - jp);
    double* __restrict dst = pack + jp * kb;
    if (!trans) {
      // op(B)(k,j) = b[j*ldb + k]: each output column is contiguous in B.
      for (size_t c = 0; c < nr; ++c) {
        const double* __restrict src = b + (j0 + jp + c) * ldb + k0;
        for (size_t k = 0; k < kb; ++k) dst[k * kNr + c] = src[k];
      }
      for (size_t c = nr; c < kNr; ++c) {
        for (size_t k = 0; k < kb; ++k) dst[k * kNr + c] = 0.0;
      }
    } else {
      // op(B)(k,j) = b[k*ldb + j]: each k row is contiguous in B.
      for (size_t k = 0; k < kb; ++k) {
        const double* __restrict src = b + (k0 + k) * ldb + (j0 + jp);
        size_t c = 0;
        for (; c < nr; ++c) dst[k * kNr + c] = src[c];
        for (; c < kNr; ++c) dst[k * kNr + c] = 0.0;
      }
    }
  }
}

// Writes the accumulator tile into C. `apply_beta` is true only on the
// first KC block of a column stripe, so beta is applied exactly once and
// beta == 0 never reads C (the BLAS NaN-overwrite convention).
template <size_t kMr>
void store_tile(const double* __restrict acc, double* __restrict c,
                size_t ldc, size_t mr, size_t nr, double alpha, double beta,
                bool apply_beta) {
  for (size_t j = 0; j < nr; ++j) {
    double* __restrict cj = c + j * ldc;
    const double* __restrict aj = acc + j * kMr;
    if (!apply_beta || beta == 1.0) {
      for (size_t i = 0; i < mr; ++i) cj[i] += alpha * aj[i];
    } else if (beta == 0.0) {
      for (size_t i = 0; i < mr; ++i) cj[i] = alpha * aj[i];
    } else {
      for (size_t i = 0; i < mr; ++i) cj[i] = alpha * aj[i] + beta * cj[i];
    }
  }
}

// The one blocked driver, instantiated once per tier. Its packing and
// store loops are baseline-ISA code; only Tile::micro runs wide.
template <class Tile>
void blocked_dgemm(bool ta, bool tb, size_t m, size_t n, size_t k,
                   double alpha, const double* a, size_t lda, const double* b,
                   size_t ldb, double beta, double* c, size_t ldc,
                   double* packa, double* packb) {
  constexpr size_t kMr = Tile::kMr;
  constexpr size_t kNr = Tile::kNr;
  static_assert(kMc % kMr == 0 && kNc % kNr == 0,
                "blocking must be a multiple of the register tile");
  for (size_t jc = 0; jc < n; jc += kNc) {
    const size_t nb = std::min(kNc, n - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kb = std::min(kKc, k - pc);
      const bool apply_beta = (pc == 0);
      pack_b<kNr>(tb, b, ldb, pc, jc, kb, nb, packb);
      for (size_t ic = 0; ic < m; ic += kMc) {
        const size_t mb = std::min(kMc, m - ic);
        pack_a<kMr>(ta, a, lda, ic, pc, mb, kb, packa);
        for (size_t jr = 0; jr < nb; jr += kNr) {
          const size_t nr = std::min(kNr, nb - jr);
          const double* bp = packb + jr * kb;
          for (size_t ir = 0; ir < mb; ir += kMr) {
            const size_t mr = std::min(kMr, mb - ir);
            alignas(64) double acc[kMr * kNr];
            Tile::micro(kb, packa + ir * kb, bp, acc);
            store_tile<kMr>(acc, c + (jc + jr) * ldc + ic + ir, ldc, mr, nr,
                            alpha, beta, apply_beta);
          }
        }
      }
    }
  }
}

// CPUID, read once at load time. libgcc's feature bits also require the
// OS to save the wider register state (XCR0), so a supported tier is a
// usable one. A plain global rather than a function-local static keeps the
// per-call dispatch free of an initialization guard; a dgemm called from
// another file's static initializer before this one runs reads the
// zero-initialized value and takes the baseline tier.
struct CpuTiers {
  bool avx2 = false;
  bool avx512 = false;
};

CpuTiers detect_cpu_tiers() {
  CpuTiers t;
#if defined(__x86_64__)
  __builtin_cpu_init();
  t.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  t.avx512 = __builtin_cpu_supports("avx512f");
#endif
  return t;
}

const CpuTiers kCpuTiers = detect_cpu_tiers();

}  // namespace

const char* to_string(GemmTier tier) {
  switch (tier) {
    case GemmTier::kBase:
#if defined(__x86_64__)
      return "sse2";
#else
      return "scalar";
#endif
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool gemm_tier_supported(GemmTier tier) {
  switch (tier) {
    case GemmTier::kBase:
      return true;
    case GemmTier::kAvx2:
      return kCpuTiers.avx2;
    case GemmTier::kAvx512:
      return kCpuTiers.avx512;
  }
  return false;
}

GemmTier gemm_tier_for(size_t m) {
  // A tile taller than C wastes its extra rows on zero padding: tile-2
  // GEMMs (m <= 4) on the 16-row AVX-512 tile ran 16-27% slower end to end
  // than on the 4-row baseline (DESIGN.md §7).
#if defined(__x86_64__)
  if (kCpuTiers.avx512 && m >= Avx512Tile::kMr) return GemmTier::kAvx512;
  if (kCpuTiers.avx2 && m >= Avx2Tile::kMr) return GemmTier::kAvx2;
#else
  (void)m;
#endif
  return GemmTier::kBase;
}

void dgemm(char transa, char transb, size_t m, size_t n, size_t k,
           double alpha, const double* a, size_t lda, const double* b,
           size_t ldb, double beta, double* c, size_t ldc) {
  dgemm_on_tier(gemm_tier_for(m), transa, transb, m, n, k, alpha, a, lda, b,
                ldb, beta, c, ldc);
}

void dgemm_on_tier(GemmTier tier, char transa, char transb, size_t m,
                   size_t n, size_t k, double alpha, const double* a,
                   size_t lda, const double* b, size_t ldb, double beta,
                   double* c, size_t ldc) {
  MP_REQUIRE(transa == 'N' || transa == 'T' || transa == 'n' || transa == 't',
             "dgemm: bad transa");
  MP_REQUIRE(transb == 'N' || transb == 'T' || transb == 'n' || transb == 't',
             "dgemm: bad transb");
  MP_REQUIRE(gemm_tier_supported(tier), "dgemm: tier not supported by CPU");
  const bool ta = (transa == 'T' || transa == 't');
  const bool tb = (transb == 'T' || transb == 't');
  MP_DCHECK(ldc >= std::max<size_t>(1, m), "dgemm: ldc too small");

  // Degenerate cases reduce to scaling C by beta.
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) {
    if (beta == 1.0) return;
    for (size_t j = 0; j < n; ++j) {
      double* cj = c + j * ldc;
      if (beta == 0.0) {
        std::fill(cj, cj + m, 0.0);
      } else {
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
      }
    }
    return;
  }

  // Thread-local packing workspaces: zero heap traffic at steady state.
  // Fetched here, in baseline-ISA code, for every tier.
  support::WorkspacePool& ws = support::WorkspacePool::tls();
  double* packa = ws.get(support::WorkspacePool::kGemmPackA, kMc * kKc);
  double* packb = ws.get(support::WorkspacePool::kGemmPackB, kKc * kNc);

  switch (tier) {
#if defined(__x86_64__)
    case GemmTier::kAvx512:
      blocked_dgemm<Avx512Tile>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                                c, ldc, packa, packb);
      return;
    case GemmTier::kAvx2:
      blocked_dgemm<Avx2Tile>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                              ldc, packa, packb);
      return;
#endif
    default:
      blocked_dgemm<BaseTile>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                              ldc, packa, packb);
      return;
  }
}

void dfill(size_t n, double v, double* x) { std::fill(x, x + n, v); }

void daxpy(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double ddot(size_t n, const double* x, const double* y) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

}  // namespace mp::linalg
