// Reference-BLAS-compatible double-precision GEMM and the BLAS-1 helpers the
// TCE-generated code uses (DFILL, DAXPY). Column-major throughout.
//
// This is a from-scratch blocked implementation (no external BLAS is
// available in the reproduction environment). It is cache-blocked and good
// enough for the block sizes the CC workloads produce (tiles of 8..64).
#pragma once

#include <cstddef>

namespace mp::linalg {

/// C(m,n) = alpha * op(A) * op(B) + beta * C
/// transa/transb: 'N' (no transpose) or 'T' (transpose).
/// lda/ldb/ldc are the leading dimensions of the column-major arrays.
void dgemm(char transa, char transb, size_t m, size_t n, size_t k,
           double alpha, const double* a, size_t lda, const double* b,
           size_t ldb, double beta, double* c, size_t ldc);

/// The register-tile tiers dgemm chooses between at run time (DESIGN.md
/// §7). kBase is the SSE2 4x4 tile on x86-64 (a scalar 4x4 loop on other
/// hosts); kAvx2 is the AVX2+FMA 8x6 tile; kAvx512 the AVX-512 16x6 tile.
enum class GemmTier { kBase, kAvx2, kAvx512 };

/// "sse2" (or "scalar" off x86-64), "avx2" or "avx512".
const char* to_string(GemmTier tier);

/// Whether this CPU (and OS) can run `tier`. CPUID is read once.
bool gemm_tier_supported(GemmTier tier);

/// The tier dgemm uses for a call with `m` rows of C: the widest supported
/// tier whose tile is at most m rows tall.
GemmTier gemm_tier_for(size_t m);

/// dgemm forced onto `tier`, so tests can cover every tier the host has.
/// Throws InvalidArgument if the CPU does not support `tier`.
void dgemm_on_tier(GemmTier tier, char transa, char transb, size_t m,
                   size_t n, size_t k, double alpha, const double* a,
                   size_t lda, const double* b, size_t ldb, double beta,
                   double* c, size_t ldc);

/// x[0..n) = v  (the TCE DFILL).
void dfill(size_t n, double v, double* x);

/// y += alpha * x.
void daxpy(size_t n, double alpha, const double* x, double* y);

/// dot(x, y).
double ddot(size_t n, const double* x, const double* y);

/// Flop count of a GEMM call (2*m*n*k), used by the simulator cost model.
inline double gemm_flops(size_t m, size_t n, size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace mp::linalg
