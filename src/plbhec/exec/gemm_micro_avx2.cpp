/// \file gemm_micro_avx2.cpp
/// Explicit AVX2+FMA GEMM micro-kernel and its row-streaming twin,
/// registered with the kdisp registry so one binary picks them at runtime
/// on capable hosts (this replaces the old -DPLBHEC_ENABLE_AVX2
/// compile-time switch). Compiled with -mavx2 -mfma when the compiler
/// supports them; otherwise the TU is just the link anchor. Unlike the
/// dispatched workload families, GEMM variants are NOT bit-identical
/// across ISAs — the FMA accumulation here rounds differently from the
/// portable kernel (see the contract note in kdisp/registry.hpp) — but the
/// two kernels in this TU are bit-identical to each other.

#include "plbhec/exec/gemm_micro_detail.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

#include "plbhec/kdisp/kernels.hpp"
#include "plbhec/kdisp/registry.hpp"

namespace plbhec::exec {
namespace {

using detail::kGemmMr;
using detail::kGemmNr;

/// 4x8 accumulator block in 8 YMM registers, one broadcast + two FMAs per
/// (row, kk).
void gemm_micro_avx2(std::size_t kc, const double* ap, const double* bp,
                     double* c, std::size_t ldc, std::size_t mr,
                     std::size_t nr) {
  __m256d acc[kGemmMr][2];
  for (std::size_t r = 0; r < kGemmMr; ++r) {
    acc[r][0] = _mm256_setzero_pd();
    acc[r][1] = _mm256_setzero_pd();
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(bp + kk * kGemmNr);
    const __m256d b1 = _mm256_loadu_pd(bp + kk * kGemmNr + 4);
    const double* ak = ap + kk * kGemmMr;
    for (std::size_t r = 0; r < kGemmMr; ++r) {
      const __m256d ar = _mm256_broadcast_sd(ak + r);
      acc[r][0] = _mm256_fmadd_pd(ar, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(ar, b1, acc[r][1]);
    }
  }
  alignas(32) double tile[kGemmMr][kGemmNr];
  for (std::size_t r = 0; r < kGemmMr; ++r) {
    _mm256_store_pd(&tile[r][0], acc[r][0]);
    _mm256_store_pd(&tile[r][4], acc[r][1]);
  }
  for (std::size_t r = 0; r < mr; ++r)
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] += tile[r][j];
}

PLBHEC_REGISTER_KERNEL(kdisp::kGemmMicroKernel, kdisp::IsaClass::kAvx2,
                       kdisp::WidthClass::kWide, gemm_micro_avx2);

/// AVX2 row-streaming steps: one FMA per kk, as in gemm_micro_avx2. The
/// column tail uses the scalar FMA, which rounds exactly like one lane;
/// rows4 hands its tail to rows1 once per kk, in order.
struct Avx2Rows {
  static void rows1(double* x, std::size_t nb, double a0, const double* b) {
    const __m256d av = _mm256_set1_pd(a0);
    std::size_t j = 0;
    for (; j + 4 <= nb; j += 4)
      _mm256_store_pd(x + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(b + j),
                                             _mm256_load_pd(x + j)));
    for (; j < nb; ++j) x[j] = std::fma(a0, b[j], x[j]);
  }
  static void rows4(double* x, std::size_t nb, const double* a,
                    const double* b, std::size_t ldb) {
    const __m256d a0 = _mm256_broadcast_sd(a);
    const __m256d a1 = _mm256_broadcast_sd(a + 1);
    const __m256d a2 = _mm256_broadcast_sd(a + 2);
    const __m256d a3 = _mm256_broadcast_sd(a + 3);
    const double* b1 = b + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    std::size_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      __m256d v = _mm256_load_pd(x + j);
      v = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b + j), v);
      v = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), v);
      v = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), v);
      v = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), v);
      _mm256_store_pd(x + j, v);
    }
    for (std::size_t q = 0; q < 4 && j < nb; ++q)
      rows1(x + j, nb - j, a[q], b + q * ldb + j);
  }
};

void gemm_rows_avx2(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, const double* b, double* c) {
  detail::stream_rows<Avx2Rows>(m, n, k, a, b, c);
}

PLBHEC_REGISTER_KERNEL(kdisp::kGemmRowsKernel, kdisp::IsaClass::kAvx2,
                       kdisp::WidthClass::kWide, gemm_rows_avx2);

}  // namespace
}  // namespace plbhec::exec

#endif  // __AVX2__ && __FMA__

namespace plbhec::exec::detail {
void link_gemm_avx2_kernel() {}
}  // namespace plbhec::exec::detail
