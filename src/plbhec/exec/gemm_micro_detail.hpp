#pragma once
/// \file gemm_micro_detail.hpp
/// Register-block geometry shared by the GEMM micro-kernel variants, and
/// the loop nest of the row-streaming kernels. The variants register with
/// the kdisp registry under kGemmMicroKernel / kGemmRowsKernel; the packed
/// driver in gemm_micro.cpp resolves the best pair at runtime.

#include <algorithm>
#include <cstddef>

#include "plbhec/common/contracts.hpp"

namespace plbhec::exec::detail {

// MR x NR accumulators (4 x 8 doubles = 8 vector registers of 4 lanes)
// with KC-deep panels sized for L2 residency.
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 8;
inline constexpr std::size_t kGemmKc = 256;

/// Column block of the row-streaming kernels: the (m < 2*MR) x NB
/// accumulator block (at most 14 KiB) stays in L1 across a KC panel.
inline constexpr std::size_t kGemmRowsNb = 256;

/// Row-streaming loop nest shared by the gemm_rows variants (each variant
/// TU instantiates it with its own Step type, so every instantiation is
/// compiled with that TU's ISA flags). For every KC panel and NB column
/// block it zeroes the accumulators, walks kk in ascending order, four B
/// rows at a time, then adds the accumulators into C. Per C element that
/// is the packed micro-kernel's op sequence, provided Step applies each
/// kk with the same fused or unfused multiply-add as the variant's
/// micro-kernel:
///   Step::rows4(x, nb, a, b, ldb): x[j] += a[q] * b[q*ldb + j], q = 0..3
///                                  in order, for j < nb;
///   Step::rows1(x, nb, a0, b):     x[j] += a0 * b[j], for j < nb.
template <typename Step>
void stream_rows(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c) {
  PLBHEC_EXPECTS(m < 2 * kGemmMr);
  alignas(32) double acc[2 * kGemmMr - 1][kGemmRowsNb];
  for (std::size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const std::size_t kc = std::min(kGemmKc, k - k0);
    for (std::size_t j0 = 0; j0 < n; j0 += kGemmRowsNb) {
      const std::size_t nb = std::min(kGemmRowsNb, n - j0);
      for (std::size_t r = 0; r < m; ++r) std::fill_n(acc[r], nb, 0.0);
      std::size_t kk = 0;
      for (; kk + 4 <= kc; kk += 4) {
        const double* bk = b + (k0 + kk) * n + j0;
        for (std::size_t r = 0; r < m; ++r)
          Step::rows4(acc[r], nb, a + r * k + k0 + kk, bk, n);
      }
      for (; kk < kc; ++kk) {
        const double* bk = b + (k0 + kk) * n + j0;
        for (std::size_t r = 0; r < m; ++r)
          Step::rows1(acc[r], nb, a[r * k + k0 + kk], bk);
      }
      for (std::size_t r = 0; r < m; ++r) {
        double* cr = c + r * n + j0;
        for (std::size_t j = 0; j < nb; ++j) cr[j] += acc[r][j];
      }
    }
  }
}

/// Link anchor for the AVX2 variant TU (see the note in kdisp/registry.cpp
/// about archive lazy extraction).
void link_gemm_avx2_kernel();

/// Link anchor for this family's registrations as a whole: the registry
/// calls it so the gemm variants are in the table for every registry
/// user, not only binaries that already reference an exec symbol.
void link_gemm_kernels();

}  // namespace plbhec::exec::detail
