#pragma once
/// \file kernels.hpp
/// Published kernel signatures for the dispatched workload families. Every
/// variant of a family registers under the family's kernel name with
/// exactly this signature; apps resolve it with
/// KernelRegistry::select<XxxFn>(kXxxKernel, width).
///
/// Bit-identity contract (everything except `gemm` and `gemm_rows`, see
/// registry.hpp):
/// variants of one family must produce byte-identical outputs. The
/// reduction families (spmv, nbody) fix the summation tree to 4-lane
/// accumulator blocking over the length-rounded-down-to-4 prefix, the
/// horizontal combine (s0+s2)+(s1+s3), then the remainder added
/// sequentially — the scalar variants mirror the AVX2 lane arithmetic
/// exactly, and every variant TU is compiled with -ffp-contract=off so no
/// compiler fuses a mul+add the other variant keeps separate. The stencil
/// is elementwise with one fixed expression tree, so lane width never
/// matters.

#include <cstddef>
#include <cstdint>

namespace plbhec::kdisp {

inline constexpr const char* kSpmvKernel = "spmv";
inline constexpr const char* kStencilKernel = "stencil";
inline constexpr const char* kNbodyKernel = "nbody";
/// GEMM micro-kernel (exec/gemm_micro); variants here are NOT bit-identical
/// (AVX2 uses FMA) — see the contract note in registry.hpp.
inline constexpr const char* kGemmMicroKernel = "gemm";
/// Row-streaming GEMM for thin row blocks (exec/gemm_micro). Registered
/// under the same (ISA, width) keys as `gemm`, and bit-identical to the
/// `gemm` variant of the same ISA (not across ISAs).
inline constexpr const char* kGemmRowsKernel = "gemm_rows";

/// CSR SpMV over the row range [row_begin, row_end):
///   y[i] = sum_j vals[j] * x[cols[j]],  j in [row_ptr[i], row_ptr[i+1]).
using SpmvRowsFn = void(const std::uint32_t* row_ptr,
                        const std::uint32_t* cols, const double* vals,
                        const double* x, double* y, std::size_t row_begin,
                        std::size_t row_end);

/// 2D 5-point stencil over interior rows [row_begin, row_end) of an
/// (ny+2) x (nx+2) padded grid (row-major, stride nx+2; row/col 0 and the
/// last row/col are halo). For each interior cell:
///   out = c0*in[c] + c1*((in[w]+in[e]) + (in[n]+in[s])).
using StencilRowsFn = void(const double* in, double* out, std::size_t nx,
                           std::size_t row_begin, std::size_t row_end,
                           double c0, double c1);

/// Softened all-pairs gravity accelerations for bodies [body_begin,
/// body_end) against all n bodies (self-interaction included: dx=0 gives
/// r2=eps2, a finite softened term — keeps every variant branch-free):
///   r2   = ((eps2 + dx*dx) + dy*dy) + dz*dz
///   inv  = 1 / sqrt(r2)
///   w    = mass[j] * ((inv*inv) * inv)
///   a   += w * d
using NbodyAccelFn = void(const double* px, const double* py,
                          const double* pz, const double* mass, std::size_t n,
                          double eps2, double* ax, double* ay, double* az,
                          std::size_t body_begin, std::size_t body_end);

/// BLIS-style GEMM micro-kernel: accumulates the (mr x nr) corner of a
/// packed-A (kc x MR) by packed-B (kc x NR) product into C with leading
/// dimension ldc (see exec/gemm_micro_detail.hpp for the geometry).
using GemmMicroFn = void(std::size_t kc, const double* ap, const double* bp,
                         double* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr);

/// Row-streaming GEMM: row-major C (m x n) += A (m x k) * B (k x n), leading
/// dimensions equal to the logical widths, for m < 2 * MR. Nothing is
/// packed: each B row is read once for all m rows. Per C element the op
/// sequence equals the same-ISA GemmMicroFn path's (per KC panel the
/// accumulator starts at 0, kk ascends, then C += acc).
using GemmRowsFn = void(std::size_t m, std::size_t n, std::size_t k,
                        const double* a, const double* b, double* c);

}  // namespace plbhec::kdisp
