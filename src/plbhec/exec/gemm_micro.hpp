#pragma once
/// \file gemm_micro.hpp
/// Packed, register-blocked GEMM micro-kernel (BLIS-style): B is packed
/// into contiguous KC x NR tiles and A into MR x KC tiles, so the inner
/// kernel streams two contiguous buffers into an MR x NR accumulator block
/// that lives entirely in registers. The inner loop is branch-free (tails
/// are zero-padded during packing). The micro-kernel itself is resolved at
/// runtime through the kdisp registry: a portable variant registers here
/// and an explicit AVX2+FMA variant in gemm_micro_avx2.cpp, and one binary
/// picks the best the host can execute (override with PLBHEC_KDISP_FORCE).
///
/// Thin row blocks (m < 2 * MR) skip the packing: a row-streaming kernel
/// of the micro-kernel's ISA reads each B row once for all m rows. It runs
/// the same ops per C element as the packed path, so a product does not
/// depend on how its rows are split into calls.
///
/// Semantics match linalg::blas::gemm: row-major C (m x n) += A (m x k)
/// * B (k x n), leading dimensions equal to the logical widths.

#include <cstddef>

namespace plbhec::exec {

class ThreadPool;

/// Serial packed GEMM.
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c);

/// Parallel packed GEMM: each K-panel of B is packed once by the caller,
/// then the row dimension is fanned out over `pool` (at most `max_lanes`
/// concurrent lanes; 0 = pool concurrency).
void gemm_packed_parallel(std::size_t m, std::size_t n, std::size_t k,
                          const double* a, const double* b, double* c,
                          ThreadPool& pool, unsigned max_lanes = 0);

}  // namespace plbhec::exec
