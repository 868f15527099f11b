#include "plbhec/exec/gemm_micro.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "plbhec/exec/gemm_micro_detail.hpp"
#include "plbhec/exec/thread_pool.hpp"
#include "plbhec/kdisp/kernels.hpp"
#include "plbhec/kdisp/registry.hpp"

namespace plbhec::exec {
namespace {

using detail::kGemmKc;
using detail::kGemmMr;
using detail::kGemmNr;

/// Packs the B panel rows [k0, k0+kc) into strip-major KC x NR tiles:
/// strip s holds the kc consecutive rows of columns [s*NR, s*NR+NR),
/// zero-padded past n so the micro-kernel never branches on column tails.
void pack_b(const double* b, std::size_t n, std::size_t k0, std::size_t kc,
            double* packed) {
  const std::size_t nstrips = (n + kGemmNr - 1) / kGemmNr;
  for (std::size_t s = 0; s < nstrips; ++s) {
    const std::size_t j0 = s * kGemmNr;
    const std::size_t width = std::min(kGemmNr, n - j0);
    double* dst = packed + s * kc * kGemmNr;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const double* src = b + (k0 + kk) * n + j0;
      for (std::size_t j = 0; j < width; ++j) dst[j] = src[j];
      for (std::size_t j = width; j < kGemmNr; ++j) dst[j] = 0.0;
      dst += kGemmNr;
    }
  }
}

/// Packs the A tile rows [i0, i0+mr) x columns [k0, k0+kc) into kk-major
/// groups of MR values, zero-padded past mr (branch-free row tails).
void pack_a(const double* a, std::size_t k, std::size_t i0, std::size_t mr,
            std::size_t k0, std::size_t kc, double* packed) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    double* dst = packed + kk * kGemmMr;
    for (std::size_t r = 0; r < mr; ++r) dst[r] = a[(i0 + r) * k + k0 + kk];
    for (std::size_t r = mr; r < kGemmMr; ++r) dst[r] = 0.0;
  }
}

/// Portable micro-kernel: the fixed-trip-count loops over a 4x8 local
/// accumulator fully unroll, so -O3 keeps the block in vector registers.
/// This TU is built with -ffp-contract=off: the multiply-adds stay
/// unfused on every target, as in the row-streaming steps below.
void gemm_micro_scalar(std::size_t kc, const double* ap, const double* bp,
                       double* c, std::size_t ldc, std::size_t mr,
                       std::size_t nr) {
  double acc[kGemmMr][kGemmNr] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const double* ak = ap + kk * kGemmMr;
    const double* bk = bp + kk * kGemmNr;
    for (std::size_t r = 0; r < kGemmMr; ++r) {
      const double ar = ak[r];
      for (std::size_t j = 0; j < kGemmNr; ++j) acc[r][j] += ar * bk[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r)
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] += acc[r][j];
}

PLBHEC_REGISTER_KERNEL(kdisp::kGemmMicroKernel, kdisp::IsaClass::kScalar,
                       kdisp::WidthClass::kNarrow, gemm_micro_scalar);
PLBHEC_REGISTER_KERNEL(kdisp::kGemmMicroKernel, kdisp::IsaClass::kScalar,
                       kdisp::WidthClass::kWide, gemm_micro_scalar);

/// Portable row-streaming steps: one rounded multiply and one rounded add
/// per kk, as in gemm_micro_scalar.
struct ScalarRows {
  static void rows4(double* x, std::size_t nb, const double* a,
                    const double* b, std::size_t ldb) {
    const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
    const double* b1 = b + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    for (std::size_t j = 0; j < nb; ++j) {
      double v = x[j];
      v += a0 * b[j];
      v += a1 * b1[j];
      v += a2 * b2[j];
      v += a3 * b3[j];
      x[j] = v;
    }
  }
  static void rows1(double* x, std::size_t nb, double a0, const double* b) {
    for (std::size_t j = 0; j < nb; ++j) x[j] += a0 * b[j];
  }
};

void gemm_rows_scalar(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, const double* b, double* c) {
  detail::stream_rows<ScalarRows>(m, n, k, a, b, c);
}

PLBHEC_REGISTER_KERNEL(kdisp::kGemmRowsKernel, kdisp::IsaClass::kScalar,
                       kdisp::WidthClass::kNarrow, gemm_rows_scalar);
PLBHEC_REGISTER_KERNEL(kdisp::kGemmRowsKernel, kdisp::IsaClass::kScalar,
                       kdisp::WidthClass::kWide, gemm_rows_scalar);

}  // namespace

namespace detail {
void link_gemm_kernels() { link_gemm_avx2_kernel(); }
}  // namespace detail

namespace {

/// Resolves the micro-kernel for an (m x n x k) product: width-classed by
/// n, the micro-kernel's vectorizable trip count. Resolved per top-level
/// call (one mutex-guarded lookup amortized over the whole product) so a
/// pinned PLBHEC_KDISP_FORCE / test ceiling always takes effect.
kdisp::GemmMicroFn* resolve_micro(std::size_t n,
                                  kdisp::Selection* chosen = nullptr) {
  detail::link_gemm_avx2_kernel();
  return kdisp::KernelRegistry::instance().select<kdisp::GemmMicroFn>(
      kdisp::kGemmMicroKernel, kdisp::classify_width(n), chosen);
}

/// The row-streaming kernel paired with a micro-kernel of ISA `isa`, or
/// null when none was registered at exactly that ISA: streaming is
/// bit-identical to the packed path only within one ISA's rounding.
kdisp::GemmRowsFn* resolve_rows(std::size_t n, kdisp::IsaClass isa) {
  const std::optional<kdisp::Selection> sel =
      kdisp::KernelRegistry::instance().lookup(
          kdisp::kGemmRowsKernel, kdisp::classify_width(n), isa);
  if (!sel.has_value() || sel->isa != isa) return nullptr;
  return reinterpret_cast<kdisp::GemmRowsFn*>(sel->fn);
}

/// Multiplies row block [i0, i0+rows) against the packed B panel.
void run_row_block(kdisp::GemmMicroFn* micro, const double* a, double* c,
                   std::size_t n, std::size_t k, std::size_t i0,
                   std::size_t rows, std::size_t k0, std::size_t kc,
                   const double* bpack, std::vector<double>& apack) {
  const std::size_t nstrips = (n + kGemmNr - 1) / kGemmNr;
  apack.resize(kc * kGemmMr);
  for (std::size_t i = i0; i < i0 + rows; i += kGemmMr) {
    const std::size_t mr = std::min(kGemmMr, i0 + rows - i);
    pack_a(a, k, i, mr, k0, kc, apack.data());
    for (std::size_t s = 0; s < nstrips; ++s) {
      const std::size_t j0 = s * kGemmNr;
      const std::size_t nr = std::min(kGemmNr, n - j0);
      micro(kc, apack.data(), bpack + s * kc * kGemmNr, c + i * n + j0, n, mr,
            nr);
    }
  }
}

std::vector<double>& pack_buffer_b() {
  thread_local std::vector<double> buf;
  return buf;
}

std::vector<double>& pack_buffer_a() {
  thread_local std::vector<double> buf;
  return buf;
}

}  // namespace

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 const double* b, double* c) {
  if (m == 0 || n == 0 || k == 0) return;
  kdisp::Selection chosen;
  kdisp::GemmMicroFn* const micro = resolve_micro(n, &chosen);
  // Thin row blocks: packing all of B would cost more than the product.
  if (m < 2 * kGemmMr) {
    if (kdisp::GemmRowsFn* const rows = resolve_rows(n, chosen.isa)) {
      rows(m, n, k, a, b, c);
      return;
    }
  }
  const std::size_t nstrips = (n + kGemmNr - 1) / kGemmNr;
  std::vector<double>& bpack = pack_buffer_b();
  for (std::size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const std::size_t kc = std::min(kGemmKc, k - k0);
    bpack.resize(nstrips * kc * kGemmNr);
    pack_b(b, n, k0, kc, bpack.data());
    run_row_block(micro, a, c, n, k, 0, m, k0, kc, bpack.data(),
                  pack_buffer_a());
  }
}

void gemm_packed_parallel(std::size_t m, std::size_t n, std::size_t k,
                          const double* a, const double* b, double* c,
                          ThreadPool& pool, unsigned max_lanes) {
  if (m == 0 || n == 0 || k == 0) return;
  unsigned lanes = pool.concurrency();
  if (max_lanes != 0) lanes = std::min(lanes, max_lanes);
  if (lanes <= 1 || m < 2 * kGemmMr) {
    gemm_packed(m, n, k, a, b, c);
    return;
  }
  kdisp::GemmMicroFn* const micro = resolve_micro(n);
  // Row grain: MR-aligned so no two lanes share a C tile row block.
  const std::size_t blocks = (m + kGemmMr - 1) / kGemmMr;
  const std::size_t grain_blocks =
      (blocks + static_cast<std::size_t>(lanes) - 1) /
      static_cast<std::size_t>(lanes);
  const std::size_t grain = grain_blocks * kGemmMr;

  const std::size_t nstrips = (n + kGemmNr - 1) / kGemmNr;
  std::vector<double>& bpack = pack_buffer_b();
  for (std::size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const std::size_t kc = std::min(kGemmKc, k - k0);
    bpack.resize(nstrips * kc * kGemmNr);
    pack_b(b, n, k0, kc, bpack.data());
    const double* bp = bpack.data();
    pool.parallel_for(
        0, m, grain,
        [micro, a, c, n, k, k0, kc, bp](std::size_t lo, std::size_t hi) {
          run_row_block(micro, a, c, n, k, lo, hi - lo, k0, kc, bp,
                        pack_buffer_a());
        });
  }
}

}  // namespace plbhec::exec
