#pragma once
/// \file registry.hpp
/// Runtime kernel-dispatch registry (the MFEM specialization-table pattern
/// adapted to ISA selection): kernel variants register once under a
/// (kernel name, ISA class, width class) key via the static-registration
/// macro below, and a lookup at runtime returns the highest-ISA variant
/// the host can execute — so a single binary runs its best kernel on every
/// machine of a heterogeneous cluster while the coordinator and the wire
/// protocol stay ISA-agnostic. The dispatch choice is observable (counters
/// in publish_counters(), a kKernelDispatch obs event recorded by the
/// engines) but never serialized: a daemon's ISA is its own business.
///
/// Width classes play the role of MFEM's compile-time size
/// specializations: a kernel whose inner trip count is tiny (a short SpMV
/// row, a narrow stencil line) never amortizes vector setup, so families
/// may register wide-ISA variants only for kWide and let narrow instances
/// fall back to scalar through the ordinary downward scan.
///
/// Variant contract: every variant registered under one kernel name must
/// (a) share the function signature the family's select<Fn>() names, and
/// (b) produce bit-identical results — coordinators and daemons with
/// different ISAs exchange results that are byte-compared by the replay
/// and identity gates. The new workload families keep the contract by
/// fixing the reduction tree (4-lane accumulator blocking, one hsum
/// order) and banning FMA contraction in every variant TU; `gemm` and
/// `gemm_rows` are the documented exception (their AVX2 variants use FMA,
/// so their variants agree only to rounding — matmul ships results, never
/// re-reduces them, and its identity gates compare runs of one process,
/// which dispatches uniformly). Within one ISA, `gemm_rows` is
/// bit-identical to `gemm`.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "plbhec/kdisp/isa.hpp"

namespace plbhec::obs {
class CounterRegistry;
}

namespace plbhec::kdisp {

/// Inner-width class of a kernel instance (the vectorizable trip count:
/// row length, mean nnz per row, bodies per interaction loop).
enum class WidthClass : std::uint8_t {
  kNarrow = 0,  ///< trip count too short to amortize vector setup
  kWide = 1,
};

/// Trip counts below this classify as kNarrow (two AVX-512 lanes' worth —
/// under that, permute/gather setup rivals the arithmetic it feeds).
inline constexpr std::size_t kNarrowWidthLimit = 16;

[[nodiscard]] constexpr WidthClass classify_width(std::size_t inner_width) {
  return inner_width < kNarrowWidthLimit ? WidthClass::kNarrow
                                         : WidthClass::kWide;
}

[[nodiscard]] const char* to_string(WidthClass width);

/// Type-erased kernel entry point; select<Fn>() casts back to the
/// family's real signature.
using KernelFn = void (*)();

/// One resolved dispatch decision.
struct Selection {
  KernelFn fn = nullptr;
  IsaClass isa = IsaClass::kScalar;
  std::string_view variant_name;  ///< registered symbol name (static storage)
};

/// A resolved (kernel, width) slot, for counters/reporting.
struct DispatchRecord {
  std::string kernel;
  WidthClass width = WidthClass::kWide;
  IsaClass isa = IsaClass::kScalar;
  std::string_view variant_name;
  std::uint64_t lookups = 0;
};

class KernelRegistry {
 public:
  /// The process-wide table (Meyers singleton; safe to use from variant
  /// TUs' static registrars).
  [[nodiscard]] static KernelRegistry& instance();

  /// Registers one variant. Registering the same (kernel, isa, width) key
  /// twice is a contract violation (aborts) — variants register once.
  void register_kernel(std::string_view kernel, IsaClass isa,
                       WidthClass width, KernelFn fn,
                       std::string_view variant_name);

  /// Highest-ISA variant for (kernel, width) at or below `ceiling`,
  /// scanning downward to scalar — an unknown or too-new ISA therefore
  /// degrades to the portable kernel instead of failing. nullopt when the
  /// kernel name has no variant at any ISA for this width class.
  [[nodiscard]] std::optional<Selection> lookup(
      std::string_view kernel, WidthClass width,
      IsaClass ceiling = effective_isa());

  /// Typed lookup for a family whose variants share signature `Fn`;
  /// aborts if nothing (not even scalar) is registered — a linked-in
  /// family always has its portable variant.
  template <typename Fn>
  [[nodiscard]] Fn* select(std::string_view kernel, WidthClass width,
                           Selection* chosen = nullptr) {
    const std::optional<Selection> sel = lookup(kernel, width);
    if (!sel.has_value()) missing_kernel(kernel);
    if (chosen != nullptr) *chosen = *sel;
    return reinterpret_cast<Fn*>(sel->fn);
  }

  /// Number of registered variants (all keys).
  [[nodiscard]] std::size_t variant_count() const;

  /// Every (kernel, width) slot resolved by lookup() so far, with the
  /// decision it resolved to and how often it was asked. Name-sorted.
  [[nodiscard]] std::vector<DispatchRecord> resolved() const;

  /// Publishes the dispatch table into `registry`:
  ///   kdisp.host_isa / kdisp.effective_isa   (IsaClass as integer)
  ///   kdisp.variants                         (registered variant count)
  ///   kdisp.<kernel>.<width>.isa / .lookups  (per resolved slot)
  void publish_counters(obs::CounterRegistry& registry) const;

 private:
  KernelRegistry() = default;

  /// Abort path of select<Fn>(), kept out of the template.
  [[noreturn]] static void missing_kernel(std::string_view kernel);

  struct Entry {
    std::string kernel;
    IsaClass isa;
    WidthClass width;
    KernelFn fn;
    std::string_view variant_name;
  };
  struct Slot {
    std::string kernel;
    WidthClass width;
    Selection selection;
    std::uint64_t lookups = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::vector<Slot> slots_;  ///< lookup memo + dispatch audit trail
};

namespace detail {

/// Static-registration helper: constructing one registers a variant.
struct Registrar {
  Registrar(std::string_view kernel, IsaClass isa, WidthClass width,
            KernelFn fn, std::string_view variant_name) {
    KernelRegistry::instance().register_kernel(kernel, isa, width, fn,
                                               variant_name);
  }
};

}  // namespace detail

#define PLBHEC_KDISP_CONCAT_IMPL(a, b) a##b
#define PLBHEC_KDISP_CONCAT(a, b) PLBHEC_KDISP_CONCAT_IMPL(a, b)

/// Registers `fn` (whose signature must match the family's published
/// kernel signature) as the (kernel, isa, width) variant. File-scope use,
/// once per variant:
///   PLBHEC_REGISTER_KERNEL("spmv", IsaClass::kAvx2, WidthClass::kWide,
///                          spmv_rows_avx2);
#define PLBHEC_REGISTER_KERNEL(kernel, isa, width, fn)                \
  static const ::plbhec::kdisp::detail::Registrar PLBHEC_KDISP_CONCAT(\
      plbhec_kdisp_registrar_, __COUNTER__){                          \
      kernel, isa, width,                                             \
      reinterpret_cast<::plbhec::kdisp::KernelFn>(+(fn)), #fn}

}  // namespace plbhec::kdisp
