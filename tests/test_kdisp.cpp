// Tests for the runtime ISA kernel-dispatch registry and the contract the
// dispatched workload families make with it: the table resolves the
// highest registered variant at or below the ceiling and degrades to
// scalar instead of failing on unknown/too-new ISAs or narrow widths; the
// forced-scalar and best-ISA variants of every reduction family are
// bit-identical; the dispatch decision is observable through counters but
// never leaks into workload results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "plbhec/apps/nbody.hpp"
#include "plbhec/apps/spmv.hpp"
#include "plbhec/apps/stencil.hpp"
#include "plbhec/kdisp/isa.hpp"
#include "plbhec/kdisp/kernels.hpp"
#include "plbhec/kdisp/registry.hpp"
#include "plbhec/obs/counters.hpp"

namespace plbhec::kdisp {
namespace {

// RAII ceiling pin: every test that forces an ISA restores the process
// default on exit so test order never matters.
class ScopedIsa {
 public:
  explicit ScopedIsa(IsaClass isa)
      : previous_(set_effective_isa_for_testing(isa)) {}
  ~ScopedIsa() { set_effective_isa_for_testing(previous_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  IsaClass previous_;
};

TEST(KdispTable, WidthClassification) {
  EXPECT_EQ(classify_width(0), WidthClass::kNarrow);
  EXPECT_EQ(classify_width(kNarrowWidthLimit - 1), WidthClass::kNarrow);
  EXPECT_EQ(classify_width(kNarrowWidthLimit), WidthClass::kWide);
  EXPECT_EQ(classify_width(1 << 20), WidthClass::kWide);
}

TEST(KdispTable, IsaNamesRoundTripAndRejectUnknown) {
  EXPECT_EQ(parse_isa("scalar"), IsaClass::kScalar);
  EXPECT_EQ(parse_isa("avx2"), IsaClass::kAvx2);
  EXPECT_EQ(parse_isa("avx512"), IsaClass::kAvx512);
  EXPECT_EQ(parse_isa("best"), IsaClass::kAvx512);
  EXPECT_EQ(parse_isa("sse9"), std::nullopt);
  EXPECT_EQ(parse_isa(""), std::nullopt);
  for (const IsaClass isa :
       {IsaClass::kScalar, IsaClass::kAvx2, IsaClass::kAvx512})
    EXPECT_EQ(parse_isa(to_string(isa)), isa);
}

TEST(KdispTable, EffectiveIsaNeverExceedsHost) {
  EXPECT_LE(effective_isa(), host_isa());
  const ScopedIsa pin(IsaClass::kAvx512);  // clamped, not trusted
  EXPECT_LE(effective_isa(), host_isa());
}

TEST(KdispTable, EveryFamilyHasAScalarWideVariant) {
  KernelRegistry& reg = KernelRegistry::instance();
  for (const char* kernel : {kSpmvKernel, kStencilKernel, kNbodyKernel,
                             kGemmMicroKernel, kGemmRowsKernel}) {
    const auto sel = reg.lookup(kernel, WidthClass::kWide, IsaClass::kScalar);
    ASSERT_TRUE(sel.has_value()) << kernel;
    EXPECT_EQ(sel->isa, IsaClass::kScalar) << kernel;
    EXPECT_NE(sel->fn, nullptr) << kernel;
    EXPECT_FALSE(sel->variant_name.empty()) << kernel;
  }
}

TEST(KdispTable, DownwardScanNeverExceedsTheCeiling) {
  KernelRegistry& reg = KernelRegistry::instance();
  for (const char* kernel : {kSpmvKernel, kStencilKernel, kNbodyKernel,
                             kGemmMicroKernel, kGemmRowsKernel}) {
    for (const IsaClass ceiling :
         {IsaClass::kScalar, IsaClass::kAvx2, IsaClass::kAvx512}) {
      const auto sel = reg.lookup(kernel, WidthClass::kWide, ceiling);
      ASSERT_TRUE(sel.has_value()) << kernel;
      EXPECT_LE(sel->isa, ceiling) << kernel;
    }
  }
}

TEST(KdispTable, TooNewCeilingDegradesToTheBestRegisteredVariant) {
  KernelRegistry& reg = KernelRegistry::instance();
  // nbody registers no AVX-512 variant: an AVX-512 ceiling must resolve
  // to the AVX2 entry, not fail.
  const auto nbody =
      reg.lookup(kNbodyKernel, WidthClass::kWide, IsaClass::kAvx512);
  ASSERT_TRUE(nbody.has_value());
  EXPECT_EQ(nbody->isa, IsaClass::kAvx2);
  // A ceiling one past the ladder's top (an "unknown future ISA") behaves
  // like the top: the scan only ever walks downward.
  const auto future = reg.lookup(kStencilKernel, WidthClass::kWide,
                                 static_cast<IsaClass>(kIsaClassCount));
  ASSERT_TRUE(future.has_value());
  EXPECT_LE(future->isa, IsaClass::kAvx512);
}

TEST(KdispTable, NarrowWidthFallsBackToScalar) {
  KernelRegistry& reg = KernelRegistry::instance();
  // Vector variants register kWide only; narrow instances take the
  // portable kernel no matter how capable the host is.
  for (const char* kernel : {kSpmvKernel, kStencilKernel, kNbodyKernel}) {
    const auto sel =
        reg.lookup(kernel, WidthClass::kNarrow, IsaClass::kAvx512);
    ASSERT_TRUE(sel.has_value()) << kernel;
    EXPECT_EQ(sel->isa, IsaClass::kScalar) << kernel;
  }
}

TEST(KdispTable, GemmRowsResolvesToTheSameIsaAsGemm) {
  // The packed driver streams thin row blocks only through a gemm_rows
  // variant of exactly the micro-kernel's ISA; the pairing must hold for
  // every width class at every ceiling, or a host would silently lose
  // the streaming path (or mix roundings).
  KernelRegistry& reg = KernelRegistry::instance();
  for (const WidthClass width : {WidthClass::kNarrow, WidthClass::kWide}) {
    for (const IsaClass ceiling :
         {IsaClass::kScalar, IsaClass::kAvx2, IsaClass::kAvx512}) {
      const auto gemm = reg.lookup(kGemmMicroKernel, width, ceiling);
      const auto rows = reg.lookup(kGemmRowsKernel, width, ceiling);
      ASSERT_TRUE(gemm.has_value() && rows.has_value());
      EXPECT_EQ(rows->isa, gemm->isa)
          << to_string(width) << " at " << to_string(ceiling);
    }
  }
}

TEST(KdispTable, UnknownKernelIsNulloptNotAbort) {
  EXPECT_FALSE(KernelRegistry::instance()
                   .lookup("no-such-kernel", WidthClass::kWide)
                   .has_value());
}

TEST(KdispTable, VariantRosterIsComplete) {
  // 10 scalar (5 families x 2 widths) + 5 AVX2 wide + 1 AVX-512 stencil.
  // Registration is unconditional — variants are always compiled in and
  // gated at lookup time — so the count is host-independent.
  EXPECT_GE(KernelRegistry::instance().variant_count(), 16u);
}

TEST(KdispTable, LookupsAreAuditedAndPublished) {
  KernelRegistry& reg = KernelRegistry::instance();
  const auto before = reg.resolved();
  std::uint64_t lookups_before = 0;
  for (const DispatchRecord& r : before)
    if (r.kernel == kSpmvKernel && r.width == WidthClass::kWide)
      lookups_before = r.lookups;
  ASSERT_TRUE(reg.lookup(kSpmvKernel, WidthClass::kWide).has_value());

  bool found = false;
  for (const DispatchRecord& r : reg.resolved()) {
    if (r.kernel != kSpmvKernel || r.width != WidthClass::kWide) continue;
    found = true;
    EXPECT_GT(r.lookups, lookups_before);
    EXPECT_FALSE(r.variant_name.empty());
  }
  EXPECT_TRUE(found);

  obs::CounterRegistry counters;
  reg.publish_counters(counters);
  EXPECT_EQ(counters.value("kdisp.variants"), reg.variant_count());
  EXPECT_EQ(counters.value("kdisp.host_isa"),
            static_cast<std::uint64_t>(host_isa()));
  EXPECT_EQ(counters.value("kdisp.effective_isa"),
            static_cast<std::uint64_t>(effective_isa()));
  EXPECT_GE(counters.value("kdisp.spmv.wide.lookups"), 1u);
}

TEST(KdispTable, ForcedCeilingChangesSubsequentLookups) {
  KernelRegistry& reg = KernelRegistry::instance();
  const ScopedIsa pin(IsaClass::kScalar);
  const auto sel = reg.lookup(kStencilKernel, WidthClass::kWide);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->isa, IsaClass::kScalar);
}

// ---- Bit-identity across variants -----------------------------------------
//
// The contract every family except gemm signs: forcing the portable
// kernel must reproduce the best-ISA result byte for byte, because
// daemons of different ISAs ship results the identity gates memcmp.

template <typename Workload, typename Run, typename Fetch>
void expect_variants_bit_identical(const Run& run, const Fetch& fetch) {
  std::optional<std::vector<double>> scalar;
  {
    const ScopedIsa pin(IsaClass::kScalar);
    Workload w = run();
    scalar = fetch(w);
  }
  // Default ceiling = the best this host executes (scalar again on a
  // scalar-only host, where the comparison is trivially green).
  Workload w = run();
  const std::vector<double> best = fetch(w);
  ASSERT_EQ(scalar->size(), best.size());
  EXPECT_EQ(0, std::memcmp(scalar->data(), best.data(),
                           best.size() * sizeof(double)));
}

TEST(KdispIdentity, SpmvForcedScalarMatchesBestIsaBitwise) {
  expect_variants_bit_identical<apps::SpmvWorkload>(
      [] {
        apps::SpmvWorkload w(
            apps::SpmvWorkload::Config{2000, 48, true, 0x59a125});
        w.execute_cpu(0, w.total_grains());
        return w;
      },
      [](const apps::SpmvWorkload& w) { return w.y(); });
}

TEST(KdispIdentity, StencilForcedScalarMatchesBestIsaBitwise) {
  expect_variants_bit_identical<apps::StencilWorkload>(
      [] {
        apps::StencilWorkload w(
            apps::StencilWorkload::Config{259, 160, true, 0x57e4c11});
        w.execute_cpu(0, w.total_grains());
        return w;
      },
      [](const apps::StencilWorkload& w) { return w.output(); });
}

TEST(KdispIdentity, NbodyForcedScalarMatchesBestIsaBitwise) {
  expect_variants_bit_identical<apps::NbodyWorkload>(
      [] {
        apps::NbodyWorkload w(apps::NbodyWorkload::Config{610, true, 7});
        w.execute_cpu(0, w.total_grains());
        return w;
      },
      [](const apps::NbodyWorkload& w) {
        std::vector<double> all = w.ax();
        all.insert(all.end(), w.ay().begin(), w.ay().end());
        all.insert(all.end(), w.az().begin(), w.az().end());
        return all;
      });
}

TEST(KdispIdentity, SpmvNarrowAndWideScalarVariantsAgree) {
  // Same data through both width-class kernels (nnz 8 classifies narrow;
  // the wide scalar variant handles any width): one reduction tree, one
  // answer.
  apps::SpmvWorkload narrow(apps::SpmvWorkload::Config{800, 8, true, 42});
  narrow.execute_cpu(0, narrow.total_grains());

  const ScopedIsa pin(IsaClass::kScalar);
  auto* const wide = KernelRegistry::instance().select<SpmvRowsFn>(
      kSpmvKernel, WidthClass::kWide);
  std::vector<double> y(narrow.total_grains(), 0.0);
  wide(narrow.row_ptr().data(), narrow.cols().data(), narrow.vals().data(),
       narrow.x().data(), y.data(), 0, narrow.total_grains());
  EXPECT_EQ(0, std::memcmp(y.data(), narrow.y().data(),
                           y.size() * sizeof(double)));
}

}  // namespace
}  // namespace plbhec::kdisp
