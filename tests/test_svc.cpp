// Tests for the multi-tenant service layer: ProfileStore format
// robustness (truncation / magic / checksum / version skew reject cleanly
// and fall back to cold start), bit-identical warm-start round-trips,
// staleness stamps,
// lease-target fairness properties, JobManager admission ordering,
// replay determinism, zero lost grains when a leased unit dies mid-block,
// and the stretch bound under a bursty mixed-priority trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/profile_db.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/job_manager.hpp"
#include "plbhec/svc/lease.hpp"
#include "plbhec/svc/profile_store.hpp"

namespace plbhec::svc {
namespace {

// ---- ProfileStore ---------------------------------------------------------

/// A well-conditioned sample curve: near-linear with an intercept, the
/// kind of profile a real modeling phase produces.
fit::SampleSet curve_samples(double slope, double intercept,
                             std::size_t count) {
  fit::SampleSet set;
  for (std::size_t i = 1; i <= count; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(count + 1);
    set.add(x, intercept + slope * x + 1e-4 * x * x);
  }
  return set;
}

ProfileEntry entry_for(const std::string& app) {
  return make_entry(app, "dev-cpu", curve_samples(2.0, 0.1, 8),
                    curve_samples(0.5, 0.01, 8), 1000.0, {});
}

ProfileStore one_entry_store() {
  ProfileStore store;
  store.put(entry_for("app-a"));
  return store;
}

TEST(ProfileStore, EncodeDecodeRoundTripsBitIdentically) {
  const ProfileStore store = one_entry_store();
  const std::vector<std::uint8_t> bytes = store.encode();

  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(bytes, loaded), StoreLoadStatus::kOk);
  ASSERT_EQ(loaded.size(), 1u);

  const ProfileEntry& a = store.entries()[0];
  const ProfileEntry& b = loaded.entries()[0];
  EXPECT_EQ(a.app_kind, b.app_kind);
  EXPECT_EQ(a.device_kind, b.device_kind);
  EXPECT_EQ(a.total_grains, b.total_grains);
  EXPECT_EQ(a.stored_r2, b.stored_r2);  // exact: doubles are memcpy'd
  ASSERT_EQ(a.exec.size(), b.exec.size());
  for (std::size_t i = 0; i < a.exec.size(); ++i) {
    EXPECT_EQ(a.exec[i].x, b.exec[i].x);
    EXPECT_EQ(a.exec[i].time, b.exec[i].time);
  }
  EXPECT_EQ(a.exec_moments, b.exec_moments);
  EXPECT_EQ(a.transfer_moments, b.transfer_moments);
  EXPECT_EQ(a.exec_model.coefficients, b.exec_model.coefficients);
  EXPECT_EQ(a.transfer_model.slope, b.transfer_model.slope);

  // Re-encoding the decoded store reproduces the image byte for byte.
  EXPECT_EQ(loaded.encode(), bytes);
}

TEST(ProfileStore, WarmSeedRefitsIdenticallyAfterRoundTrip) {
  const ProfileStore store = one_entry_store();
  const std::vector<std::uint8_t> bytes = store.encode();
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(bytes, loaded), StoreLoadStatus::kOk);

  // Seed two profile databases — one from the original store, one from the
  // decoded image — with matching grain totals, so the moment snapshots
  // restore bit-exactly, and compare the resulting fits.
  rt::ProfileDb original(1, 1000);
  rt::ProfileDb reloaded(1, 1000);
  original.seed(0, store.warm_profile("app-a", "dev-cpu"));
  reloaded.seed(0, loaded.warm_profile("app-a", "dev-cpu"));
  ASSERT_EQ(original.exec_samples(0).size(), 8u);
  ASSERT_EQ(reloaded.exec_samples(0).size(), 8u);

  const fit::PerfModel fit_a = original.fit_unit(0);
  const fit::PerfModel fit_b = reloaded.fit_unit(0);
  ASSERT_TRUE(fit_a.valid());
  ASSERT_EQ(fit_a.exec.coefficients.size(), fit_b.exec.coefficients.size());
  for (std::size_t i = 0; i < fit_a.exec.coefficients.size(); ++i) {
    EXPECT_NEAR(fit_a.exec.coefficients[i], fit_b.exec.coefficients[i],
                1e-12);
    EXPECT_EQ(fit_a.exec.coefficients[i], fit_b.exec.coefficients[i]);
  }
  EXPECT_EQ(fit_a.exec.r2, fit_b.exec.r2);
  EXPECT_EQ(fit_a.transfer.slope, fit_b.transfer.slope);
  EXPECT_EQ(fit_a.transfer.latency, fit_b.transfer.latency);
}

TEST(ProfileStore, SeedRescalesAcrossGrainTotals) {
  const ProfileStore store = one_entry_store();  // totals 1000
  rt::ProfileDb db(1, 2000);                     // new run: twice the grains
  db.seed(0, store.warm_profile("app-a", "dev-cpu"));
  // x' = x * 1000 / 2000: all fractions halve and stay in (0, 1].
  ASSERT_EQ(db.exec_samples(0).size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(db.exec_samples(0).items()[i].x,
                     store.entries()[0].exec[i].x * 0.5);
  }
  db.clear_unit(0);
  EXPECT_TRUE(db.exec_samples(0).empty());
  EXPECT_TRUE(db.transfer_samples(0).empty());
}

TEST(ProfileStore, RejectsTruncationAtEveryPrefixLength) {
  const std::vector<std::uint8_t> bytes = one_entry_store().encode();
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          std::size_t{19}, bytes.size() / 2,
                          bytes.size() - 1}) {
    ProfileStore out;
    const auto status = ProfileStore::decode(
        std::span<const std::uint8_t>(bytes.data(), cut), out);
    EXPECT_EQ(status, StoreLoadStatus::kTruncated) << "cut=" << cut;
    EXPECT_TRUE(out.empty());
  }
}

TEST(ProfileStore, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[0] ^= 0xff;
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kBadMagic);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, RejectsVersionSkew) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[8] += 1;  // bump the little-endian version field
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kVersionSkew);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, RejectsChecksumMismatch) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kBadChecksum);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes.push_back(0x42);
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kCorrupt);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, LoadReportsMissingFile) {
  ProfileStore out;
  EXPECT_EQ(ProfileStore::load("/nonexistent/plbhec.store", out),
            StoreLoadStatus::kMissing);
}

TEST(ProfileStore, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "plbhec_store_roundtrip.bin";
  std::remove(path.c_str());
  const ProfileStore store = one_entry_store();
  ASSERT_TRUE(store.save(path));
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::load(path, loaded), StoreLoadStatus::kOk);
  EXPECT_EQ(loaded.encode(), store.encode());
  std::remove(path.c_str());
}

TEST(ProfileStore, PutReplacesByKeyAndCountsUpdates) {
  ProfileStore store = one_entry_store();
  EXPECT_EQ(store.entries()[0].updates, 1u);
  store.put(make_entry("app-a", "dev-cpu", curve_samples(3.0, 0.2, 10),
                       curve_samples(0.5, 0.01, 10), 500.0, {}));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.entries()[0].updates, 2u);
  EXPECT_EQ(store.entries()[0].total_grains, 500.0);
  store.put(make_entry("app-b", "dev-cpu", curve_samples(1.0, 0.1, 8),
                       curve_samples(0.5, 0.01, 8), 100.0, {}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.entries()[0].app_kind, "app-a");  // sorted by key
  EXPECT_EQ(store.entries()[1].app_kind, "app-b");
}

TEST(ProfileStore, TrimsToSampleCapWithConsistentMoments) {
  const std::size_t cap = ProfileStore::kMaxSamplesPerCurve;
  const fit::SampleSet big = curve_samples(2.0, 0.1, cap + 40);
  const ProfileEntry entry =
      make_entry("app", "dev", big, big, 1000.0, {});
  ASSERT_EQ(entry.exec.size(), cap);
  EXPECT_EQ(entry.exec_moments.n, cap);
  // The most recent samples are the ones kept.
  EXPECT_EQ(entry.exec.back().x, big.items().back().x);
  EXPECT_EQ(entry.exec.front().x, big.items()[40].x);
}

TEST(ProfileStoreStamps, PutAdvancesSequenceAndStampsEntries) {
  ProfileStore store;
  store.put(entry_for("app-a"));
  store.put(entry_for("app-b"));
  store.put(entry_for("app-a"));  // refresh: re-stamped, update count kept
  EXPECT_EQ(store.sequence(), 3u);

  const ProfileEntry* a = store.find("app-a", "dev-cpu");
  const ProfileEntry* b = store.find("app-b", "dev-cpu");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->stamp, b->stamp);  // app-a was refreshed last
  EXPECT_EQ(a->updates, 2u);

  // warm_profile exposes the age = sequence - stamp the scheduler gates on.
  EXPECT_EQ(store.warm_profile("app-a", "dev-cpu").age,
            store.sequence() - a->stamp);
  EXPECT_EQ(store.warm_profile("app-b", "dev-cpu").age,
            store.sequence() - b->stamp);
  EXPECT_GT(store.warm_profile("app-b", "dev-cpu").age, 0u);
}

TEST(ProfileStoreStamps, StampsAndSequenceSurviveEncodeDecode) {
  ProfileStore store;
  store.put(entry_for("app-a"));
  store.put(entry_for("app-b"));
  const std::vector<std::uint8_t> bytes = store.encode();
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(bytes, loaded), StoreLoadStatus::kOk);
  EXPECT_EQ(loaded.sequence(), store.sequence());
  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i].stamp, store.entries()[i].stamp);
    EXPECT_EQ(loaded.entries()[i].updates, store.entries()[i].updates);
  }
}

TEST(ProfileStoreStamps, VersionSkewStillRejectsCleanly) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] += 1;  // version u32 lives at offset 8, little-endian
  ProfileStore loaded;
  EXPECT_EQ(ProfileStore::decode(bytes, loaded),
            StoreLoadStatus::kVersionSkew);
  EXPECT_TRUE(loaded.empty());
}

// ---- lease policy ---------------------------------------------------------

TEST(LeasePolicy, TargetsSumToUnitsAndRespectFloor) {
  const LeasePolicyOptions options;
  for (std::size_t n : {3u, 7u, 10u, 16u}) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<ActiveJobView> jobs;
      for (std::size_t i = 0; i < k; ++i) {
        jobs.push_back({i, static_cast<PriorityClass>(i % 3)});
      }
      const std::vector<std::size_t> targets = lease_targets(jobs, n, options);
      std::size_t sum = 0;
      for (std::size_t t : targets) {
        EXPECT_GE(t, n / k);  // the fairness floor, regardless of priority
        sum += t;
      }
      EXPECT_EQ(sum, n);
    }
  }
}

TEST(LeasePolicy, PriorityBiasesOnlyTheRemainder) {
  const LeasePolicyOptions options;
  const std::vector<ActiveJobView> jobs = {{0, PriorityClass::kLow},
                                           {1, PriorityClass::kHigh},
                                           {2, PriorityClass::kNormal}};
  const std::vector<std::size_t> targets = lease_targets(jobs, 11, options);
  // floor = 3 each; the 2 remainder units go to the heaviest weights.
  EXPECT_EQ(targets[0], 3u);
  EXPECT_GE(targets[1], 4u);
  EXPECT_EQ(targets[0] + targets[1] + targets[2], 11u);
  EXPECT_GE(targets[1], targets[2]);
  EXPECT_GE(targets[2], targets[0]);
}

TEST(LeasePolicy, DeterministicAcrossCalls) {
  const LeasePolicyOptions options;
  std::vector<ActiveJobView> jobs = {{0, PriorityClass::kNormal},
                                     {1, PriorityClass::kNormal},
                                     {2, PriorityClass::kNormal}};
  const auto a = lease_targets(jobs, 10, options);
  const auto b = lease_targets(jobs, 10, options);
  EXPECT_EQ(a, b);
}

TEST(LeasePolicy, StretchBound) {
  EXPECT_DOUBLE_EQ(stretch_bound(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(stretch_bound(10, 3), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(stretch_bound(4, 4), 4.0);
}

// ---- JobManager -----------------------------------------------------------

JobSpec synthetic_job(std::string name, std::string kind,
                      PriorityClass priority, double arrival,
                      std::size_t grains, double flops = 2e7) {
  apps::SyntheticWorkload::Config config;
  config.grains = grains;
  config.flops_per_grain = flops;
  config.bytes_per_grain = 2048;
  return {std::move(name), std::move(kind), priority, arrival,
          [config] { return std::make_unique<apps::SyntheticWorkload>(config); }};
}

ServiceOptions quiet_options(std::uint64_t seed = 7) {
  ServiceOptions options;
  options.seed = seed;
  options.noise = sim::NoiseModel::none();
  return options;
}

TEST(JobManager, RunsMixedTraceToCompletion) {
  sim::SimCluster cluster(sim::scenario(2));
  JobManager manager(cluster, quiet_options());
  manager.submit(synthetic_job("a", "syn-a", PriorityClass::kNormal, 0.0,
                               20'000));
  manager.submit(synthetic_job("b", "syn-b", PriorityClass::kHigh, 0.01,
                               8'000));
  manager.submit(synthetic_job("c", "syn-a", PriorityClass::kLow, 0.02,
                               8'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.completion_order.size(), 3u);
  for (const JobOutcome& job : result.jobs) {
    EXPECT_TRUE(job.ok);
    EXPECT_GE(job.admitted, job.arrival);
    EXPECT_GT(job.finished, job.admitted);
    EXPECT_GT(job.tasks, 0u);
  }
  // Overlapping jobs must actually exercise the leasing protocol: the
  // first job's lease shrinks when the burst arrives and regrows after.
  EXPECT_GT(result.leases_granted, 0u);
  EXPECT_GT(result.leases_revoked, 0u);
  EXPECT_GT(result.scheduler_restarts, 0u);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
}

TEST(JobManager, ReplayIsDeterministic) {
  sim::SimCluster cluster(sim::scenario(2));
  const auto build = [&cluster] {
    auto manager = std::make_unique<JobManager>(cluster, quiet_options(11));
    manager->submit(synthetic_job("a", "syn-a", PriorityClass::kNormal, 0.0,
                                  15'000));
    manager->submit(synthetic_job("b", "syn-b", PriorityClass::kHigh, 0.005,
                                  6'000));
    manager->submit(synthetic_job("c", "syn-c", PriorityClass::kLow, 0.01,
                                  6'000));
    return manager;
  };
  const ServiceResult first = build()->run();
  const ServiceResult second = build()->run();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.completion_order, second.completion_order);
  EXPECT_EQ(first.makespan, second.makespan);  // exact, not approximate
  EXPECT_EQ(first.leases_granted, second.leases_granted);
  EXPECT_EQ(first.leases_revoked, second.leases_revoked);
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].finished, second.jobs[i].finished);
    EXPECT_EQ(first.jobs[i].tasks, second.jobs[i].tasks);
  }
}

TEST(JobManager, UnitDeathMidLeaseLosesZeroGrains) {
  sim::SimCluster cluster(sim::scenario(2));
  // Unit 3 dies mid-block while both jobs hold leases. The death changes
  // no lease target, so no scheduler restart re-pools the lost grains:
  // they must flow back through the failure path itself.
  const double death = 0.03;
  cluster.fail_unit(3, death);
  obs::EventSink sink;
  ServiceOptions options = quiet_options();
  options.sink = &sink;
  JobManager manager(cluster, options);
  manager.submit(synthetic_job("early", "syn-a", PriorityClass::kNormal, 0.0,
                               20'000));
  manager.submit(synthetic_job("later", "syn-b", PriorityClass::kNormal,
                               0.005, 6'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.scheduler_restarts, 0u);
  // Zero lost grains: a job only reports ok when every grain executed,
  // so completion of both jobs across the failure is the conservation
  // statement.
  for (const JobOutcome& job : result.jobs) {
    EXPECT_TRUE(job.ok) << job.name;
    EXPECT_GT(job.tasks, 0u) << job.name;
    EXPECT_LT(job.admitted, death) << job.name;
    EXPECT_GT(job.finished, death) << job.name;
  }
  ASSERT_EQ(result.completion_order.size(), 2u);
  EXPECT_NE(result.completion_order[0], result.completion_order[1]);
  if (obs::kCompiledIn) {
    // The failure landed mid-block: it returned grains, which the owner
    // then re-executed (both jobs finished).
    std::size_t failures = 0;
    for (const obs::Event& e : sink.drain()) {
      if (e.kind != obs::EventKind::kUnitFailed) continue;
      ++failures;
      EXPECT_EQ(e.unit, 3u);
      EXPECT_GT(e.i, 0u) << "unit died idle; no grains were in flight";
    }
    EXPECT_EQ(failures, 1u);
  }
}

TEST(JobManager, FitMemoServesRepeatedSelectionsAndPublishesCounters) {
  // Jobs of one kind repeat each other's sample sets bit for bit (no
  // noise, same units); the run's memo serves those selections.
  sim::SimCluster cluster(sim::scenario(2));
  obs::CounterRegistry counters;
  ServiceOptions options = quiet_options();
  options.counters = &counters;
  JobManager manager(cluster, options);
  for (int i = 0; i < 4; ++i)
    manager.submit(synthetic_job("s" + std::to_string(i), "syn-s",
                                 PriorityClass::kNormal, 0.5 * i, 4'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.fit_memo_hits, 0u);
  EXPECT_GT(result.fit_memo_misses, 0u);
  EXPECT_EQ(counters.value("svc.fit_memo.hits"), result.fit_memo_hits);
  EXPECT_EQ(counters.value("svc.fit_memo.misses"), result.fit_memo_misses);
}

TEST(JobManager, AdmissionQueueHonorsPriorityThenFifo) {
  sim::SimCluster cluster(sim::scenario(1));
  ServiceOptions options = quiet_options();
  options.lease.max_active_jobs = 1;  // serialize: queue order observable
  JobManager manager(cluster, options);
  manager.submit(synthetic_job("first", "syn", PriorityClass::kLow, 0.0,
                               10'000));
  manager.submit(synthetic_job("normal", "syn", PriorityClass::kNormal, 0.001,
                               5'000));
  manager.submit(synthetic_job("high", "syn", PriorityClass::kHigh, 0.002,
                               5'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  // "first" is admitted on arrival; both others are queued by the time it
  // completes, and the high-priority one must leave the queue first.
  ASSERT_EQ(result.completion_order.size(), 3u);
  EXPECT_EQ(result.jobs[result.completion_order[0]].name, "first");
  EXPECT_EQ(result.jobs[result.completion_order[1]].name, "high");
  EXPECT_EQ(result.jobs[result.completion_order[2]].name, "normal");
  EXPECT_GT(result.jobs[2].queue_wait(), 0.0);
}

TEST(JobManager, WarmStartSkipsProbingBlocksAcrossRuns) {
  const std::string path = testing::TempDir() + "plbhec_warm_store.bin";
  std::remove(path.c_str());
  sim::SimCluster cluster(sim::scenario(2));

  const auto run_once = [&] {
    ServiceOptions options;
    options.seed = 21;
    options.store_path = path;
    JobManager manager(cluster, options);
    manager.submit({"mm", "matmul-1024", PriorityClass::kNormal, 0.0,
                    [] { return std::make_unique<apps::MatMulWorkload>(1024); }});
    return manager.run();
  };

  const ServiceResult cold = run_once();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.store_status, StoreLoadStatus::kMissing);
  EXPECT_EQ(cold.warm_hits, 0u);
  EXPECT_GT(cold.probe_blocks, 0u);

  const ServiceResult warm = run_once();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.store_status, StoreLoadStatus::kOk);
  EXPECT_GT(warm.warm_hits, 0u);
  EXPECT_GT(warm.probe_blocks_saved, 0u);
  EXPECT_LT(warm.probe_blocks, cold.probe_blocks);
  std::remove(path.c_str());
}

TEST(JobManager, CorruptStoreFallsBackToColdStart) {
  const std::string path = testing::TempDir() + "plbhec_corrupt_store.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "definitely not a profile store image";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  obs::CounterRegistry counters;
  sim::SimCluster cluster(sim::scenario(1));
  ServiceOptions options = quiet_options();
  options.store_path = path;
  options.counters = &counters;
  JobManager manager(cluster, options);
  EXPECT_EQ(manager.store_status(), StoreLoadStatus::kBadMagic);
  EXPECT_EQ(counters.value("svc.store.load_failed"), 1u);
  EXPECT_TRUE(manager.store().empty());

  manager.submit(synthetic_job("job", "syn", PriorityClass::kNormal, 0.0,
                               5'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;  // cold start, no crash
  EXPECT_EQ(result.warm_hits, 0u);
  std::remove(path.c_str());
}

TEST(JobManager, LeaseFairnessBoundsStretchUnderBurstyLoad) {
  sim::SimCluster cluster(sim::scenario(2));
  const std::size_t n = cluster.size();

  // A low-priority long job with high-priority bursts arriving on top.
  const std::vector<JobSpec> trace = {
      synthetic_job("long", "syn-long", PriorityClass::kLow, 0.0, 40'000),
      synthetic_job("burst-0", "syn-s", PriorityClass::kHigh, 0.01, 6'000),
      synthetic_job("burst-1", "syn-s", PriorityClass::kHigh, 0.02, 6'000),
      synthetic_job("burst-2", "syn-s", PriorityClass::kHigh, 0.03, 6'000),
  };

  // Solo baselines: each job alone on the idle cluster, same seed.
  std::vector<double> solo(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    JobManager manager(cluster, quiet_options(5));
    manager.submit(trace[i]);
    const ServiceResult result = manager.run();
    ASSERT_TRUE(result.ok) << result.error;
    solo[i] = result.jobs[0].turnaround();
    ASSERT_GT(solo[i], 0.0);
  }

  JobManager manager(cluster, quiet_options(5));
  for (const JobSpec& spec : trace) manager.submit(spec);
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.leases_revoked, 0u);  // the protocol actually engaged

  // Every job — including the low-priority one — holds at least the
  // floor(n/k) fairness share while running, so its stretch against
  // running alone stays bounded. The capacity bound is stretch_bound(n, k)
  // with k concurrent jobs; scheduling overheads (probing, drain
  // boundaries, queueing) are covered by the slack factor.
  const double bound = stretch_bound(n, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double stretch = result.jobs[i].turnaround() / solo[i];
    EXPECT_LE(stretch, bound * 2.0)
        << result.jobs[i].name << " stretch " << stretch << " vs bound "
        << bound;
  }
}

}  // namespace
}  // namespace plbhec::svc
