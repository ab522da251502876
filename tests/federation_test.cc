// Multi-host federation: host fault state machine, failure-driven
// evacuation, migration retry/backoff, racing-failure abort, degraded-fit
// fallback, and byte-identical determinism (DESIGN.md section 7).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/federation.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

// Fast-migration model for tests: 0.01 GB over 10 Gbps converges without
// pre-copy rounds, so every move costs an 8 ms blackout instead of seconds.
MigrationCostModel TinyImage() {
  MigrationCostModel m;
  m.memory_gb = 0.01;
  return m;
}

ClusterVmSpec Spec(const std::string& name, double bw, double min_bw = -1.0) {
  ClusterVmSpec spec;
  spec.name = name;
  spec.bandwidth = Bandwidth::FromDouble(bw);
  if (min_bw >= 0) {
    spec.min_bandwidth = Bandwidth::FromDouble(min_bw);
  }
  spec.migration = TinyImage();
  return spec;
}

FederationConfig TwoHosts(int pcpus, bool ft) {
  FederationConfig config;
  config.num_hosts = 2;
  config.pcpus_per_host = pcpus;
  config.policy = PlacementPolicy::kFirstFit;
  config.fault_tolerance.enabled = ft;
  return config;
}

TEST(FederationTest, HostFaultStateMachineDrivesMachineCapacity) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/false);
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/1, Sec(1), Sec(2)});
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kDegrade, /*host=*/0, Sec(3), Sec(4), 0.5});
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/1, Sec(5)});
  Federation fed(config, tmpl);

  const Bandwidth full = Bandwidth::FromDouble(2.0);
  EXPECT_EQ(fed.host(0).machine().EffectiveCapacity(), full);
  EXPECT_EQ(fed.host(1).machine().EffectiveCapacity(), full);

  fed.Run(Ms(1500));  // Inside the outage window.
  EXPECT_EQ(fed.host_state(1), HostState::kDown);
  EXPECT_EQ(fed.host(1).machine().EffectiveCapacity(), Bandwidth());

  fed.Run(Ms(2500));  // Healed.
  EXPECT_EQ(fed.host_state(1), HostState::kHealthy);
  EXPECT_EQ(fed.host(1).machine().EffectiveCapacity(), full);

  fed.Run(Ms(3500));  // Inside the degrade window: every core at 0.5.
  EXPECT_EQ(fed.host_state(0), HostState::kDegraded);
  EXPECT_EQ(fed.host(0).machine().EffectiveCapacity(), Bandwidth::FromDouble(1.0));

  fed.Run(Ms(4500));  // Degrade healed.
  EXPECT_EQ(fed.host_state(0), HostState::kHealthy);
  EXPECT_EQ(fed.host(0).machine().EffectiveCapacity(), full);

  fed.Run(Sec(6));  // Crash is permanent.
  EXPECT_EQ(fed.host_state(1), HostState::kCrashed);
  EXPECT_EQ(fed.host(1).machine().EffectiveCapacity(), Bandwidth());

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.host_crashes, 1u);
  EXPECT_EQ(rc.host_outages, 1u);
  EXPECT_EQ(rc.host_degrades, 1u);
  EXPECT_EQ(rc.host_heals, 2u);
  // No fault tolerance: nobody evacuated anything.
  EXPECT_EQ(rc.evacuations, 0u);
  EXPECT_EQ(rc.migration_attempts, 0u);
}

TEST(FederationTest, CrashEvacuatesAndRePlacesOnSurvivor) {
  FederationConfig config = TwoHosts(/*pcpus=*/4, /*ft=*/true);
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  Federation fed(config, tmpl);

  std::vector<std::pair<std::string, int>> launches;  // (name@generation, host)
  fed.SetLauncher([&](Experiment&, GuestOs*, const ClusterVmSpec& spec, int host,
                      int generation) {
    launches.emplace_back(spec.name + "@" + std::to_string(generation), host);
  });
  std::vector<std::pair<std::string, int>> teardowns;
  fed.SetTeardown([&](const ClusterVmSpec& spec, int host) {
    teardowns.emplace_back(spec.name, host);
  });

  ASSERT_EQ(fed.AdmitVm(Spec("a", 2.0)), std::optional<int>(0));
  ASSERT_EQ(fed.AdmitVm(Spec("b", 1.0)), std::optional<int>(0));  // First-fit.
  EXPECT_EQ(fed.vm_status("a").host, 0);

  fed.Run(Sec(2));  // Crash + ~8 ms restore both well past.

  for (const char* name : {"a", "b"}) {
    Federation::VmStatus st = fed.vm_status(name);
    EXPECT_EQ(st.host, 1) << name;
    EXPECT_EQ(st.generation, 1) << name;
    EXPECT_FALSE(st.pending) << name;
    EXPECT_FALSE(st.lost) << name;
    EXPECT_FALSE(st.degraded) << name;
  }
  EXPECT_EQ(fed.placer().HostLoad(1), Bandwidth::FromDouble(3.0));

  // Launcher ran at admission (generation 0, host 0) and again per landing
  // (generation 1, host 1); teardown saw each VM on its failed host.
  ASSERT_EQ(launches.size(), 4u);
  EXPECT_EQ(launches[0], (std::pair<std::string, int>{"a@0", 0}));
  EXPECT_EQ(launches[1], (std::pair<std::string, int>{"b@0", 0}));
  EXPECT_EQ(launches[2], (std::pair<std::string, int>{"a@1", 1}));
  EXPECT_EQ(launches[3], (std::pair<std::string, int>{"b@1", 1}));
  ASSERT_EQ(teardowns.size(), 2u);
  EXPECT_EQ(teardowns[0], (std::pair<std::string, int>{"a", 0}));
  EXPECT_EQ(teardowns[1], (std::pair<std::string, int>{"b", 0}));

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.evacuations, 2u);
  EXPECT_EQ(rc.migration_successes, 2u);
  EXPECT_EQ(rc.evacuations_unresolved, 0u);
  // Each cold restore is charged at least the model's full copy time.
  EXPECT_GE(static_cast<TimeNs>(rc.vm_unavailable_ns), 2 * TinyImage().Predict().total_time);
}

TEST(FederationTest, EvacueeRetriesWithBackoffUntilRoomReturns) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/true);
  config.fault_tolerance.migration_deadline = kTimeNever;  // Never degrade.
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/0, Sec(1), Sec(2)});
  Federation fed(config, tmpl);

  ASSERT_EQ(fed.AdmitVm(Spec("a", 1.5)), std::optional<int>(0));
  ASSERT_EQ(fed.AdmitVm(Spec("b", 1.5)), std::optional<int>(1));
  fed.Run(Ms(1500));
  // Mid-outage: host 1 has no room for 1.5 on top of b, so `a` is dark and
  // hunting, burning retries under exponential backoff.
  {
    Federation::VmStatus st = fed.vm_status("a");
    EXPECT_EQ(st.host, -1);
    EXPECT_TRUE(st.pending);
    EXPECT_FALSE(st.lost);
  }
  EXPECT_GT(fed.resilience().migration_retries, 0u);

  fed.Run(Sec(4));  // Outage heals at 2 s; the next attempt lands home.
  Federation::VmStatus st = fed.vm_status("a");
  EXPECT_EQ(st.host, 0);
  EXPECT_EQ(st.generation, 1);
  EXPECT_FALSE(st.pending);
  EXPECT_FALSE(st.degraded);

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.migration_successes, 1u);
  EXPECT_EQ(rc.evacuations_unresolved, 0u);
  // Backoff doubles from 50 ms: attempts at ~1.00/1.05/1.15/1.35/1.75/2.55 s,
  // so the hunt takes several retries but far fewer than a fixed-interval poll.
  EXPECT_GE(rc.migration_retries, 4u);
  EXPECT_LE(rc.migration_retries, 8u);
  // The VM was dark from the outage until past the heal.
  EXPECT_GE(static_cast<TimeNs>(rc.vm_unavailable_ns), Sec(1));
}

TEST(FederationTest, ExhaustedAttemptBudgetMarksEvacuationUnresolved) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/true);
  config.fault_tolerance.max_attempts = 3;
  config.fault_tolerance.migration_deadline = kTimeNever;
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  Federation fed(config, tmpl);

  ASSERT_EQ(fed.AdmitVm(Spec("a", 1.5)), std::optional<int>(0));
  ASSERT_EQ(fed.AdmitVm(Spec("b", 1.5)), std::optional<int>(1));
  fed.Run(Sec(5));  // Host 0 never returns; host 1 never has room.

  Federation::VmStatus st = fed.vm_status("a");
  EXPECT_TRUE(st.lost);
  EXPECT_EQ(st.host, -1);
  EXPECT_FALSE(st.pending);

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.evacuations, 1u);
  EXPECT_EQ(rc.evacuations_unresolved, 1u);
  EXPECT_EQ(rc.migration_attempts, 3u);
  EXPECT_EQ(rc.migration_retries, 2u);  // Attempts 1 and 2 retried; 3 gave up.
  EXPECT_EQ(rc.migration_successes, 0u);
  // The survivor is untouched.
  EXPECT_EQ(fed.vm_status("b").host, 1);
}

TEST(FederationTest, MigrationDeadlineFallsBackToDegradedFit) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/true);
  config.fault_tolerance.migration_deadline = Ms(200);
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  Federation fed(config, tmpl);

  // Elastic incumbent on host 1: full 1.5, compressible to 0.5. The evacuee
  // (inelastic 1.5) can never full-fit next to it, but fits against the
  // compressed floors: 0.5 + 1.5 = 2.0 <= capacity.
  ASSERT_EQ(fed.AdmitVm(Spec("a", 1.5)), std::optional<int>(0));
  ASSERT_EQ(fed.AdmitVm(Spec("b", 1.5, /*min_bw=*/0.5)), std::optional<int>(1));
  fed.Run(Sec(2));

  Federation::VmStatus st = fed.vm_status("a");
  EXPECT_EQ(st.host, 1);
  EXPECT_TRUE(st.degraded);
  EXPECT_FALSE(st.pending);
  EXPECT_FALSE(st.lost);

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.degraded_placements, 1u);
  EXPECT_EQ(rc.migration_successes, 1u);
  EXPECT_GT(rc.migration_retries, 0u);  // Full fit was tried first.
  EXPECT_EQ(rc.evacuations_unresolved, 0u);
  // Dark for at least the deadline before the federation settled for less.
  EXPECT_GE(static_cast<TimeNs>(rc.vm_unavailable_ns), Ms(200));
}

TEST(FederationTest, InFlightCopyAbortsWhenTargetFails) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/true);
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/1, Ms(1500), Sec(3)});
  Federation fed(config, tmpl);

  // A 2 GB image takes ~1.78 s to copy, so the restore launched at the 1 s
  // crash is still in flight when host 1 goes dark at 1.5 s.
  ClusterVmSpec slow = Spec("a", 1.5);
  slow.migration.memory_gb = 2.0;
  ASSERT_EQ(fed.AdmitVm(slow), std::optional<int>(0));

  fed.Run(Sec(2));  // Past the abort, before the heal.
  EXPECT_EQ(fed.resilience().migration_aborts, 1u);
  EXPECT_TRUE(fed.vm_status("a").pending);

  fed.Run(Sec(6));  // Host 1 heals at 3 s; the restarted copy lands.
  Federation::VmStatus st = fed.vm_status("a");
  EXPECT_EQ(st.host, 1);
  EXPECT_EQ(st.generation, 1);
  EXPECT_FALSE(st.pending);

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.migration_aborts, 1u);
  EXPECT_EQ(rc.migration_successes, 1u);
  EXPECT_EQ(rc.evacuations, 1u);
  // The blackout spans crash -> abort -> backoff -> heal -> full re-copy.
  EXPECT_GE(static_cast<TimeNs>(rc.vm_unavailable_ns), Sec(3));
}

TEST(FederationTest, FrozenBaselineTakesTheFaultWithoutResponding) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/false);
  ExperimentConfig tmpl;
  tmpl.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  Federation fed(config, tmpl);

  ASSERT_EQ(fed.AdmitVm(Spec("a", 1.5)), std::optional<int>(0));
  fed.Run(Sec(2));

  // The machine took the crash but nobody moved the VM: it is still booked
  // on the dead host, not pending, not lost — just gone dark with its host.
  EXPECT_EQ(fed.host_state(0), HostState::kCrashed);
  Federation::VmStatus st = fed.vm_status("a");
  EXPECT_EQ(st.host, 0);
  EXPECT_FALSE(st.pending);
  EXPECT_EQ(fed.placer().HostLoad(0), Bandwidth::FromDouble(1.5));

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.host_crashes, 1u);
  EXPECT_EQ(rc.evacuations, 0u);
  EXPECT_EQ(rc.migration_attempts, 0u);
}

TEST(FederationTest, AdmissionRejectsWhatTheClusterCannotHold) {
  FederationConfig config = TwoHosts(/*pcpus=*/2, /*ft=*/true);
  Federation fed(config, ExperimentConfig{});

  ASSERT_TRUE(fed.AdmitVm(Spec("a", 1.5)).has_value());
  ASSERT_TRUE(fed.AdmitVm(Spec("b", 1.5)).has_value());
  // 1.0 fits neither host directly nor via rebalance (aggregate full).
  EXPECT_FALSE(fed.AdmitVm(Spec("c", 1.0)).has_value());

  ResilienceCounters rc = fed.resilience();
  EXPECT_EQ(rc.cluster_vms_admitted, 2u);
  EXPECT_EQ(rc.cluster_vms_rejected, 1u);
}

TEST(FederationDeathTest, RejectsDuplicateVmNamesAndBadPlans) {
  FederationConfig config = TwoHosts(/*pcpus=*/4, /*ft=*/true);
  Federation fed(config, ExperimentConfig{});
  ASSERT_TRUE(fed.AdmitVm(Spec("a", 1.0)).has_value());
  EXPECT_DEATH(fed.AdmitVm(Spec("a", 1.0)), "duplicate federation VM name");
  EXPECT_DEATH(fed.vm_status("never-admitted"), "knows no VM named");

  // Host faults are validated against the cluster size at construction.
  ExperimentConfig bad;
  bad.faults.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/7, Sec(1)});
  EXPECT_DEATH(Federation(config, bad), "host id out of range");
}

TEST(FederationTest, HostFaultPlanValidation) {
  FaultPlan plan;
  plan.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/1, Sec(1), Sec(2)});
  EXPECT_EQ(plan.Validate(/*num_pcpus=*/4, /*num_vms=*/-1, /*num_hosts=*/2), "");
  // Host id bounds are only enforced when a cluster size is known.
  EXPECT_EQ(plan.Validate(4, -1, -1), "");
  EXPECT_NE(plan.Validate(4, -1, 1), "");

  FaultPlan empty_window;
  empty_window.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/0, Sec(2), Sec(2)});
  EXPECT_NE(empty_window.Validate(4, -1, 2), "");

  FaultPlan bad_factor;
  bad_factor.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kDegrade, /*host=*/0, Sec(1), Sec(2), 0.0});
  EXPECT_NE(bad_factor.Validate(4, -1, 2), "");

  // Nothing may follow a crash on the same host: a crash lasts forever.
  FaultPlan after_crash;
  after_crash.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
  after_crash.host_faults.push_back(
      {FaultPlan::HostFault::Kind::kOutage, /*host=*/0, Sec(2), Sec(3)});
  EXPECT_NE(after_crash.Validate(4, -1, 2), "");
  // The same window on another host is fine.
  after_crash.host_faults.back().host = 1;
  EXPECT_EQ(after_crash.Validate(4, -1, 2), "");
}

// Same seed + same plan => byte-identical report, with real workloads
// running on every host through a crash and an outage. This is the property
// the bench soak mode asserts at scale.
TEST(FederationTest, SameSeedAndPlanGiveByteIdenticalReports) {
  auto run_once = [] {
    FederationConfig config;
    config.num_hosts = 3;
    config.pcpus_per_host = 2;
    config.fault_tolerance.enabled = true;
    ExperimentConfig tmpl;
    tmpl.seed = 1234;
    tmpl.faults.host_faults.push_back(
        {FaultPlan::HostFault::Kind::kCrash, /*host=*/0, Sec(1)});
    tmpl.faults.host_faults.push_back(
        {FaultPlan::HostFault::Kind::kOutage, /*host=*/2, Ms(1500), Ms(2500)});
    Federation fed(config, tmpl);

    std::vector<std::unique_ptr<PeriodicRta>> rtas;
    fed.SetLauncher([&](Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec,
                        int /*host*/, int generation) {
      RtaParams params;
      params.slice = Ms(2);
      params.period = Ms(10);
      auto rta = std::make_unique<PeriodicRta>(
          guest, spec.name + ".g" + std::to_string(generation), params);
      rta->Start(exp.sim().Now(), Sec(3));
      rtas.push_back(std::move(rta));
    });
    for (const char* name : {"a", "b", "c"}) {
      ClusterVmSpec spec = Spec(name, 0.8);
      if (!fed.AdmitVm(spec).has_value()) {
        ADD_FAILURE() << "admission rejected " << name;
      }
    }
    fed.Run(Sec(3));

    std::ostringstream out;
    fed.PrintReport(out, "determinism");
    return out.str();
  };

  std::string first = run_once();
  std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace rtvirt
