// End-to-end integration tests: full stacks (guest pEDF + host scheduler +
// cross-layer channel + workloads) reproducing the paper's headline claims
// in miniature; the benches regenerate the full tables and figures.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/analysis/carts.h"
#include "src/metrics/deadline_monitor.h"
#include "src/rtvirt/guest_channel.h"
#include "src/runner/experiment.h"
#include "src/workloads/groups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"
#include "src/workloads/sporadic.h"

namespace rtvirt {
namespace {

ExperimentConfig RealisticConfig(Framework fw, int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = fw;
  cfg.machine.num_pcpus = pcpus;
  return cfg;  // Default (calibrated, non-zero) cost model.
}

// Table 1 groups under RTVirt with realistic overheads: every deadline met,
// using little more bandwidth than the RTAs request (Figure 3's claim).
class Table1RtvirtTest : public ::testing::TestWithParam<int> {};

TEST_P(Table1RtvirtTest, GroupMeetsAllDeadlines) {
  const RtaGroup& group = kTable1Groups[GetParam()];
  Experiment exp(RealisticConfig(Framework::kRtvirt, 15));
  DeadlineMonitor mon;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  std::vector<std::unique_ptr<GuestOs>>* guests;  // Owned by exp.
  (void)guests;
  for (size_t i = 0; i < group.rtas.size(); ++i) {
    GuestOs* g = exp.AddGuest(std::string(group.name) + ".vm" + std::to_string(i), 1);
    auto rta = std::make_unique<PeriodicRta>(g, "rta" + std::to_string(i), group.rtas[i]);
    rta->task()->set_observer(&mon);
    rta->Start(0, Sec(10));
    rtas.push_back(std::move(rta));
  }
  // Sample the reservations mid-run (the RTAs unregister at the end).
  exp.Run(Sec(5));
  Bandwidth requested;
  for (const RtaParams& p : group.rtas) {
    requested += p.bandwidth();
  }
  Bandwidth reserved = exp.dpwrap()->total_reserved();
  EXPECT_GE(reserved, requested);
  EXPECT_LT((reserved - requested).ToDouble(), 0.12);  // 500us slack per VCPU.

  exp.Run(Sec(10) + Ms(200));
  for (const auto& rta : rtas) {
    EXPECT_EQ(rta->admission_result(), kGuestOk);
  }
  EXPECT_GT(mon.total_completed(), 500u);
  EXPECT_EQ(mon.total_misses(), 0u) << group.name;
}

INSTANTIATE_TEST_SUITE_P(AllGroups, Table1RtvirtTest, ::testing::Range(0, 6));

// The same groups under RT-Xen with CARTS interfaces: no misses either, but
// at visibly larger allocated bandwidth.
TEST(Table1RtXen, NhDecGroupSchedulesWithCartsInterfaces) {
  const RtaGroup& group = kTable1Groups[4];  // NH-Dec: the paper's Table 2.
  Experiment exp(RealisticConfig(Framework::kRtXen, 15));
  DeadlineMonitor mon;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  Bandwidth allocated;
  for (size_t i = 0; i < group.rtas.size(); ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    std::vector<RtaParams> taskset{group.rtas[i]};
    auto iface = MinimalInterface(taskset, CartsOptions{Ms(1), 0, 0});
    ASSERT_TRUE(iface.has_value());
    exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{iface->budget, iface->period});
    g->SetVcpuCapacity(0, iface->bandwidth());
    allocated += iface->bandwidth();
    auto rta = std::make_unique<PeriodicRta>(g, "rta" + std::to_string(i), group.rtas[i]);
    rta->task()->set_observer(&mon);
    rta->Start(0, Sec(10));
    rtas.push_back(std::move(rta));
  }
  exp.Run(Sec(10) + Ms(200));
  EXPECT_EQ(mon.total_misses(), 0u);
  // Table 2: RT-Xen allocates ~2.33 CPUs for RTAs requiring ~2.02.
  EXPECT_NEAR(allocated.ToDouble(), 2.33, 0.02);
}

// Figure 1: two-level EDF *without* cross-layer awareness misses deadlines
// even though the VMs receive their full bandwidth.
// The motivational example is idealized (no overheads): the VM parameters
// use exactly 100% of the CPU, so any cost model would perturb it.
ExperimentConfig Fig1Config(Framework fw) {
  ExperimentConfig cfg;
  cfg.framework = fw;
  cfg.machine.num_pcpus = 1;
  cfg.machine.context_switch_cost = 0;
  cfg.machine.migration_cost = 0;
  cfg.machine.hypercall_cost = 0;
  cfg.server_edf.pick_cost = 0;
  cfg.dpwrap.pick_cost = 0;
  cfg.dpwrap.replan_cost_base = 0;
  cfg.dpwrap.replan_cost_per_log = 0;
  cfg.channel.budget_slack = 0;
  return cfg;
}

TEST(Fig1Motivation, VanillaTwoLevelEdfMissesDeadlines) {
  Experiment exp(Fig1Config(Framework::kVanillaEdf));
  // VM1 (5,15) hosting RTA1 (1,15) + RTA2 (4,15); VM2 (5,10); VM3 (5,30).
  GuestOs* vm1 = exp.AddGuest("vm1", 1);
  GuestOs* vm2 = exp.AddGuest("vm2", 1);
  GuestOs* vm3 = exp.AddGuest("vm3", 1);
  exp.SetVcpuServer(vm1->vm()->vcpu(0), ServerParams{Ms(5), Ms(15)});
  exp.SetVcpuServer(vm2->vm()->vcpu(0), ServerParams{Ms(5), Ms(10)});
  exp.SetVcpuServer(vm3->vm()->vcpu(0), ServerParams{Ms(5), Ms(30)});
  // Every VM also hosts background work (BGAs, section 3.1), so each VM
  // consumes its full EDF slice exactly as Figure 1a depicts.
  vm1->CreateBackgroundTask("busy1");
  vm2->CreateBackgroundTask("busy2");
  vm3->CreateBackgroundTask("busy3");
  DeadlineMonitor mon1;
  DeadlineMonitor mon2;
  PeriodicRta rta1(vm1, "rta1", RtaParams{Ms(1), Ms(15), false});
  PeriodicRta rta2(vm1, "rta2", RtaParams{Ms(4), Ms(15), false});
  rta1.task()->set_observer(&mon1);
  rta2.task()->set_observer(&mon2);
  rta1.Start(0, Sec(10));
  // RTA2 arrives right after VM1's slice each period (the paper's pattern).
  rta2.Start(Ms(11), Sec(10));
  exp.Run(Sec(10) + Ms(100));
  EXPECT_EQ(mon1.total_misses(), 0u);
  // RTA2 misses a large share of its deadlines (every other in the paper).
  EXPECT_GT(mon2.TotalMissRatio(), 0.3);
}

// ...and RTVirt schedules the identical scenario without any miss.
TEST(Fig1Motivation, RtvirtSchedulesTheSameScenario) {
  Experiment exp(Fig1Config(Framework::kRtvirt));
  GuestOs* vm1 = exp.AddGuest("vm1", 1);
  GuestOs* vm2 = exp.AddGuest("vm2", 1);
  GuestOs* vm3 = exp.AddGuest("vm3", 1);
  DeadlineMonitor mon;
  PeriodicRta rta1(vm1, "rta1", RtaParams{Ms(1), Ms(15), false});
  PeriodicRta rta2(vm1, "rta2", RtaParams{Ms(4), Ms(15), false});
  PeriodicRta rta3(vm2, "rta3", RtaParams{Ms(5), Ms(10), false});
  PeriodicRta rta4(vm3, "rta4", RtaParams{Ms(5), Ms(30), false});
  for (PeriodicRta* r : {&rta1, &rta2, &rta3, &rta4}) {
    r->task()->set_observer(&mon);
  }
  rta1.Start(0, Sec(10));
  rta2.Start(Ms(11), Sec(10));
  rta3.Start(0, Sec(10));
  rta4.Start(0, Sec(10));
  exp.Run(Sec(10) + Ms(100));
  EXPECT_GT(mon.total_completed(), 1500u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

// Sporadic RTAs (4.2): TCP-triggered jobs, 100 requests each, no misses.
TEST(SporadicGroups, RtvirtMeetsAllSporadicDeadlines) {
  const RtaGroup& group = kTable1Groups[1];  // H-Dec.
  Experiment exp(RealisticConfig(Framework::kRtvirt, 15));
  DeadlineMonitor mon;
  std::vector<std::unique_ptr<SporadicRta>> rtas;
  for (size_t i = 0; i < group.rtas.size(); ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    RtaParams p = group.rtas[i];
    p.sporadic = true;
    auto rta = std::make_unique<SporadicRta>(g, "sp" + std::to_string(i), p,
                                             exp.rng().Fork(), Ms(100), Sec(1));
    rta->task()->set_observer(&mon);
    rta->Start(0, 25);
    rtas.push_back(std::move(rta));
  }
  exp.Run(Sec(30));
  EXPECT_EQ(mon.total_completed(), 100u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

// memcached VM contending with CPU hogs on RTVirt meets its 500us SLO.
TEST(MemcachedContention, RtvirtMeetsSloUnderHogContention) {
  Experiment exp(RealisticConfig(Framework::kRtvirt, 2));
  GuestOs* mc = exp.AddGuest("mc", 1);
  {
    // Microsecond-period reservation: the 500 us slack would exceed the
    // period; use its small-period analogue.
    GuestChannelOptions opts = exp.config().channel;
    opts.budget_slack = Us(6);
    exp.ChannelOf(mc)->set_options(opts);
  }
  for (int i = 0; i < 19; ++i) {
    GuestOs* hog = exp.AddGuest("hog" + std::to_string(i), 1);
    hog->CreateBackgroundTask("bg");
  }
  DeadlineMonitor mon;
  MemcachedServer server(mc, "mc", MemcachedConfig{}, exp.rng().Fork());
  server.task()->set_observer(&mon);
  server.Start(0, Sec(30));
  exp.Run(Sec(1));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  // The reservation must be the paper's ~0.116 CPUs plus the small slack,
  // not a slack-inflated full CPU.
  EXPECT_LT(exp.dpwrap()->total_reserved().ToDouble(), 0.2);
  exp.Run(Sec(30) + Ms(10));
  ASSERT_GT(mon.total_completed(), 2500u);
  EXPECT_LE(mon.response_times_us().Percentile(99.9), 500.0);
  // The hogs still consume the residual bandwidth (work conservation).
  TimeNs hog_time = 0;
  for (int i = 1; i < exp.machine().num_vms(); ++i) {
    hog_time += exp.machine().vm(i)->TotalRuntime();
  }
  EXPECT_GT(hog_time, Sec(30));  // >1 CPU-second per wall-second on 2 PCPUs.
}

}  // namespace
}  // namespace rtvirt
