// Workload generators: periodic (rt-app), sporadic (TCP-triggered),
// memcached/Mutilate, VLC profiles, and the dynamic churn driver.

#include <gtest/gtest.h>

#include <memory>

#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/churn.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"
#include "src/workloads/sporadic.h"
#include "src/workloads/vlc.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig RtvirtConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  return cfg;
}

TEST(PeriodicWorkload, ReleasesOneJobPerPeriod) {
  Experiment exp(RtvirtConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1);
  DeadlineMonitor mon;
  PeriodicRta rta(g, "rta", RtaParams{Ms(2), Ms(10), false});
  rta.task()->set_observer(&mon);
  rta.Start(0, Ms(100));
  exp.Run(Ms(150));
  EXPECT_EQ(mon.total_completed(), 10u);
  EXPECT_EQ(mon.total_misses(), 0u);
  EXPECT_FALSE(rta.task()->registered());  // Unregistered at stop.
}

TEST(PeriodicWorkload, DeferredStart) {
  Experiment exp(RtvirtConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1);
  PeriodicRta rta(g, "rta", RtaParams{Ms(2), Ms(10), false});
  rta.Start(Ms(50), Ms(100));
  exp.Run(Ms(10));
  EXPECT_FALSE(rta.task()->registered());
  exp.Run(Ms(60));
  EXPECT_TRUE(rta.task()->registered());
  exp.Run(Ms(150));
  EXPECT_EQ(rta.task()->jobs_completed(), 5u);
}

TEST(SporadicWorkload, SendsRequestedNumberOfRequests) {
  Experiment exp(RtvirtConfig(2));
  GuestOs* g = exp.AddGuest("vm", 1);
  DeadlineMonitor mon;
  SporadicRta rta(g, "sp", RtaParams{Ms(5), Ms(20), true}, exp.rng().Fork(), Ms(10), Ms(50));
  rta.task()->set_observer(&mon);
  rta.Start(0, 20);
  exp.Run(Sec(2));
  EXPECT_EQ(rta.requests_sent(), 20u);
  EXPECT_EQ(mon.total_completed(), 20u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(SporadicWorkload, NetworkDelayIsSmall) {
  Rng rng(7);
  NetworkModel net;
  for (int i = 0; i < 1000; ++i) {
    TimeNs d = net.Sample(rng);
    EXPECT_GE(d, Us(8));
    EXPECT_LE(d, Us(14));
  }
}

TEST(VlcProfiles, MatchTable3) {
  EXPECT_EQ(VlcParams(24).slice, Ms(19));
  EXPECT_EQ(VlcParams(24).period, Ms(41));
  EXPECT_EQ(VlcParams(30).slice, Ms(18));
  EXPECT_EQ(VlcParams(30).period, Ms(33));
  EXPECT_EQ(VlcParams(48).slice, Ms(17));
  EXPECT_EQ(VlcParams(48).period, Ms(20));
  EXPECT_EQ(VlcParams(60).slice, Ms(15));
  EXPECT_EQ(VlcParams(60).period, Ms(16));
  // Bandwidth needs match the paper's Table 3 column within rounding.
  EXPECT_NEAR(VlcParams(24).bandwidth().ToDouble(), 0.463, 0.02);
  EXPECT_NEAR(VlcParams(60).bandwidth().ToDouble(), 0.938, 0.01);
}

TEST(Memcached, ServiceTimesWithinCalibratedRange) {
  Experiment exp(RtvirtConfig(1));
  GuestOs* g = exp.AddGuest("mc", 1);
  DeadlineMonitor mon;
  MemcachedConfig mcfg;
  mcfg.qps = 2000;  // Dense for the test.
  MemcachedServer server(g, "mc", mcfg, exp.rng().Fork());
  server.task()->set_observer(&mon);
  server.Start(0, Sec(1));
  exp.Run(Sec(1) + Ms(10));
  ASSERT_EQ(server.admission_result(), kGuestOk);
  EXPECT_GT(mon.total_completed(), 1500u);
  // On a dedicated CPU latency == service time plus queueing: clustered
  // arrivals at 2000 qps can stack a few ~50 us requests.
  EXPECT_GE(mon.response_times_us().Min(), ToUs(kMemcachedServiceMin));
  EXPECT_LE(mon.response_times_us().Percentile(50), ToUs(kMemcachedServiceMax));
  EXPECT_LE(mon.response_times_us().Max(), ToUs(kMemcachedServiceMax) + 300.0);
}

TEST(Memcached, MeetsSloOnDedicatedCpuUnderRtvirt) {
  Experiment exp(RtvirtConfig(1));
  GuestOs* g = exp.AddGuest("mc", 1);
  DeadlineMonitor mon;
  MemcachedServer server(g, "mc", MemcachedConfig{}, exp.rng().Fork());
  server.task()->set_observer(&mon);
  server.Start(0, Sec(20));
  exp.Run(Sec(20) + Ms(10));
  ASSERT_GT(mon.total_completed(), 1900u);
  EXPECT_LE(mon.response_times_us().Percentile(99.9), 500.0);
}

TEST(Churn, SpawnsAndStopsRtasDynamically) {
  ExperimentConfig cfg = RtvirtConfig(8);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 4);
  DeadlineMonitor mon;
  ChurnConfig ccfg;
  ccfg.experiment_len = Sec(60);
  ccfg.min_episode = Sec(2);
  ccfg.max_episode = Sec(10);
  ccfg.max_gap = Sec(1);
  ChurnDriver churn(g, ccfg, exp.rng().Fork(), &mon);
  churn.Start();
  exp.Run(Sec(61));
  EXPECT_GT(churn.rtas_started(), 10);
  EXPECT_GT(mon.total_completed(), 100u);
  // Plenty of host bandwidth (8 PCPUs for <= 4 concurrent RTAs): no misses.
  EXPECT_EQ(mon.total_misses(), 0u);
  // All episodes ended: every RTA unregistered.
  for (const auto& rta : churn.rtas()) {
    EXPECT_FALSE(rta->task()->registered());
  }
}

TEST(Churn, RejectedEpisodesReleaseNoBandwidth) {
  // 3 VCPU slots demanding Table 3 streaming profiles (0.44-0.94 CPU each)
  // against a single PCPU: host admission must reject a good share of the
  // episodes, and rejected episodes must not leak reserved bandwidth.
  ExperimentConfig cfg = RtvirtConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 3);
  DeadlineMonitor mon;
  ChurnConfig ccfg;
  ccfg.experiment_len = Sec(60);
  ccfg.min_episode = Sec(2);
  ccfg.max_episode = Sec(6);
  ccfg.max_gap = Sec(1);
  ccfg.idle_prob = 0.0;  // Every episode is a real streaming profile.
  ChurnDriver churn(g, ccfg, exp.rng().Fork(), &mon);
  churn.Start();
  // Mid-run invariant: admission control never over-commits the host.
  exp.sim().At(Sec(30), [&exp] {
    EXPECT_LE(exp.dpwrap()->total_reserved(), Bandwidth::Cpus(1));
  });
  exp.Run(Sec(70));

  EXPECT_GT(churn.rtas_started(), 0);
  EXPECT_GT(churn.rtas_rejected(), 0);
  for (const auto& rta : churn.rtas()) {
    EXPECT_FALSE(rta->task()->registered());
  }
  // Every admitted episode ended and released its reservation; rejected ones
  // never held one. Any residue here is a leak on the rejection path.
  EXPECT_EQ(exp.dpwrap()->total_reserved(), Bandwidth::Zero());
}

// The tier knobs (fixed profile, criticality, elastic minimum, staggered
// start, admission retry) propagate from ChurnConfig to every spawned RTA.
TEST(ChurnWorkload, TierKnobsPropagateToRtas) {
  Experiment exp(RtvirtConfig(2));
  GuestOs* g = exp.AddGuest("vm", 2);
  ChurnConfig ccfg;
  ccfg.experiment_len = Sec(2);
  ccfg.min_episode = Sec(5);  // One episode per slot, capped at the window.
  ccfg.max_episode = Sec(5);
  ccfg.max_gap = Ms(100);
  ccfg.idle_prob = 0.0;
  ccfg.start_at = Ms(200);
  ccfg.criticality = Criticality::kHigh;
  ccfg.elastic_min_fraction = 0.5;
  ccfg.profile = RtaParams{Ms(2), Ms(10)};
  ccfg.admission_retry = Ms(50);
  ChurnDriver churn(g, ccfg, exp.rng().Fork(), nullptr);
  churn.Start();
  exp.sim().At(Ms(150), [&churn] {
    // Staggering is offset by start_at: nothing registers before it.
    EXPECT_EQ(churn.rtas_started(), 0);
  });
  exp.Run(Sec(2) + Ms(100));
  ASSERT_GT(churn.rtas_started(), 0);
  for (const auto& rta : churn.rtas()) {
    EXPECT_EQ(rta->params().slice, Ms(2));
    EXPECT_EQ(rta->params().period, Ms(10));
    EXPECT_EQ(rta->params().criticality, Criticality::kHigh);
    EXPECT_EQ(rta->params().min_slice, Ms(1));
    EXPECT_GE(rta->admission_attempts(), 1);
  }
}

}  // namespace
}  // namespace rtvirt
