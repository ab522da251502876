// The benchmark's own tests:
//  * every decorator forwards every hook, arguments and results unchanged;
//  * on every workload the traced run simulates exactly what the untraced
//    run simulates;
//  * at seed 42 and the paper horizons the benchmark's assembly reproduces
//    the numbers bench/fig4_video_streaming and the RTVirt row of
//    bench/fig5b_memcached_periodic print.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/hv/machine.h"
#include "src/metrics/report.h"
#include "src/rtvirt/dpwrap.h"

namespace perfbench {
namespace {

using namespace rtvirt;

class RecordingScheduler : public HostScheduler {
 public:
  explicit RecordingScheduler(std::vector<std::string>* log) : log_(log) {}
  std::string_view name() const override { return "recording"; }
  void Attach(Machine* machine) override {
    HostScheduler::Attach(machine);
    log_->push_back("Attach");
  }
  void VcpuInserted(Vcpu*) override { log_->push_back("VcpuInserted"); }
  void VcpuRemoved(Vcpu*) override { log_->push_back("VcpuRemoved"); }
  void VcpuWake(Vcpu*) override { log_->push_back("VcpuWake"); }
  void VcpuBlock(Vcpu*) override { log_->push_back("VcpuBlock"); }
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    log_->push_back("PickNext" + std::to_string(pcpu->id()));
    return {nullptr, 1234};
  }
  void PcpuCapacityChanged(Pcpu*) override { log_->push_back("PcpuCapacityChanged"); }
  void AccountRun(Vcpu*, TimeNs ran) override {
    log_->push_back("AccountRun" + std::to_string(ran));
  }
  int64_t Hypercall(Vcpu*, const HypercallArgs& args) override {
    log_->push_back("Hypercall" + std::to_string(args.period_a));
    return 77;
  }
  TimeNs ScheduleCost(const Pcpu*) const override {
    log_->push_back("ScheduleCost");
    return 300;
  }
  TimeNs DispatchCost(const Vcpu*) const override {
    log_->push_back("DispatchCost");
    return 400;
  }
  Machine* attached() const { return machine_; }

 private:
  std::vector<std::string>* log_;
};

TEST(Decorators, SchedulerForwardsEveryHook) {
  std::vector<std::string> log;
  SpanRecorder rec;
  auto inner = std::make_unique<RecordingScheduler>(&log);
  RecordingScheduler* raw = inner.get();
  Simulator sim;
  Machine machine(&sim, MachineConfig{});
  machine.SetScheduler(std::make_unique<TracedScheduler>(std::move(inner), &rec));
  HostScheduler* s = machine.scheduler();
  EXPECT_EQ(raw->attached(), &machine);
  Vcpu* v = machine.AddVm("vm")->AddVcpu();
  Pcpu* p = machine.pcpu(3);
  HypercallArgs args;
  args.period_a = 99;
  EXPECT_EQ(s->name(), "recording");
  s->VcpuWake(v);
  s->VcpuBlock(v);
  ScheduleDecision d = s->PickNext(p);
  EXPECT_EQ(d.next, nullptr);
  EXPECT_EQ(d.run_until, 1234);
  s->PcpuCapacityChanged(p);
  s->AccountRun(v, 55);
  EXPECT_EQ(s->Hypercall(v, args), 77);
  EXPECT_EQ(s->ScheduleCost(p), 300);
  EXPECT_EQ(s->DispatchCost(v), 400);
  s->VcpuRemoved(v);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "Attach", "VcpuInserted", "VcpuWake", "VcpuBlock", "PickNext3",
                     "PcpuCapacityChanged", "AccountRun55", "Hypercall99", "ScheduleCost",
                     "DispatchCost", "VcpuRemoved"}));
  for (Span span : {kWake, kBlock, kPick, kAccount, kHypercall}) {
    EXPECT_EQ(rec.stats(span).calls, 1u) << span;
  }
  EXPECT_EQ(rec.pick_idle, 1u);
}

class RecordingPolicy : public CrossLayerPolicy {
 public:
  explicit RecordingPolicy(std::vector<std::string>* log) : log_(log) {}
  int64_t RequestBandwidth(Vcpu*, Bandwidth bw, TimeNs period, int64_t reason) override {
    log_->push_back("Request" + std::to_string(bw.ppb()) + "/" + std::to_string(period) + "/" +
                    std::to_string(reason));
    return kHypercallOk;
  }
  int64_t MoveBandwidth(Vcpu*, Bandwidth to_bw, TimeNs, Vcpu*, Bandwidth from_bw,
                        TimeNs from_period) override {
    log_->push_back("Move" + std::to_string(to_bw.ppb()) + "/" + std::to_string(from_bw.ppb()) +
                    "/" + std::to_string(from_period));
    return kHypercallNoBandwidth;
  }
  void ReleaseBandwidth(Vcpu*, Bandwidth bw, TimeNs, int64_t reason) override {
    log_->push_back("Release" + std::to_string(bw.ppb()) + "/" + std::to_string(reason));
  }
  void PublishNextDeadline(Vcpu*, TimeNs deadline) override {
    log_->push_back("Publish" + std::to_string(deadline));
  }
  void Reset() override { log_->push_back("Reset"); }

 private:
  std::vector<std::string>* log_;
};

TEST(Decorators, ChannelForwardsEveryHook) {
  std::vector<std::string> log;
  SpanRecorder rec;
  TracedChannel c(std::make_unique<RecordingPolicy>(&log), &rec);
  CrossLayerPolicy& p = c;
  EXPECT_EQ(p.RequestBandwidth(nullptr, Bandwidth::FromPpb(10), 20, 2), kHypercallOk);
  EXPECT_EQ(p.MoveBandwidth(nullptr, Bandwidth::FromPpb(1), 2, nullptr, Bandwidth::FromPpb(3), 4),
            kHypercallNoBandwidth);
  p.ReleaseBandwidth(nullptr, Bandwidth::FromPpb(5), 6, 1);
  p.PublishNextDeadline(nullptr, 7);
  p.Reset();
  EXPECT_EQ(log, (std::vector<std::string>{"Request10/20/2", "Move1/3/4", "Release5/1",
                                           "Publish7", "Reset"}));
  for (Span span : {kRequest, kMove, kRelease, kPublish}) {
    EXPECT_EQ(rec.stats(span).calls, 1u) << span;
  }
  EXPECT_EQ(rec.channel_rejects, 1u);
}

class RecordingClient : public VcpuClient {
 public:
  void OnVcpuGranted(Vcpu* v) override { granted = v; }
  void OnVcpuRevoked(Vcpu* v) override { revoked = v; }
  Vcpu* granted = nullptr;
  Vcpu* revoked = nullptr;
};

class RecordingObserver : public JobObserver {
 public:
  void OnJobCompleted(const Task& t, const Job& j, TimeNs completion) override {
    task = &t;
    deadline = j.deadline;
    at = completion;
  }
  const Task* task = nullptr;
  TimeNs deadline = 0;
  TimeNs at = 0;
};

TEST(Decorators, ClientAndObserverForward) {
  SpanRecorder rec;
  Simulator sim;
  Machine machine(&sim, MachineConfig{});
  machine.SetScheduler(std::make_unique<DpWrapScheduler>());
  Vcpu* v = machine.AddVm("vm")->AddVcpu();
  RecordingClient client;
  TracedClient traced_client(&client, &rec);
  traced_client.OnVcpuGranted(v);
  traced_client.OnVcpuRevoked(v);
  EXPECT_EQ(client.granted, v);
  EXPECT_EQ(client.revoked, v);

  RecordingObserver observer;
  TracedObserver traced_observer(&observer, &rec);
  Task task("t", Task::Kind::kRta);
  Job job;
  job.deadline = 11;
  traced_observer.OnJobCompleted(task, job, 12);
  EXPECT_EQ(observer.task, &task);
  EXPECT_EQ(observer.deadline, 11);
  EXPECT_EQ(observer.at, 12);
  EXPECT_EQ(rec.stats(kGrant).calls, 1u);
  EXPECT_EQ(rec.stats(kRevoke).calls, 1u);
  EXPECT_EQ(rec.stats(kObserve).calls, 1u);
}

Outcome Simulate(Workload w, uint64_t seed, TimeNs horizon, SpanRecorder* rec) {
  Instance inst(w, seed, horizon, rec);
  inst.Run();
  return inst.Collect();
}

// The benchmark times its runs in slices; slicing must not change anything.
Outcome SimulateSliced(Workload w, uint64_t seed, TimeNs horizon, TimeNs slice) {
  Instance inst(w, seed, horizon, nullptr);
  for (TimeNs until = slice; until < inst.run_until(); until += slice) {
    inst.RunTo(until);
  }
  inst.Run();
  return inst.Collect();
}

// Tracing and slicing must not change the simulation: every simulated result
// and the event count of the traced and the sliced run equal the plain run's,
// on every workload.
TEST(Transparency, TracedRunSimulatesExactlyTheUntracedRun) {
  for (Workload w : {Workload::kVideoChurn, Workload::kMcVideo, Workload::kVcpuScale,
                     Workload::kAdmissionChurn}) {
    SCOPED_TRACE(WorkloadName(w));
    Outcome plain = Simulate(w, 7, Sec(3), nullptr);
    SpanRecorder rec;
    Outcome traced = Simulate(w, 7, Sec(3), &rec);
    EXPECT_TRUE(traced.SameSimulation(plain));
    EXPECT_EQ(traced.events, plain.events);
    EXPECT_TRUE(SimulateSliced(w, 7, Sec(3), Ms(700)).SameSimulation(plain));
    EXPECT_GT(plain.jobs, 0u);
    // Every boundary was actually on the path.
    for (Span span : {kPick, kWake, kBlock, kAccount, kHypercall, kRequest, kPublish, kGrant,
                      kRevoke, kObserve}) {
      EXPECT_GT(rec.stats(span).calls, 0u) << span;
    }
    EXPECT_EQ(rec.dispatches, plain.overhead.context_switches);
  }
}

// fig4_video_streaming at seed 42 prints: 51 RTAs run (0 rejected), 310529
// jobs, 0 misses, 0 RTAs with misses, 128 hypercalls.
TEST(PaperCrossCheck, VideoChurnReproducesFig4) {
  Outcome o = Simulate(Workload::kVideoChurn, 42, PaperHorizon(Workload::kVideoChurn), nullptr);
  EXPECT_EQ(o.rtas_started, 51u);
  EXPECT_EQ(o.refused, 0u);
  EXPECT_EQ(o.jobs, 310529u);
  EXPECT_EQ(o.misses, 0u);
  EXPECT_EQ(o.rtas_with_misses, 0);
  EXPECT_EQ(o.overhead.hypercalls, 128u);
}

// fig5b_memcached_periodic's RTVirt row at seed 42 prints: mc p99.9 158.4 us,
// video misses 0/77820.
TEST(PaperCrossCheck, McVideoReproducesFig5bRtvirtRow) {
  Outcome o = Simulate(Workload::kMcVideo, 42, PaperHorizon(Workload::kMcVideo), nullptr);
  EXPECT_EQ(TablePrinter::Fmt(o.response_us.Percentile(99.9), 1), "158.4");
  EXPECT_EQ(o.secondary_misses, 0u);
  EXPECT_EQ(o.secondary_jobs, 77820u);
}

}  // namespace
}  // namespace perfbench
