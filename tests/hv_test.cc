// Hypervisor machine-model tests with a minimal FIFO scheduler and client,
// exercising dispatch, wake/block, overhead charging and migration counting
// in isolation from the guest OS model.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/hv/machine.h"

namespace rtvirt {
namespace {

// Round-robin over runnable VCPUs with a fixed quantum.
class FifoScheduler : public HostScheduler {
 public:
  explicit FifoScheduler(TimeNs quantum) : quantum_(quantum) {}

  std::string_view name() const override { return "fifo-test"; }
  void VcpuInserted(Vcpu* v) override { vcpus_.push_back(v); }
  void VcpuWake(Vcpu* v) override {
    (void)v;
    for (int i = 0; i < machine_->num_pcpus(); ++i) {
      if (machine_->pcpu(i)->idle()) {
        machine_->pcpu(i)->RequestReschedule();
        return;
      }
    }
  }
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    TimeNs now = machine_->sim()->Now();
    size_t n = vcpus_.size();
    for (size_t i = 0; i < n; ++i) {
      Vcpu* v = vcpus_[(cursor_ + i) % n];
      bool continuing = v->running() && v->pcpu() == pcpu;
      if (v->runnable() || continuing) {
        cursor_ = (cursor_ + i + 1) % n;
        return {v, now + quantum_};
      }
    }
    return {nullptr, kTimeNever};
  }
  void AccountRun(Vcpu* v, TimeNs ran) override {
    (void)v;
    accounted_ += ran;
  }
  TimeNs ScheduleCost(const Pcpu*) const override { return sched_cost_; }

  TimeNs accounted() const { return accounted_; }
  void set_sched_cost(TimeNs c) { sched_cost_ = c; }

 private:
  TimeNs quantum_;
  std::vector<Vcpu*> vcpus_;
  size_t cursor_ = 0;
  TimeNs accounted_ = 0;
  TimeNs sched_cost_ = 0;
};

// Client that runs forever once woken and records grant/revoke events.
class HogClient : public VcpuClient {
 public:
  void OnVcpuGranted(Vcpu*) override { ++grants_; }
  void OnVcpuRevoked(Vcpu*) override { ++revokes_; }
  int grants() const { return grants_; }
  int revokes() const { return revokes_; }

 private:
  int grants_ = 0;
  int revokes_ = 0;
};

// Blocks its VCPU from inside the next revoke once armed, as a guest does
// whose last job completes exactly at the revocation.
class BlockOnRevokeClient : public HogClient {
 public:
  void OnVcpuRevoked(Vcpu* v) override {
    HogClient::OnVcpuRevoked(v);
    if (block_next) {
      block_next = false;
      v->Block();
    }
  }
  bool block_next = false;
};

MachineConfig ZeroCostConfig(int pcpus) {
  MachineConfig cfg;
  cfg.num_pcpus = pcpus;
  cfg.context_switch_cost = 0;
  cfg.migration_cost = 0;
  cfg.hypercall_cost = 0;
  return cfg;
}

struct Rig {
  explicit Rig(int pcpus, int vcpus, TimeNs quantum = Ms(1),
               MachineConfig cfg_in = MachineConfig{}) {
    cfg_in.num_pcpus = pcpus;
    machine = std::make_unique<Machine>(&sim, cfg_in);
    auto sched_owned = std::make_unique<FifoScheduler>(quantum);
    sched = sched_owned.get();
    machine->SetScheduler(std::move(sched_owned));
    vm = machine->AddVm("vm");
    clients.resize(vcpus);
    for (int i = 0; i < vcpus; ++i) {
      Vcpu* v = vm->AddVcpu();
      v->set_client(&clients[i]);
    }
    machine->Start();
  }

  Simulator sim;
  std::unique_ptr<Machine> machine;
  FifoScheduler* sched = nullptr;
  Vm* vm = nullptr;
  std::vector<HogClient> clients;
};

TEST(Machine, IdleUntilWake) {
  Rig rig(1, 1, Ms(1), ZeroCostConfig(1));
  rig.sim.RunUntil(Ms(5));
  EXPECT_EQ(rig.clients[0].grants(), 0);
  EXPECT_TRUE(rig.machine->pcpu(0)->idle());

  rig.vm->vcpu(0)->Wake();
  rig.sim.RunUntil(Ms(6));
  EXPECT_EQ(rig.clients[0].grants(), 1);
  EXPECT_EQ(rig.machine->pcpu(0)->current(), rig.vm->vcpu(0));
}

TEST(Machine, RuntimeAccountedWhileRunning) {
  Rig rig(1, 1, Ms(1), ZeroCostConfig(1));
  rig.vm->vcpu(0)->Wake();
  rig.sim.RunUntil(Ms(10));
  // Runs continuously once woken (single runnable vcpu).
  EXPECT_NEAR(static_cast<double>(rig.vm->vcpu(0)->total_runtime()),
              static_cast<double>(Ms(10)), static_cast<double>(Us(1)));
  EXPECT_EQ(rig.sched->accounted(), rig.vm->vcpu(0)->total_runtime());
}

TEST(Machine, BlockStopsExecutionAndRevokes) {
  Rig rig(1, 1, Ms(1), ZeroCostConfig(1));
  rig.vm->vcpu(0)->Wake();
  rig.sim.At(Ms(3), [&] { rig.vm->vcpu(0)->Block(); });
  rig.sim.RunUntil(Ms(10));
  EXPECT_EQ(rig.clients[0].revokes(), rig.clients[0].grants());
  EXPECT_EQ(rig.vm->vcpu(0)->total_runtime(), Ms(3));
  EXPECT_TRUE(rig.machine->pcpu(0)->idle());
  EXPECT_TRUE(rig.vm->vcpu(0)->blocked());
}

TEST(Machine, TwoVcpusShareOnePcpuRoundRobin) {
  Rig rig(1, 2, Ms(1), ZeroCostConfig(1));
  rig.vm->vcpu(0)->Wake();
  rig.vm->vcpu(1)->Wake();
  rig.sim.RunUntil(Ms(10));
  EXPECT_NEAR(static_cast<double>(rig.vm->vcpu(0)->total_runtime()),
              static_cast<double>(Ms(5)), static_cast<double>(Ms(1)));
  EXPECT_NEAR(static_cast<double>(rig.vm->vcpu(1)->total_runtime()),
              static_cast<double>(Ms(5)), static_cast<double>(Ms(1)));
}

TEST(Machine, ContextSwitchCostsDelayExecution) {
  MachineConfig cfg;
  cfg.context_switch_cost = Us(10);
  cfg.migration_cost = 0;
  Rig rig(1, 2, Ms(1), cfg);
  rig.vm->vcpu(0)->Wake();
  rig.vm->vcpu(1)->Wake();
  rig.sim.RunUntil(Ms(10));
  const OverheadStats& oh = rig.machine->overhead();
  EXPECT_GT(oh.context_switches, 5u);
  EXPECT_EQ(oh.context_switch_time, oh.context_switches * Us(10));
  // Useful runtime + overhead =~ wall time.
  TimeNs useful = rig.vm->vcpu(0)->total_runtime() + rig.vm->vcpu(1)->total_runtime();
  EXPECT_NEAR(static_cast<double>(useful + oh.TotalTime()), static_cast<double>(Ms(10)),
              static_cast<double>(Us(20)));
}

TEST(Machine, MigrationDetectedWhenVcpuMovesPcpu) {
  Rig rig(2, 3, Ms(1), ZeroCostConfig(2));
  for (int i = 0; i < 3; ++i) {
    rig.vm->vcpu(i)->Wake();
  }
  rig.sim.RunUntil(Ms(30));
  uint64_t migrations = 0;
  for (int i = 0; i < 3; ++i) {
    migrations += rig.vm->vcpu(i)->migrations();
  }
  EXPECT_GT(migrations, 0u);
  EXPECT_EQ(rig.machine->overhead().migrations, migrations);
}

TEST(Machine, ScheduleCostCharged) {
  Rig rig(1, 1, Ms(1), ZeroCostConfig(1));
  rig.sched->set_sched_cost(Us(2));
  rig.vm->vcpu(0)->Wake();
  rig.sim.RunUntil(Ms(10));
  const OverheadStats& oh = rig.machine->overhead();
  EXPECT_GT(oh.schedule_calls, 0u);
  EXPECT_EQ(oh.schedule_time, oh.schedule_calls * Us(2));
}

TEST(Machine, InjectOverheadStealsTime) {
  Rig rig(1, 1, Ms(1), ZeroCostConfig(1));
  rig.vm->vcpu(0)->Wake();
  rig.sim.At(Ms(2), [&] { rig.machine->pcpu(0)->InjectOverhead(Us(100)); });
  rig.sim.RunUntil(Ms(10));
  EXPECT_NEAR(static_cast<double>(rig.vm->vcpu(0)->total_runtime()),
              static_cast<double>(Ms(10) - Us(100)), static_cast<double>(Us(1)));
}

TEST(Machine, InjectOverheadReschedulesWhenRevokeBlocks) {
  // a runs with b runnable behind it; the interrupt's revoke makes a's guest
  // block, and the PCPU must pick b instead of idling for the 100 ms quantum.
  Rig rig(1, 2, Ms(100), ZeroCostConfig(1));
  BlockOnRevokeClient blocker;
  Vcpu* a = rig.vm->vcpu(0);
  Vcpu* b = rig.vm->vcpu(1);
  a->set_client(&blocker);
  a->Wake();
  b->Wake();
  rig.sim.At(Us(20), [&] {
    ASSERT_EQ(rig.machine->pcpu(0)->current(), a);
    blocker.block_next = true;
    rig.machine->pcpu(0)->InjectOverhead(Us(5));
  });
  rig.sim.RunUntil(Ms(10));
  EXPECT_TRUE(a->blocked());
  EXPECT_GT(b->total_runtime(), Ms(9));
}

TEST(Machine, OverheadFraction) {
  OverheadStats oh;
  oh.schedule_time = Ms(1);
  oh.context_switch_time = Ms(1);
  EXPECT_DOUBLE_EQ(oh.Fraction(Ms(100), 2), 0.01);
}

// Replays one decision per PickNext and notes the event queue's schedule
// count as each pick starts. A step may tickle its own PCPU from inside the
// decision, as DP-WRAP does when a replan moves work.
class ScriptedScheduler : public HostScheduler {
 public:
  struct Step {
    Vcpu* next;
    TimeNs run_until;
    bool tickle = false;
  };

  std::string_view name() const override { return "scripted-test"; }
  void VcpuInserted(Vcpu*) override {}
  void VcpuWake(Vcpu*) override {}
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    schedules_at_pick.push_back(machine_->sim()->queue_stats().schedules);
    if (picks_ == script.size()) {
      return {nullptr, kTimeNever};
    }
    const Step& step = script[picks_++];
    if (step.tickle) {
      pcpu->RequestReschedule();
    }
    return {step.next, step.run_until};
  }

  std::vector<Step> script;
  std::vector<uint64_t> schedules_at_pick;

 private:
  size_t picks_ = 0;
};

// Notes when its VCPU is revoked.
class RevokeClockClient : public HogClient {
 public:
  explicit RevokeClockClient(const Simulator* sim) : sim_(sim) {}
  void OnVcpuRevoked(Vcpu* v) override {
    HogClient::OnVcpuRevoked(v);
    revoked_at.push_back(sim_->Now());
  }
  std::vector<TimeNs> revoked_at;

 private:
  const Simulator* sim_;
};

// One PCPU under a ScriptedScheduler, with one woken VCPU.
struct ScriptedRig {
  ScriptedRig() : machine(&sim, ZeroCostConfig(1)), client(&sim) {
    auto owned = std::make_unique<ScriptedScheduler>();
    sched = owned.get();
    machine.SetScheduler(std::move(owned));
    vcpu = machine.AddVm("vm")->AddVcpu();
    vcpu->set_client(&client);
    vcpu->Wake();
  }

  Simulator sim;
  Machine machine;
  ScriptedScheduler* sched = nullptr;
  Vcpu* vcpu = nullptr;
  RevokeClockClient client;
};

// A dispatch made while a reschedule is queued at the same instant arms no
// slice-end timer: that reschedule fires first and re-decides. Here it lets
// the VCPU continue to the same horizon, and the VCPU is revoked exactly
// there.
TEST(Machine, DispatchUnderQueuedRescheduleArmsNoSliceEnd) {
  ScriptedRig rig;
  rig.sched->script = {{rig.vcpu, Ms(1), /*tickle=*/true}, {rig.vcpu, Ms(1)}};
  rig.machine.Start();
  rig.sim.RunUntil(Ms(2));
  ASSERT_EQ(rig.sched->schedules_at_pick.size(), 3u);
  // Between the two picks at t=0: the tickle's reschedule and the grant.
  EXPECT_EQ(rig.sched->schedules_at_pick[1] - rig.sched->schedules_at_pick[0], 2u);
  EXPECT_EQ(rig.client.grants(), 1);
  EXPECT_EQ(rig.client.revoked_at, std::vector<TimeNs>{Ms(1)});
  EXPECT_EQ(rig.vcpu->total_runtime(), Ms(1));
}

// The same VCPU continues to the same horizon after another event was
// scheduled at that instant: the re-armed slice end sorts behind it, exactly
// as a cancelled and freshly scheduled one would, so that event still sees
// the VCPU running.
TEST(Machine, SliceEndRearmedToSameHorizonFiresAfterEventsScheduledSince) {
  ScriptedRig rig;
  rig.sched->script = {{rig.vcpu, Ms(1)}, {rig.vcpu, Ms(1)}};
  Pcpu* pcpu = rig.machine.pcpu(0);
  Vcpu* running_at_horizon = nullptr;
  rig.sim.At(Us(500), [&] {
    rig.sim.At(Ms(1), [&] { running_at_horizon = pcpu->current(); });
    pcpu->RequestReschedule();
  });
  rig.machine.Start();
  rig.sim.RunUntil(Ms(2));
  ASSERT_EQ(rig.sched->schedules_at_pick.size(), 3u);
  EXPECT_EQ(running_at_horizon, rig.vcpu);
  EXPECT_EQ(rig.client.revoked_at, std::vector<TimeNs>{Ms(1)});
}

TEST(Machine, HotplugVcpuMidRun) {
  Rig rig(2, 1, Ms(1), ZeroCostConfig(2));
  rig.vm->vcpu(0)->Wake();
  HogClient extra;
  rig.sim.At(Ms(5), [&] {
    Vcpu* v = rig.vm->AddVcpu();
    v->set_client(&extra);
    v->Wake();
  });
  rig.sim.RunUntil(Ms(10));
  ASSERT_EQ(rig.vm->num_vcpus(), 2);
  EXPECT_NEAR(static_cast<double>(rig.vm->vcpu(1)->total_runtime()),
              static_cast<double>(Ms(5)), static_cast<double>(Ms(1)));
}

}  // namespace
}  // namespace rtvirt
