#include "src/baselines/server_edf.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/hv/machine.h"

namespace rtvirt {

ServerEdfScheduler::ServerEdfScheduler(ServerEdfConfig config) : config_(config) {}

void ServerEdfScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  if (config_.quantum > 0) {
    // Quantum-driven: every PCPU re-enters schedule() each quantum.
    quantum_ticks_.resize(machine_->num_pcpus());
    for (int i = 0; i < machine_->num_pcpus(); ++i) {
      quantum_ticks_[i] = machine_->sim()->After(config_.quantum, this, kEvQuantum, i);
    }
  }
}

void ServerEdfScheduler::OnEvent(uint32_t kind, uint64_t payload) {
  if (kind == kEvReplenish) {
    return Replenish(servers_[payload]);
  }
  machine_->pcpu(static_cast<int>(payload))->RequestReschedule();  // kEvQuantum.
  quantum_ticks_[payload] = machine_->sim()->After(config_.quantum, this, kEvQuantum, payload);
}

void ServerEdfScheduler::VcpuInserted(Vcpu* vcpu) {
  RTVIRT_CHECK(vcpu->global_id() == static_cast<int>(servers_.size()),
               "server-gedf: VCPU %s inserted out of global-id order", vcpu->name().c_str());
  servers_.emplace_back().vcpu = vcpu;
}

void ServerEdfScheduler::SetServer(Vcpu* vcpu, ServerParams params) {
  size_t gid = static_cast<size_t>(vcpu->global_id());
  RTVIRT_CHECK(gid < servers_.size() && servers_[gid].vcpu == vcpu,
               "SetServer: VCPU %s is not on this scheduler's machine", vcpu->name().c_str());
  RTVIRT_CHECK(params.budget > 0 && params.period >= params.budget,
               "SetServer: VCPU %s needs 0 < budget <= period", vcpu->name().c_str());
  Server& s = servers_[gid];
  machine_->sim()->Cancel(s.replenish_event);
  s.params = params;
  Replenish(s);
}

void ServerEdfScheduler::Replenish(Server& s) {
  // Settle any in-flight consumption first, so it is charged against the
  // old budget and not silently deducted from the fresh one.
  if (s.vcpu->running()) {
    s.vcpu->pcpu()->SettleAccounting();
  }
  TimeNs now = machine_->sim()->Now();
  // Quantum-driven overruns (negative budget) are repaid here; positive
  // leftovers (deferrable) are preserved but never exceed one budget.
  s.budget = std::min(s.params.budget, s.budget + s.params.budget);
  s.deadline = now + s.params.period;
  s.replenish_event = machine_->sim()->After(s.params.period, this, kEvReplenish,
                                             static_cast<uint64_t>(s.vcpu->global_id()));
  if (s.vcpu->runnable() || s.vcpu->running()) {
    TickleFor(s.vcpu);
  }
}

void ServerEdfScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  Server& s = servers_[vcpu->global_id()];
  if (s.params.budget > 0) {
    // May go negative in quantum-driven mode (enforcement lag); the debt is
    // repaid at replenishment.
    s.budget -= ran;
  }
}

void ServerEdfScheduler::TickleFor(Vcpu* vcpu) {
  // Prefer an idle PCPU, then one running best-effort work, then (for a
  // server) the PCPU running the latest-deadline server — classic gEDF.
  // Idle PCPUs are taken round-robin: simultaneous wakes/replenishments must
  // tickle *distinct* PCPUs or the coalesced reschedule serves only one.
  Pcpu* best_effort_pcpu = nullptr;
  Pcpu* latest_pcpu = nullptr;
  TimeNs latest_deadline = -1;
  int n = machine_->num_pcpus();
  for (int k = 0; k < n; ++k) {
    Pcpu* p = machine_->pcpu((tickle_cursor_ + k) % n);
    Vcpu* cur = p->current();
    if (cur == nullptr) {
      tickle_cursor_ = (p->id() + 1) % n;
      p->RequestReschedule();
      return;
    }
    const Server& running = servers_[cur->global_id()];
    if (running.params.budget == 0) {
      best_effort_pcpu = p;
    } else if (running.deadline > latest_deadline) {
      latest_deadline = running.deadline;
      latest_pcpu = p;
    }
  }
  if (best_effort_pcpu != nullptr) {
    best_effort_pcpu->RequestReschedule();
    return;
  }
  const Server& s = servers_[vcpu->global_id()];
  if (s.params.budget > 0 && latest_pcpu != nullptr && s.deadline < latest_deadline) {
    latest_pcpu->RequestReschedule();
  }
}

void ServerEdfScheduler::VcpuWake(Vcpu* vcpu) {
  const Server& s = servers_[vcpu->global_id()];
  if (s.params.budget == 0 || s.budget > 0) {
    TickleFor(vcpu);
  }
}

Vcpu* ServerEdfScheduler::PickBestEffort(Pcpu* pcpu) {
  // Round-robin over the serverless VCPUs this PCPU may dispatch. Depleted
  // servers wait for replenishment (non-work-conserving).
  Vcpu* v = machine_->FindDispatchable(pcpu, be_cursor_, [this](const Vcpu* c) {
    return servers_[c->global_id()].params.budget == 0;
  });
  if (v != nullptr) {
    be_cursor_ = (static_cast<size_t>(v->global_id()) + 1) % servers_.size();
  }
  return v;
}

ScheduleDecision ServerEdfScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  Server* best = nullptr;
  // Every VCPU this PCPU may dispatch, in VCPU insertion order so EDF
  // tie-breaking is deterministic; the visitor never stops the walk.
  machine_->FindDispatchable(pcpu, 0, [&](const Vcpu* v) {
    Server& s = servers_[v->global_id()];
    // '<=': deadline ties go to the later-inserted server, matching the
    // paper's Figure 1a schedule (VM3 runs before VM1 at their shared
    // deadline); EDF permits either order.
    if (s.params.budget > 0 && s.budget > 0 && (best == nullptr || s.deadline <= best->deadline)) {
      best = &s;
    }
    return false;
  });
  if (best != nullptr) {
    TimeNs horizon = best->budget;
    if (config_.quantum > 0) {
      // Budget enforcement only at quantum boundaries.
      horizon = (horizon + config_.quantum - 1) / config_.quantum * config_.quantum;
    }
    return ScheduleDecision{best->vcpu, now + horizon};
  }
  // Round-robin quantum for best-effort (serverless) VCPUs.
  constexpr TimeNs kBestEffortQuantum = Ms(1);
  Vcpu* be = PickBestEffort(pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, now + kBestEffortQuantum};
  }
  return ScheduleDecision{nullptr, kTimeNever};
}

TimeNs ServerEdfScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

}  // namespace rtvirt
