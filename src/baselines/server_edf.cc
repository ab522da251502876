#include "src/baselines/server_edf.h"

#include <algorithm>
#include <cassert>

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
    return Replenish(machine_->VcpuByGlobalId(static_cast<int>(payload)));
  }
  machine_->pcpu(static_cast<int>(payload))->RequestReschedule();  // kEvQuantum.
  quantum_ticks_[payload] = machine_->sim()->After(config_.quantum, this, kEvQuantum, payload);
}

void ServerEdfScheduler::VcpuInserted(Vcpu* vcpu) { all_vcpus_.push_back(vcpu); }

void ServerEdfScheduler::VcpuRemoved(Vcpu* vcpu) {
  all_vcpus_.erase(std::remove(all_vcpus_.begin(), all_vcpus_.end(), vcpu), all_vcpus_.end());
  auto it = servers_.find(vcpu);
  if (it != servers_.end()) {
    machine_->sim()->Cancel(it->second.replenish_event);
    servers_.erase(it);
  }
}

void ServerEdfScheduler::SetServer(Vcpu* vcpu, ServerParams params) {
  assert(params.budget > 0 && params.period >= params.budget);
  Server& s = servers_[vcpu];
  machine_->sim()->Cancel(s.replenish_event);
  s.vcpu = vcpu;
  s.params = params;
  Replenish(vcpu);
}

void ServerEdfScheduler::Replenish(Vcpu* vcpu) {
  // Settle any in-flight consumption first, so it is charged against the
  // old budget and not silently deducted from the fresh one.
  if (vcpu->running()) {
    vcpu->pcpu()->SettleAccounting();
  }
  Server& s = servers_[vcpu];
  TimeNs now = machine_->sim()->Now();
  // Quantum-driven overruns (negative budget) are repaid here; positive
  // leftovers (deferrable) are preserved but never exceed one budget.
  s.budget = std::min(s.params.budget, s.budget + s.params.budget);
  s.deadline = now + s.params.period;
  s.replenish_event = machine_->sim()->After(s.params.period, this, kEvReplenish,
                                             static_cast<uint64_t>(vcpu->global_id()));
  if (vcpu->runnable() || vcpu->running()) {
    TickleFor(vcpu);
  }
}

void ServerEdfScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  auto it = servers_.find(vcpu);
  if (it != servers_.end()) {
    // May go negative in quantum-driven mode (enforcement lag); the debt is
    // repaid at replenishment.
    it->second.budget -= ran;
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
    auto it = servers_.find(cur);
    if (it == servers_.end()) {
      best_effort_pcpu = p;
    } else if (it->second.deadline > latest_deadline) {
      latest_deadline = it->second.deadline;
      latest_pcpu = p;
    }
  }
  if (best_effort_pcpu != nullptr) {
    best_effort_pcpu->RequestReschedule();
    return;
  }
  auto it = servers_.find(vcpu);
  if (it != servers_.end() && latest_pcpu != nullptr && it->second.deadline < latest_deadline) {
    latest_pcpu->RequestReschedule();
  }
}

void ServerEdfScheduler::VcpuWake(Vcpu* vcpu) {
  auto it = servers_.find(vcpu);
  if (it == servers_.end() || it->second.budget > 0) {
    TickleFor(vcpu);
  }
}

void ServerEdfScheduler::VcpuBlock(Vcpu* vcpu) { (void)vcpu; }

Vcpu* ServerEdfScheduler::PickBestEffort(Pcpu* pcpu) {
  size_t n = all_vcpus_.size();
  for (size_t i = 0; i < n; ++i) {
    Vcpu* v = all_vcpus_[(be_cursor_ + i) % n];
    if (servers_.find(v) != servers_.end()) {
      continue;  // Depleted servers wait for replenishment (non-work-conserving).
    }
    bool continuing = v->running() && v->pcpu() == pcpu;
    if (!v->runnable() && !continuing) {
      continue;
    }
    be_cursor_ = (be_cursor_ + i + 1) % n;
    return v;
  }
  return nullptr;
}

ScheduleDecision ServerEdfScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  Server* best = nullptr;
  // Iterate in VCPU insertion order so EDF tie-breaking is deterministic.
  for (Vcpu* v : all_vcpus_) {
    auto it = servers_.find(v);
    if (it == servers_.end()) {
      continue;
    }
    Server& s = it->second;
    if (s.budget <= 0) {
      continue;
    }
    bool continuing = s.vcpu->running() && s.vcpu->pcpu() == pcpu;
    if (!s.vcpu->runnable() && !continuing) {
      continue;  // Blocked, or running on another PCPU.
    }
    // '<=': deadline ties go to the later-inserted server, matching the
    // paper's Figure 1a schedule (VM3 runs before VM1 at their shared
    // deadline); EDF permits either order.
    if (best == nullptr || s.deadline <= best->deadline) {
      best = &s;
    }
  }
  if (best != nullptr) {
    TimeNs horizon = best->budget;
    if (config_.quantum > 0) {
      // Budget enforcement only at quantum boundaries.
      horizon = (horizon + config_.quantum - 1) / config_.quantum * config_.quantum;
    }
    return ScheduleDecision{best->vcpu, now + horizon};
  }
  Vcpu* be = PickBestEffort(pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, now + config_.best_effort_quantum};
  }
  return ScheduleDecision{nullptr, kTimeNever};
}

TimeNs ServerEdfScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

}  // namespace rtvirt
