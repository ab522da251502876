#include "src/baselines/credit.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/hv/machine.h"

namespace rtvirt {
namespace {

// Periodic scheduler tick per PCPU (its cost is CreditConfig::tick_cost).
constexpr TimeNs kTickPeriod = Ms(10);
// Minimum uninterrupted run before a preemption is honored (paper: ratelimit
// 500 us, the Credit setting of the section 4.4 memcached experiments).
constexpr TimeNs kRatelimit = Us(500);

}  // namespace

CreditScheduler::CreditScheduler(CreditConfig config) : config_(config) {}

void CreditScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  accounting_event_ = machine_->sim()->After(config_.timeslice, this, kEvAccounting);
  tick_events_.resize(machine_->num_pcpus());
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    tick_events_[i] = machine_->sim()->After(kTickPeriod, this, kEvTick, i);
  }
}

void CreditScheduler::OnEvent(uint32_t kind, uint64_t payload) {
  if (kind == kEvAccounting) {
    Accounting();
  } else {
    Tick(static_cast<int>(payload));
  }
}

void CreditScheduler::VcpuInserted(Vcpu* vcpu) {
  RTVIRT_CHECK(vcpu->global_id() == static_cast<int>(states_.size()),
               "credit: VCPU %s inserted out of global-id order", vcpu->name().c_str());
  states_.emplace_back().vcpu = vcpu;
}

void CreditScheduler::Tick(int pcpu_id) {
  machine_->pcpu(pcpu_id)->InjectOverhead(config_.tick_cost);
  // Credit is tick-driven: the tick settles accounting and re-evaluates the
  // runqueue (boost decay and priority changes take effect here).
  machine_->pcpu(pcpu_id)->SettleAccounting();
  machine_->pcpu(pcpu_id)->RequestReschedule();
  tick_events_[pcpu_id] = machine_->sim()->After(kTickPeriod, this, kEvTick,
                                                 static_cast<uint64_t>(pcpu_id));
}

void CreditScheduler::Accounting() {
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->SettleAccounting();  // Charge consumption to this window.
  }
  TimeNs pool = config_.timeslice * machine_->num_pcpus();
  int total_weight = 0;
  for (const CreditState& st : states_) {
    total_weight += st.vcpu->vm()->weight();
  }
  for (CreditState& st : states_) {
    if (total_weight > 0) {
      st.credits += pool * st.vcpu->vm()->weight() / total_weight;
    }
    // Cap both ways, as Xen does, so neither hoarding nor debt is unbounded.
    st.credits = std::clamp<TimeNs>(st.credits, -config_.timeslice, config_.timeslice);
    st.priority = st.credits >= 0 ? Priority::kUnder : Priority::kOver;
    st.boost_ran = 0;
    st.window_consumed = 0;
    st.capped_out = false;
  }
  accounting_event_ = machine_->sim()->After(config_.timeslice, this, kEvAccounting);
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->RequestReschedule();
  }
}

void CreditScheduler::SetCap(Vcpu* vcpu, Bandwidth cap) {
  size_t gid = static_cast<size_t>(vcpu->global_id());
  RTVIRT_CHECK(gid < states_.size() && states_[gid].vcpu == vcpu,
               "SetCap: VCPU %s is not on this scheduler's machine", vcpu->name().c_str());
  states_[gid].cap = cap;
}

void CreditScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  CreditState& st = states_[vcpu->global_id()];
  st.credits -= ran;
  st.window_consumed += ran;
  if (st.cap > Bandwidth::Zero() && st.window_consumed >= st.cap.SliceOf(config_.timeslice)) {
    st.capped_out = true;  // Parked until the next accounting window.
  }
  st.last_run = machine_->sim()->Now();
  if (st.priority == Priority::kBoost) {
    st.boost_ran += ran;
    if (st.boost_ran >= kTickPeriod) {
      st.priority = st.credits >= 0 ? Priority::kUnder : Priority::kOver;
    }
  }
}

void CreditScheduler::VcpuWake(Vcpu* vcpu) {
  CreditState& st = states_[vcpu->global_id()];
  if (st.credits >= 0) {
    st.priority = Priority::kBoost;  // Boost on wake from idle.
    st.boost_ran = 0;
  }
  // Tickle an idle PCPU (round-robin: simultaneous wakes must hit distinct
  // PCPUs), else the PCPU running the lowest-priority VCPU.
  Pcpu* victim = nullptr;
  Priority victim_pri = st.priority;
  int n = machine_->num_pcpus();
  for (int k = 0; k < n; ++k) {
    Pcpu* p = machine_->pcpu((tickle_cursor_ + k) % n);
    if (p->current() == nullptr) {
      tickle_cursor_ = (p->id() + 1) % n;
      p->RequestReschedule();
      return;
    }
    Priority pri = states_[p->current()->global_id()].priority;
    if (pri > victim_pri) {
      victim_pri = pri;
      victim = p;
    }
  }
  if (victim != nullptr) {
    victim->RequestReschedule();
  }
}

ScheduleDecision CreditScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  Vcpu* cur = pcpu->current();
  if (cur != nullptr && !cur->blocked()) {
    // Honor the ratelimit: do not preempt a VCPU that just started.
    const CreditState& st = states_[cur->global_id()];
    if (!st.capped_out && now < st.dispatched_at + kRatelimit) {
      return ScheduleDecision{cur, st.dispatched_at + kRatelimit};
    }
  }
  CreditState* best = nullptr;
  // Every VCPU this PCPU may dispatch, in global-id order: deterministic
  // round-robin tie-breaking. The visitor never stops the walk.
  machine_->FindDispatchable(pcpu, 0, [&](const Vcpu* v) {
    CreditState& st = states_[v->global_id()];
    // A capped-out VCPU is parked until the next accounting.
    if (!st.capped_out && (best == nullptr || st.priority < best->priority ||
                           (st.priority == best->priority && st.last_run < best->last_run))) {
      best = &st;
    }
    return false;
  });
  if (best == nullptr) {
    return ScheduleDecision{nullptr, kTimeNever};
  }
  if (best->vcpu != cur) {
    best->dispatched_at = now;
  }
  TimeNs horizon = config_.timeslice;
  if (best->cap > Bandwidth::Zero()) {
    horizon = std::min(horizon, std::max<TimeNs>(
        best->cap.SliceOf(config_.timeslice) - best->window_consumed, 1));
  }
  return ScheduleDecision{best->vcpu, now + horizon};
}

TimeNs CreditScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

TimeNs CreditScheduler::DispatchCost(const Vcpu* next) const {
  (void)next;
  return config_.dispatch_cost;
}

}  // namespace rtvirt
