#include "src/rtvirt/guest_channel.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace rtvirt {

Bandwidth RtvirtGuestChannel::WithSlack(Bandwidth rta_bw, TimeNs period) const {
  if (rta_bw == Bandwidth::Zero() || period <= 0 || period >= kTimeNever) {
    return rta_bw;
  }
  auto slack = static_cast<TimeNs>(static_cast<double>(options_.budget_slack) *
                                   options_.priority_scale);
  slack = std::min(slack, static_cast<TimeNs>(static_cast<double>(period) *
                                              options_.max_slack_fraction));
  Bandwidth padded = rta_bw + Bandwidth::FromSlicePeriod(slack, period);
  return std::min(padded, Bandwidth::One());
}

Bandwidth RtvirtGuestChannel::ConservativeBw(Bandwidth rta_bw, TimeNs period) const {
  if (rta_bw == Bandwidth::Zero() || period <= 0 || period >= kTimeNever) {
    return rta_bw;
  }
  // Full slack, deliberately not trimmed by max_slack_fraction: without
  // deadline sharing the host schedules this VCPU on bandwidth alone, so the
  // reservation must absorb worst-case dispatch latency the way a standalone
  // RT-Xen server would.
  auto slack = static_cast<TimeNs>(static_cast<double>(options_.budget_slack) *
                                   options_.priority_scale);
  Bandwidth padded = rta_bw + Bandwidth::FromSlicePeriod(slack, period);
  return std::min(padded, Bandwidth::One());
}

bool RtvirtGuestChannel::degraded(const Vcpu* vcpu) const {
  auto it = state_.find(vcpu);
  return it != state_.end() && it->second.degraded;
}

Bandwidth RtvirtGuestChannel::GrantedBw(const Vcpu* vcpu) const {
  auto it = state_.find(vcpu);
  return it != state_.end() ? it->second.granted : Bandwidth::Zero();
}

TimeNs RtvirtGuestChannel::GrantedPeriod(const Vcpu* vcpu) const {
  auto it = state_.find(vcpu);
  return it != state_.end() ? it->second.granted_period : 0;
}

int64_t RtvirtGuestChannel::TryHypercall(Vcpu* caller, const HypercallArgs& args) {
  int64_t rc = machine_->Hypercall(caller, args);
  if (rc != kHypercallAgain) {
    return rc;
  }
  ++stats_.transient_failures;
  TimeNs backoff = options_.retry_backoff;
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    ++stats_.retries;
    // The sim clock cannot advance inside a synchronous guest syscall, so the
    // backoff interval is charged to the hypercall overhead account: the
    // guest kernel burns that time on the channel, exactly like a spike.
    stats_.backoff_time += backoff;
    machine_->mutable_overhead().hypercall_time += backoff;
    rc = machine_->Hypercall(caller, args);
    if (rc != kHypercallAgain) {
      ++stats_.retry_successes;
      return rc;
    }
    ++stats_.transient_failures;
    // Same saturation as the repair loop: without the cap, a long kAgain
    // streak (e.g. a rate-limited or quarantined VM) grows the charged
    // backoff geometrically without bound.
    backoff = std::min(
        static_cast<TimeNs>(static_cast<double>(backoff) * options_.retry_backoff_mult),
        options_.repair_backoff_max);
  }
  return rc;
}

void RtvirtGuestChannel::EnterDegraded(VcpuState& st, Vcpu* vcpu) {
  if (st.degraded) {
    return;
  }
  st.degraded = true;
  ++stats_.degraded_entries;
  // Stop sharing deadlines: a deadline the guest can no longer refresh is
  // worse than none — the host falls back to period-based worst cases.
  vcpu->vm()->shared_page().PublishNextDeadline(vcpu->index(), kTimeNever);
  st.desired = ConservativeBw(st.rta_bw, st.rta_period);
  st.desired_period = st.rta_period;
  ScheduleRepair(st, vcpu);
}

void RtvirtGuestChannel::ScheduleRepair(VcpuState& st, Vcpu* vcpu) {
  if (st.repair_scheduled) {
    return;
  }
  st.repair_scheduled = true;
  if (st.repair_backoff <= 0) {
    st.repair_backoff = std::max<TimeNs>(options_.retry_backoff, 1);
  }
  uint64_t payload =
      (static_cast<uint64_t>(vcpu->global_id()) << 32) | (generation_ & 0xffffffffull);
  machine_->sim()->After(st.repair_backoff, this, kEvRepair, payload);
  st.repair_backoff = std::min(
      static_cast<TimeNs>(static_cast<double>(st.repair_backoff) * options_.retry_backoff_mult),
      options_.repair_backoff_max);
}

void RtvirtGuestChannel::OnEvent(uint32_t /*kind*/, uint64_t payload) {
  // One repair probe (kEvRepair). Generations count VM crashes, so the low
  // 32 bits identify the generation the probe was scheduled in exactly.
  if ((payload & 0xffffffffull) != (generation_ & 0xffffffffull)) {
    return;  // Scheduled before a Reset(): the state it targeted is gone.
  }
  Vcpu* vcpu = machine_->VcpuByGlobalId(static_cast<int>(payload >> 32));
  auto it = state_.find(vcpu);
  if (it == state_.end() || !it->second.degraded) {
    return;
  }
  VcpuState& st = it->second;
  st.repair_scheduled = false;
  ++stats_.repair_attempts;

  // Single probe, no in-call retries: the loop itself is the retry, and its
  // exponential backoff keeps a long outage from flooding the channel.
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = vcpu;
  args.bw_a = st.desired;
  args.period_a = st.desired_period;
  int64_t rc = machine_->Hypercall(vcpu, args);
  if (rc == kHypercallAgain) {
    ++stats_.transient_failures;
    ScheduleRepair(st, vcpu);
    return;
  }
  // The call was delivered: the channel is healthy again. kHypercallOk means
  // the conservative reservation is installed; kHypercallNoBandwidth means it
  // did not fit, but the previously granted reservation is still installed
  // and covers everything admitted while degraded (local admission only
  // accepted requests within it), so normal operation is safe either way and
  // the next guest request right-sizes the reservation.
  if (rc == kHypercallOk) {
    st.granted = st.desired;
    st.granted_period = st.desired_period;
  }
  st.degraded = false;
  st.repair_backoff = 0;
  ++stats_.recoveries;
  vcpu->vm()->shared_page().PublishNextDeadline(vcpu->index(), st.cached_deadline);
}

int64_t RtvirtGuestChannel::RequestBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                                             int64_t reason) {
  VcpuState& st = StateOf(vcpu);
  Bandwidth padded = WithSlack(rta_bw, period);

  if (st.degraded) {
    // Local admission against the reservation the host last acknowledged:
    // the host still holds st.granted, so accepting anything within it needs
    // no channel round-trip and cannot over-commit the host.
    if (padded <= st.granted) {
      st.rta_bw = rta_bw;
      st.rta_period = period;
      st.desired = ConservativeBw(rta_bw, period);
      st.desired_period = period;
      return kHypercallOk;
    }
    return kHypercallAgain;
  }

  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = vcpu;
  args.bw_a = padded;
  args.period_a = period;
  args.reason = reason;
  int64_t rc = TryHypercall(vcpu, args);
  if (rc == kHypercallOk) {
    st.rta_bw = rta_bw;
    st.rta_period = period;
    st.granted = padded;
    st.granted_period = period;
    return rc;
  }
  if (rc == kHypercallAgain && options_.degraded_fallback) {
    EnterDegraded(st, vcpu);
    if (padded <= st.granted) {
      st.rta_bw = rta_bw;
      st.rta_period = period;
      st.desired = ConservativeBw(rta_bw, period);
      st.desired_period = period;
      return kHypercallOk;
    }
  }
  return rc;
}

int64_t RtvirtGuestChannel::MoveBandwidth(Vcpu* to, Bandwidth to_bw, TimeNs to_period,
                                          Vcpu* from, Bandwidth from_bw,
                                          TimeNs from_period) {
  // A move spans two reservations; while either endpoint is degraded its
  // host-side state is unknown, so refuse and let the guest keep the task
  // where it is (the revert path is the existing kGuestErrBusy handling).
  if (degraded(to) || degraded(from)) {
    return kHypercallAgain;
  }
  HypercallArgs args;
  args.op = SchedOp::kIncDecBw;
  args.vcpu_a = to;
  args.bw_a = WithSlack(to_bw, to_period);
  args.period_a = to_period;
  args.vcpu_b = from;
  args.bw_b = WithSlack(from_bw, from_period);
  args.period_b = from_period;
  int64_t rc = TryHypercall(to, args);
  if (rc == kHypercallOk) {
    VcpuState& st_to = StateOf(to);
    st_to.rta_bw = to_bw;
    st_to.rta_period = to_period;
    st_to.granted = args.bw_a;
    st_to.granted_period = to_period;
    VcpuState& st_from = StateOf(from);
    st_from.rta_bw = from_bw;
    st_from.rta_period = from_period;
    st_from.granted = args.bw_b;
    st_from.granted_period = from_period;
  }
  return rc;
}

void RtvirtGuestChannel::ReleaseBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                                          int64_t reason) {
  VcpuState& st = StateOf(vcpu);
  st.rta_bw = rta_bw;
  st.rta_period = period;
  if (st.degraded) {
    // Channel is down; remember the smaller target and let the repair loop
    // hand the surplus back when the channel heals.
    st.desired = ConservativeBw(rta_bw, period);
    st.desired_period = period;
    return;
  }
  HypercallArgs args;
  args.op = SchedOp::kDecBw;
  args.vcpu_a = vcpu;
  args.bw_a = WithSlack(rta_bw, period);
  args.period_a = period;
  args.reason = reason;
  int64_t rc = TryHypercall(vcpu, args);
  if (rc == kHypercallOk) {
    st.granted = args.bw_a;
    st.granted_period = period;
  } else if (rc == kHypercallAgain && options_.degraded_fallback) {
    // The host kept the larger reservation (safe, merely wasteful); degrade
    // so the repair loop eventually shrinks it.
    EnterDegraded(st, vcpu);
  }
}

void RtvirtGuestChannel::PublishNextDeadline(Vcpu* vcpu, TimeNs deadline) {
  VcpuState& st = StateOf(vcpu);
  st.cached_deadline = deadline;
  if (st.degraded) {
    return;  // Republished on recovery; the slot stays at kTimeNever.
  }
  vcpu->vm()->shared_page().PublishNextDeadline(vcpu->index(), deadline);
}

void RtvirtGuestChannel::Reset() {
  state_.clear();
  ++generation_;
}

void RtvirtGuestChannel::SaveState(ckpt::Writer& w) const {
  w.U64(generation_);
  w.U64(stats_.transient_failures);
  w.U64(stats_.retries);
  w.U64(stats_.retry_successes);
  w.U64(stats_.degraded_entries);
  w.U64(stats_.recoveries);
  w.U64(stats_.repair_attempts);
  w.I64(stats_.backoff_time);
  std::vector<std::pair<const Vcpu*, const VcpuState*>> sorted;
  sorted.reserve(state_.size());
  for (const auto& [v, st] : state_) {
    sorted.push_back({v, &st});
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.first->global_id() < b.first->global_id();
  });
  w.U32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [v, st] : sorted) {
    w.U32(static_cast<uint32_t>(v->global_id()));
    w.I64(st->rta_bw.ppb());
    w.I64(st->rta_period);
    w.I64(st->granted.ppb());
    w.I64(st->granted_period);
    w.I64(st->desired.ppb());
    w.I64(st->desired_period);
    w.Bool(st->degraded);
    w.I64(st->cached_deadline);
    w.I64(st->repair_backoff);
    w.Bool(st->repair_scheduled);
  }
}

std::string RtvirtGuestChannel::RestoreState(ckpt::Reader& r) {
  generation_ = r.U64();
  stats_.transient_failures = r.U64();
  stats_.retries = r.U64();
  stats_.retry_successes = r.U64();
  stats_.degraded_entries = r.U64();
  stats_.recoveries = r.U64();
  stats_.repair_attempts = r.U64();
  stats_.backoff_time = r.I64();
  state_.clear();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    Vcpu* v = machine_->VcpuByGlobalId(gid);
    if (v == nullptr) {
      return ckpt_section_ + ": entry[" + std::to_string(i) +
             "] references unknown VCPU global id " + std::to_string(gid);
    }
    VcpuState st;
    st.rta_bw = Bandwidth::FromPpb(r.I64());
    st.rta_period = r.I64();
    st.granted = Bandwidth::FromPpb(r.I64());
    st.granted_period = r.I64();
    st.desired = Bandwidth::FromPpb(r.I64());
    st.desired_period = r.I64();
    st.degraded = r.Bool();
    st.cached_deadline = r.I64();
    st.repair_backoff = r.I64();
    st.repair_scheduled = r.Bool();
    state_[v] = st;
  }
  return r.ok() ? "" : ckpt_section_ + ": truncated section";
}

std::string RtvirtGuestChannel::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if (kind != kEvRepair) {
    return ckpt_section_ + ": unknown event kind " + std::to_string(kind);
  }
  int gid = static_cast<int>(payload >> 32);
  if (machine_->VcpuByGlobalId(gid) == nullptr) {
    return ckpt_section_ + ": repair event references unknown VCPU global id " +
           std::to_string(gid);
  }
  // The channel never cancels repair ticks, so this is its whole schedule
  // path; repair_backoff was saved post-multiplication and must not advance.
  machine_->sim()->At(when, this, kEvRepair, payload);
  return "";
}

}  // namespace rtvirt
