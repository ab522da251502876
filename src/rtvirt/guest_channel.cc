#include "src/rtvirt/guest_channel.h"

#include <algorithm>

namespace rtvirt {
namespace {

// Upper bound on the slack as a fraction of the VCPU period, protecting
// short-period reservations (e.g., a 500 us memcached SLO) from a slack tuned
// for millisecond periods: 500 us of slack on a 500 us period would otherwise
// double the reservation to a full CPU.
constexpr double kMaxSlackFraction = 0.1;
// First retry backoff; multiplied by kRetryBackoffMult per retry. Also seeds
// the degraded-mode repair loop's probe interval.
constexpr TimeNs kRetryBackoff = Us(50);
constexpr double kRetryBackoffMult = 2.0;

}  // namespace

Bandwidth RtvirtGuestChannel::WithSlack(Bandwidth rta_bw, TimeNs period) const {
  if (rta_bw == Bandwidth::Zero() || period <= 0 || period >= kTimeNever) {
    return rta_bw;
  }
  auto slack = static_cast<TimeNs>(static_cast<double>(options_.budget_slack) *
                                   options_.priority_scale);
  slack = std::min(slack, static_cast<TimeNs>(static_cast<double>(period) * kMaxSlackFraction));
  Bandwidth padded = rta_bw + Bandwidth::FromSlicePeriod(slack, period);
  return std::min(padded, Bandwidth::One());
}

Bandwidth RtvirtGuestChannel::ConservativeBw(Bandwidth rta_bw, TimeNs period) const {
  if (rta_bw == Bandwidth::Zero() || period <= 0 || period >= kTimeNever) {
    return rta_bw;
  }
  // Full slack, deliberately not trimmed by kMaxSlackFraction: without
  // deadline sharing the host schedules this VCPU on bandwidth alone, so the
  // reservation must absorb worst-case dispatch latency the way a standalone
  // RT-Xen server would.
  auto slack = static_cast<TimeNs>(static_cast<double>(options_.budget_slack) *
                                   options_.priority_scale);
  Bandwidth padded = rta_bw + Bandwidth::FromSlicePeriod(slack, period);
  return std::min(padded, Bandwidth::One());
}

RtvirtGuestChannel::VcpuState& RtvirtGuestChannel::StateOf(const Vcpu* vcpu) {
  size_t i = static_cast<size_t>(vcpu->index());
  if (i >= state_.size()) {
    state_.resize(i + 1);
  }
  return state_[i];
}

bool RtvirtGuestChannel::degraded(const Vcpu* vcpu) const {
  size_t i = static_cast<size_t>(vcpu->index());
  return i < state_.size() && state_[i].degraded;
}

Bandwidth RtvirtGuestChannel::GrantedBw(const Vcpu* vcpu) const {
  size_t i = static_cast<size_t>(vcpu->index());
  return i < state_.size() ? state_[i].granted : Bandwidth::Zero();
}

int64_t RtvirtGuestChannel::TryHypercall(Vcpu* caller, const HypercallArgs& args) {
  int64_t rc = machine_->Hypercall(caller, args);
  if (rc != kHypercallAgain) {
    return rc;
  }
  ++stats_.transient_failures;
  TimeNs backoff = kRetryBackoff;
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    ++stats_.retries;
    // The sim clock cannot advance inside a synchronous guest syscall, so the
    // backoff interval is charged to the hypercall overhead account: the
    // guest kernel burns that time on the channel, exactly like a spike.
    stats_.backoff_time_ns += backoff;
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
        static_cast<TimeNs>(static_cast<double>(backoff) * kRetryBackoffMult),
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
  ScheduleRepair(st, vcpu);
}

void RtvirtGuestChannel::ScheduleRepair(VcpuState& st, Vcpu* vcpu) {
  if (st.repair_scheduled) {
    return;
  }
  st.repair_scheduled = true;
  if (st.repair_backoff <= 0) {
    st.repair_backoff = kRetryBackoff;
  }
  uint64_t payload =
      (static_cast<uint64_t>(vcpu->global_id()) << 32) | (generation_ & 0xffffffffull);
  machine_->sim()->After(st.repair_backoff, this, kEvRepair, payload);
  st.repair_backoff = std::min(
      static_cast<TimeNs>(static_cast<double>(st.repair_backoff) * kRetryBackoffMult),
      options_.repair_backoff_max);
}

void RtvirtGuestChannel::OnEvent(uint32_t /*kind*/, uint64_t payload) {
  // One repair probe (kEvRepair). Generations count VM crashes, so the low
  // 32 bits identify the generation the probe was scheduled in exactly.
  if ((payload & 0xffffffffull) != (generation_ & 0xffffffffull)) {
    return;  // Scheduled before a Reset(): the state it targeted is gone.
  }
  Vcpu* vcpu = machine_->VcpuByGlobalId(static_cast<int>(payload >> 32));
  if (!degraded(vcpu)) {
    return;
  }
  VcpuState& st = state_[vcpu->index()];
  st.repair_scheduled = false;
  ++stats_.repair_attempts;

  // Single probe, no in-call retries: the loop itself is the retry, and its
  // exponential backoff keeps a long outage from flooding the channel.
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = vcpu;
  args.bw_a = ConservativeBw(st.rta_bw, st.rta_period);
  args.period_a = st.rta_period;
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
    st.granted = args.bw_a;
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
    return rc;
  }
  if (rc == kHypercallAgain && options_.degraded_fallback) {
    EnterDegraded(st, vcpu);
    if (padded <= st.granted) {
      st.rta_bw = rta_bw;
      st.rta_period = period;
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
    VcpuState& st_from = StateOf(from);
    st_from.rta_bw = from_bw;
    st_from.rta_period = from_period;
    st_from.granted = args.bw_b;
  }
  return rc;
}

void RtvirtGuestChannel::ReleaseBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                                          int64_t reason) {
  VcpuState& st = StateOf(vcpu);
  st.rta_bw = rta_bw;
  st.rta_period = period;
  if (st.degraded) {
    // Channel is down; the smaller target is remembered above, and the
    // repair loop hands the surplus back when the channel heals.
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

template <typename Self, typename Io>
void RtvirtGuestChannel::ScalarFields(Self& self, Io& io) {
  auto& s = self.stats_;
  ckpt::Fields(io, self.generation_, s.transient_failures, s.retries, s.retry_successes,
               s.degraded_entries, s.recoveries, s.repair_attempts, s.backoff_time_ns);
}

namespace {

// One VCPU's record, in byte order; save and restore share it.
template <typename State, typename Io>
void StateFields(State& st, Io& io) {
  ckpt::Fields(io, st.rta_bw, st.rta_period, st.granted, st.degraded, st.cached_deadline,
               st.repair_backoff, st.repair_scheduled);
}

}  // namespace

// One record per VCPU slot, in VCPU-index order.
void RtvirtGuestChannel::SaveState(ckpt::Writer& w) const {
  ScalarFields(*this, w);
  w.U32(static_cast<uint32_t>(state_.size()));
  for (const VcpuState& st : state_) {
    StateFields(st, w);
  }
}

std::string RtvirtGuestChannel::RestoreState(ckpt::Reader& r) {
  ScalarFields(*this, r);
  uint32_t n = r.U32();
  if (r.ok() && n > SharedSchedPage::kMaxSlots) {
    return ckpt_section_ + ": " + std::to_string(n) + " VCPU records exceed the " +
           std::to_string(SharedSchedPage::kMaxSlots) + " shared-page slots";
  }
  state_.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    StateFields(state_.emplace_back(), r);
  }
  return r.ok() ? "" : ckpt_section_ + ": truncated section";
}

std::string RtvirtGuestChannel::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if (kind != kEvRepair) {
    return ckpt_section_ + ": unknown event kind " + std::to_string(kind);
  }
  int gid = static_cast<int>(payload >> 32);
  const Vcpu* vcpu = machine_->VcpuByGlobalId(gid);
  if (vcpu == nullptr) {
    return ckpt_section_ + ": repair event references unknown VCPU global id " +
           std::to_string(gid);
  }
  // The section name, channel.<vmid>, names the one VM this channel serves.
  if (ckpt_section_ != "channel." + std::to_string(vcpu->vm()->id())) {
    return ckpt_section_ + ": repair event references VCPU global id " + std::to_string(gid) +
           " of VM " + std::to_string(vcpu->vm()->id());
  }
  // The channel never cancels repair ticks, so this is its whole schedule
  // path; repair_backoff was saved post-multiplication and must not advance.
  machine_->sim()->At(when, this, kEvRepair, payload);
  return "";
}

}  // namespace rtvirt
