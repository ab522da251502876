#include "src/rtvirt/dpwrap.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"
#include "src/hv/machine.h"

namespace rtvirt {
namespace {

// Horizon used when no reserved VCPU publishes a deadline.
constexpr TimeNs kMaxGlobalSlice = Ms(100);
// Round-robin quantum for best-effort (non-reserved) VCPUs.
constexpr TimeNs kBestEffortQuantum = Ms(1);
// Stable counting sort of `plan` into `out` by key(segment), a number in
// [0, keys): afterwards range_of(k) locates key k's segments in `out`, in
// the order `plan` has them.
template <typename Segment, typename Key, typename RangeOf>
void GroupBy(const std::vector<Segment>& plan, int keys, Key key, RangeOf range_of,
             std::vector<Segment>* out) {
  for (int k = 0; k < keys; ++k) {
    range_of(k).count = 0;
  }
  for (const Segment& seg : plan) {
    ++range_of(key(seg)).count;
  }
  int at = 0;
  for (int k = 0; k < keys; ++k) {
    range_of(k).begin = at;
    at += range_of(k).count;
    range_of(k).count = 0;
  }
  out->resize(plan.size());
  for (const Segment& seg : plan) {
    auto& range = range_of(key(seg));
    (*out)[range.begin + range.count++] = seg;
  }
}

}  // namespace

DpWrapScheduler::DpWrapScheduler(DpWrapConfig config) : config_(config) {
  if (config.idle_tax.enabled) {
    idle_tax_.emplace(config.idle_tax.window);
  }
  if (config.watchdog.reclaim_crashed || config.watchdog.freshness_horizon > 0) {
    watchdog_.emplace(config.watchdog.reclaim_crashed, config.watchdog.freshness_horizon,
                      &stats_);
  }
  if (config.overload.enabled) {
    overload_.emplace(config.overload.low_watermark, &stats_);
  }
  if (config.guest_trust.enabled) {
    guest_trust_.emplace(&stats_);
  }
}

void DpWrapScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  pcpu_segs_.resize(machine->num_pcpus());
  occupied_.resize(machine->num_pcpus());
  speeds_.resize(machine->num_pcpus());
  TimeNs now = machine_->sim()->Now();
  if (idle_tax_) {
    Arm(kEvTax, now + idle_tax_->window());
  }
  if (watchdog_ && watchdog_->reclaims()) {
    Arm(kEvWatchdog, now + CrashWatchdog::kScanPeriod);
  }
  if (overload_) {
    Arm(kEvOverload, now + OverloadPressure::kScanPeriod);
  }
  if (guest_trust_) {
    Arm(kEvTrust, now + GuestTrust::kScanPeriod);
  }
}

void DpWrapScheduler::Arm(uint32_t kind, TimeNs when) {
  Simulator::EventId id = machine_->sim()->At(when, this, kind);
  if (kind == kEvReplan) {
    replan_event_ = id;
  } else if (kind == kEvEarlyReplan) {
    early_replan_event_ = id;
  }
}

void DpWrapScheduler::OnEvent(uint32_t kind, uint64_t /*payload*/) {
  TimeNs now = machine_->sim()->Now();
  switch (kind) {
    case kEvTax: {
      bool changed = idle_tax_->Scan(*this);
      Arm(kEvTax, now + idle_tax_->window());
      if (changed) {
        ScheduleReplan();
      }
      return;
    }
    case kEvWatchdog:
      if (watchdog_->Reclaim(*this)) {
        ScheduleReplan();
      }
      return Arm(kEvWatchdog, now + CrashWatchdog::kScanPeriod);
    case kEvOverload:
      overload_->Scan(machine_, capacity(), total_effective(),
                      capacity() + Bandwidth::FromPpb(config_.admission_epsilon_ppb));
      return Arm(kEvOverload, now + OverloadPressure::kScanPeriod);
    case kEvTrust:
      guest_trust_->Scan();
      if (guest_trust_->TakeReplan()) {
        ScheduleReplan();
      }
      return Arm(kEvTrust, now + GuestTrust::kScanPeriod);
    case kEvDeferredReplan:
      replan_pending_ = false;
      return Replan();
    default:  // kEvReplan, kEvEarlyReplan.
      return Replan();
  }
}

void DpWrapScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  int gid = vcpu->global_id();
  if (idle_tax_ && slots_[gid].reserved) {
    idle_tax_->Charge(gid, ran);
  }
}

Bandwidth DpWrapScheduler::total_effective() const {
  if (!idle_tax_) {
    return total_;
  }
  Bandwidth total;
  for (int gid : active_) {
    total += EffectiveBw(gid);
  }
  return total;
}

bool DpWrapScheduler::Owns(const Vcpu* vcpu) const {
  size_t gid = static_cast<size_t>(vcpu->global_id());
  return gid < slots_.size() && slots_[gid].vcpu == vcpu;
}

Bandwidth DpWrapScheduler::capacity() const {
  return config_.pcpu_recovery.enabled ? machine_->EffectiveCapacity()
                                       : Bandwidth::Cpus(machine_->num_pcpus());
}

const DpWrapScheduler::Reservation* DpWrapScheduler::FindReservation(const Vcpu* vcpu) const {
  if (!Owns(vcpu)) {
    return nullptr;
  }
  const Slot& slot = slots_[vcpu->global_id()];
  return slot.reserved ? &slot.res : nullptr;
}

double DpWrapScheduler::TaxFactor(const Vcpu* vcpu) const {
  return FindReservation(vcpu) == nullptr || !idle_tax_ ? 1.0
                                                       : idle_tax_->factor(vcpu->global_id());
}

void DpWrapScheduler::VcpuInserted(Vcpu* vcpu) {
  RTVIRT_CHECK(vcpu->global_id() == static_cast<int>(slots_.size()),
               "DpWrapScheduler: VCPU with global id %d inserted as VCPU number %zu",
               vcpu->global_id(), slots_.size());
  slots_.emplace_back().vcpu = vcpu;
}

void DpWrapScheduler::SizePlanBuffers() {
  // A plan has one piece per reservation plus at most m-1 splits (more only
  // in the wrap layouts' overlap fallback, where push_back grows the
  // buffers). Doubling keeps the resizes few while VMs are still added.
  size_t pieces = slots_.size() + pcpu_segs_.size();
  if (emitted_.capacity() >= pieces) {
    return;
  }
  pieces *= 2;
  items_.reserve(pieces);
  wrap_out_.reserve(pieces);
  emitted_.reserve(pieces);
  pcpu_plan_.reserve(pieces);
  vcpu_plan_.reserve(pieces);
}

void DpWrapScheduler::Release(int gid) {
  slots_[gid].reserved = false;
  active_.erase(std::find(active_.begin(), active_.end(), gid));
}

void DpWrapScheduler::SetAffinity(Vcpu* vcpu, int pcpu) {
  RTVIRT_CHECK(Owns(vcpu), "SetAffinity: VCPU %s is not on this scheduler's machine",
               vcpu->name().c_str());
  RTVIRT_CHECK(pcpu >= -1 && pcpu < machine_->num_pcpus(),
               "SetAffinity: pcpu %d out of range [-1, %d)", pcpu, machine_->num_pcpus());
  Slot& slot = slots_[vcpu->global_id()];
  slot.pin = pcpu;
  if (slot.reserved) {
    ScheduleReplan();
  }
}

int DpWrapScheduler::Affinity(const Vcpu* vcpu) const {
  return Owns(vcpu) ? slots_[vcpu->global_id()].pin : -1;
}

Bandwidth DpWrapScheduler::ReservedBw(const Vcpu* vcpu) const {
  const Reservation* res = FindReservation(vcpu);
  return res == nullptr ? Bandwidth::Zero() : res->bw;
}

bool DpWrapScheduler::HasActiveSegment(int gid, TimeNs now) const {
  for (const PlanSegment& seg : SegmentsOf(gid)) {
    if (seg.start <= now && now < seg.end) {
      return true;
    }
  }
  return false;
}

void DpWrapScheduler::ScheduleReplan() {
  if (replan_pending_) {
    return;
  }
  replan_pending_ = true;
  Arm(kEvDeferredReplan, machine_->sim()->Now());
}

void DpWrapScheduler::Replan() {
  Simulator* sim = machine_->sim();
  TimeNs now = sim->Now();
  sim->Cancel(replan_event_);
  sim->Cancel(early_replan_event_);
  ++replans_;

  // Cost model: the global deadline is derived on one PCPU in O(log n) from
  // the per-VCPU deadlines (section 4.5) and shared with the others.
  TimeNs cost = config_.replan_cost_base;
  for (size_t k = active_.size(); k > 1; k >>= 1) {
    cost += config_.replan_cost_per_log;
  }
  machine_->mutable_overhead().schedule_time += cost;

  // The global deadline: the earliest deadline a reserved VCPU publishes,
  // in global-id order, so the trust filter's side effects (a quarantine one
  // VCPU raises is seen by its VM's later VCPUs in this replan) follow a
  // fixed sequence.
  slice_start_ = now;
  TimeNs next_gd = now + kMaxGlobalSlice;
  const bool filtered = guest_trust_.has_value() || watchdog_.has_value();
  for (size_t gid = 0; gid < slots_.size(); ++gid) {
    if (!slots_[gid].reserved) {
      continue;
    }
    const Vcpu* v = slots_[gid].vcpu;
    const SharedSchedPage& page = v->vm()->shared_page();
    TimeNs cand = page.next_deadline(v->index());
    TimeNs period = slots_[gid].res.period;
    if (filtered && cand < kTimeNever) {
      TimeNs published = page.last_publish_time(v->index());
      bool distrusted =
          guest_trust_ && guest_trust_->Distrusts(v->vm(), static_cast<int>(gid), cand, published,
                                                  period, now, config_.min_global_slice);
      if (distrusted || (watchdog_ && !watchdog_->Fresh(published, now))) {
        cand = 0;  // Bandwidth-only scheduling: the slot gets the worst case.
      }
    }
    if (cand <= now) {
      // Stale publication: apply the sporadic worst case — the VCPU's RTAs
      // may activate immediately with their minimum period.
      cand = now + period;
    }
    next_gd = std::min(next_gd, cand);
  }
  if (guest_trust_ && guest_trust_->TakeReplan()) {
    ScheduleReplan();
  }
  next_gd = std::max(next_gd, now + config_.min_global_slice);
  slice_end_ = next_gd;
  TimeNs slice_len = slice_end_ - slice_start_;

  // Proportional allocations with a per-reservation sub-ns carry, keeping the
  // cumulative supply within 1 ns of the fluid schedule over any window.
  auto take_alloc = [&](int gid, TimeNs cap) {
    Reservation& res = slots_[gid].res;
    int64_t bw = EffectiveBw(gid).ppb();
    __int128 raw = static_cast<__int128>(bw) * slice_len + res.carry_ppb;
    TimeNs alloc = std::min(static_cast<TimeNs>(raw / Bandwidth::kUnit), cap);
    // Clipped share stays in the carry (bounded to one period of backlog).
    __int128 carry = raw - static_cast<__int128>(alloc) * Bandwidth::kUnit;
    __int128 carry_max = static_cast<__int128>(bw) * res.period;
    res.carry_ppb = static_cast<int64_t>(std::min(carry, carry_max));
    return alloc;
  };

  emitted_.clear();
  auto emit = [&](int gid, int pcpu, TimeNs start, TimeNs end) {
    emitted_.push_back(
        PlanSegment{slots_[gid].vcpu, pcpu, slice_start_ + start, slice_start_ + end});
  };

  // Plan in effective (full-speed-equivalent) ns at each PCPU's planning
  // speed, emitting wall-clock segments: its real speed (0 if offline) with
  // pcpu_recovery, else full speed, the frozen baseline's nominal plan. The
  // carries stay in effective ns, tracking the fluid schedule either way.
  int m = machine_->num_pcpus();
  for (int k = 0; k < m; ++k) {
    const Pcpu* pc = machine_->pcpu(k);
    speeds_[k] = config_.pcpu_recovery.enabled ? (pc->online() ? pc->speed_ppb() : 0)
                                               : Bandwidth::kUnit;
  }
  auto eff_free = [&](int k) -> TimeNs {
    if (speeds_[k] <= 0 || occupied_[k] >= slice_len) {
      return 0;
    }
    return SpeedWallToWork(slice_len - occupied_[k], speeds_[k]);
  };

  // The global slice is split in layout order (active_), so a VCPU's segment
  // offsets stay put across slices unless reservations change. Pinned
  // reservations go first, at the head of their PCPU's chunk: they never
  // migrate or split (paper section 6). The rest wrap, id = global id.
  occupied_.assign(m, 0);
  items_.clear();
  for (int gid : active_) {
    int pcpu = slots_[gid].pin;
    if (pcpu < 0 || speeds_[pcpu] <= 0) {
      // A pin to a dead core cannot hold: evacuate into the wrap. The pin
      // itself persists and re-applies on heal.
      items_.push_back(WrapItem{gid, 0});
      continue;
    }
    TimeNs alloc = take_alloc(gid, eff_free(pcpu));
    if (alloc > 0) {
      TimeNs wall = SpeedWorkToWall(alloc, speeds_[pcpu]);
      emit(gid, pcpu, occupied_[pcpu], occupied_[pcpu] + wall);
      occupied_[pcpu] += wall;
    }
  }

  // Everything else wraps into the remaining space (McNaughton).
  TimeNs free_total = 0;
  for (int k = 0; k < m; ++k) {
    free_total += eff_free(k);
  }
  TimeNs allocated = 0;
  for (WrapItem& item : items_) {
    // The carries can overshoot capacity by < n ns; trim the tail.
    item.alloc = take_alloc(item.id, std::min(slice_len, free_total - allocated));
    allocated += item.alloc;
  }
  WrapAround(items_, slice_len, occupied_, speeds_, &wrap_out_);
  for (const WrapSegment& seg : wrap_out_) {
    emit(seg.item_id, seg.pcpu, seg.start, seg.end);
  }
  GroupPlan();
  Arm(kEvReplan, slice_end_);
  for (int k = 0; k < m; ++k) {
    machine_->pcpu(k)->RequestReschedule();
  }
}

void DpWrapScheduler::GroupPlan() {
  // Each PCPU's pieces come out in start order.
  GroupBy(
      emitted_, static_cast<int>(pcpu_segs_.size()),
      [](const PlanSegment& seg) { return seg.pcpu; },
      [this](int pcpu) -> Range& { return pcpu_segs_[pcpu]; }, &pcpu_plan_);
  GroupBy(
      emitted_, static_cast<int>(slots_.size()),
      [](const PlanSegment& seg) { return seg.vcpu->global_id(); },
      [this](int gid) -> Range& { return slots_[gid].segs; }, &vcpu_plan_);
}

Vcpu* DpWrapScheduler::PickBestEffort(TimeNs now, Pcpu* pcpu) {
  // Round-robin from the cursor, which is always below n (or 0), over the
  // VCPUs this PCPU may dispatch, skipping any inside its own segment (that
  // segment's PCPU is about to pick it).
  Vcpu* v = machine_->FindDispatchable(
      pcpu, be_cursor_, [&](const Vcpu* c) { return !HasActiveSegment(c->global_id(), now); });
  if (v != nullptr) {
    size_t next = static_cast<size_t>(v->global_id()) + 1;
    be_cursor_ = next == slots_.size() ? 0 : next;
  }
  return v;
}

ScheduleDecision DpWrapScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  if (now >= slice_end_) {
    Replan();
  }

  for (const PlanSegment& seg : PlanOf(pcpu->id())) {
    if (seg.end <= now) {
      continue;
    }
    if (seg.start > now) {
      return Backfill(now, pcpu, seg.start);  // Gap before the next reserved segment.
    }
    // Active reserved segment.
    Vcpu* v = seg.vcpu;
    if (v->running() && v->pcpu() != pcpu) {
      Pcpu* holder = v->pcpu();
      std::span<const PlanSegment> pieces = SegmentsOf(v->global_id());
      if (std::any_of(pieces.begin(), pieces.end(), [&](const PlanSegment& s) {
            return s.pcpu == holder->id() && s.start <= now && now < s.end;
          })) {
        // The plan gives this VCPU wall-clock-overlapping pieces (leftover
        // placement tolerates that) and the holder rightly keeps it, so a
        // re-tickle would spin forever at this instant. Serialize instead:
        // wait for the holder to release.
        return ScheduleDecision{nullptr, std::min(seg.end, holder->run_until())};
      }
      // The earlier piece of this (split) VCPU has not been descheduled yet
      // (its stop event is queued at this same instant), or the holder is on
      // a stale pre-replan grant. Re-tickle both sides.
      holder->RequestReschedule();
      pcpu->RequestReschedule();
      return ScheduleDecision{nullptr, seg.end};
    }
    if (v->runnable() || (v->running() && v->pcpu() == pcpu)) {
      return ScheduleDecision{v, seg.end};
    }
    return Backfill(now, pcpu, seg.end);  // Blocked: re-check at segment end.
  }
  return Backfill(now, pcpu, slice_end_);  // Residual time up to the deadline.
}

ScheduleDecision DpWrapScheduler::Backfill(TimeNs now, Pcpu* pcpu, TimeNs until) {
  Vcpu* be = PickBestEffort(now, pcpu);
  return ScheduleDecision{be, be != nullptr ? std::min(until, now + kBestEffortQuantum) : until};
}

void DpWrapScheduler::VcpuWake(Vcpu* vcpu) {
  TimeNs now = machine_->sim()->Now();
  // How much of this VCPU's reserved time is still ahead in the current
  // slice, and which PCPU serves it next.
  TimeNs remaining_seg = 0;
  const PlanSegment* next_seg = nullptr;
  Slot& slot = slots_[vcpu->global_id()];
  for (const PlanSegment& seg : SegmentsOf(vcpu->global_id())) {
    if (seg.end > now) {
      remaining_seg += seg.end - std::max(seg.start, now);
      if (next_seg == nullptr) {
        next_seg = &seg;
      }
    }
  }
  if (slot.reserved && config_.replan_on_wake) {
    Reservation& res = slot.res;
    Bandwidth bw = EffectiveBw(vcpu->global_id());
    // Replan when the wake finds a substantial part of this slice's share
    // already gone (fully passed, or the wake landed mid-segment): the
    // arrival would otherwise wait most of a period for the next slice.
    // Never replan within min_global_slice of the last plan.
    TimeNs full_share = bw.SliceOf(slice_end_ - slice_start_);
    if (remaining_seg + Us(1) < full_share) {
      TimeNs earliest = slice_start_ + config_.min_global_slice;
      if (now >= earliest) {
        Replan();
        return;
      }
      if (!early_replan_event_.valid()) {
        Arm(kEvEarlyReplan, earliest);
      }
      // The deferral costs this reservation bw * (earliest - now) of supply
      // before its deadline; compensate through the carry accumulator so the
      // deferred slice hands the share back. Repeated wakes inside the same
      // deferral window must not stack compensation past one period of
      // backlog plus this deferral's worth — the bound the auditor checks.
      __int128 comp = static_cast<__int128>(res.carry_ppb) +
                      static_cast<__int128>(bw.ppb()) * (earliest - now);
      __int128 comp_max =
          static_cast<__int128>(bw.ppb()) * (res.period + config_.min_global_slice);
      res.carry_ppb = static_cast<int64_t>(std::min(comp, comp_max));
      // Fall through: use whatever segment time remains until the replan.
    }
  }
  if (next_seg != nullptr) {
    machine_->pcpu(next_seg->pcpu)->RequestReschedule();
    return;
  }
  if (slot.reserved) {
    return;  // replan_on_wake off: served from the next global slice on.
  }
  // Best-effort wake: grab an idle PCPU if there is one (round-robin so
  // simultaneous wakes tickle distinct PCPUs).
  int n = machine_->num_pcpus();
  for (int k = 0; k < n; ++k) {
    Pcpu* p = machine_->pcpu((tickle_cursor_ + k) % n);
    if (!p->online()) {
      continue;  // A dead core looks idle but will never dispatch anyone.
    }
    if (p->idle()) {
      tickle_cursor_ = (p->id() + 1) % n;
      p->RequestReschedule();
      return;
    }
  }
}

void DpWrapScheduler::PcpuCapacityChanged(Pcpu* pcpu) {
  (void)pcpu;
  if (!config_.pcpu_recovery.enabled) {
    return;  // Frozen layout: keep planning against nominal capacity.
  }
  // Admission, the overload watermarks, and the published headroom all key
  // off capacity(), which tracks the surviving effective supply: the
  // renegotiation with the guests rides the existing pressure protocol —
  // demand that no longer fits raises pressure at the next overload scan,
  // guests compress/shed, and the same hysteresis re-inflates after heal.
  ++stats_.capacity_replans;
  ScheduleReplan();
}

TimeNs DpWrapScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

int64_t DpWrapScheduler::ApplyReservation(Vcpu* vcpu, Bandwidth bw, TimeNs period,
                                          bool admit, int64_t reason) {
  if (bw > Bandwidth::One() || bw < Bandwidth::Zero()) {
    return kHypercallInvalid;
  }
  if (bw > Bandwidth::Zero() && period <= 0) {
    return kHypercallInvalid;
  }
  if (!Owns(vcpu)) {
    return kHypercallInvalid;
  }
  int gid = vcpu->global_id();
  Slot& slot = slots_[gid];
  Bandwidth old = slot.reserved ? slot.res.bw : Bandwidth::Zero();
  Bandwidth new_total = total_ - old + bw;
  if (admit) {
    // With the idle tax, admission runs against the *taxed* total: idle
    // over-claims do not block new tenants.
    Bandwidth old_eff = slot.reserved ? EffectiveBw(gid) : Bandwidth::Zero();
    Bandwidth admitted_total = total_effective() - old_eff + bw;
    Bandwidth cap = capacity();
    Bandwidth limit = cap + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
    if (overload_) {
      limit = overload_->AdmissionLimit(limit, cap, reason);
    }
    if (admitted_total > limit) {
      ++stats_.admission_rejections;
      if (overload_) {
        overload_->Rejected(old, bw, reason, machine_->sim()->Now());
      }
      return kHypercallNoBandwidth;
    }
  }
  total_ = new_total;
  TimeNs clamped_period = std::min(period, kMaxGlobalSlice);
  if (bw == Bandwidth::Zero()) {
    if (slot.reserved) {
      Release(gid);
    }
  } else if (slot.reserved) {
    slot.res.bw = bw;
    slot.res.period = clamped_period;
    // Supply-debt earned at the old rate does not survive a shrink: the
    // carry's backlog entitlement is one period at the *current* bandwidth
    // (the same bound take_alloc and the auditor enforce), or a compressed
    // reservation would keep claiming its pre-compression share.
    __int128 carry_max = static_cast<__int128>(EffectiveBw(gid).ppb()) * clamped_period;
    if (static_cast<__int128>(slot.res.carry_ppb) > carry_max) {
      slot.res.carry_ppb = static_cast<int64_t>(carry_max);
    }
  } else {
    slot.res = Reservation{bw, clamped_period};
    slot.reserved = true;
    active_.push_back(gid);
    SizePlanBuffers();
    if (idle_tax_) {
      idle_tax_->Reset(gid);
    }
    if (guest_trust_) {
      guest_trust_->Reset(gid);
    }
  }
  return kHypercallOk;
}

int64_t DpWrapScheduler::Hypercall(Vcpu* caller, const HypercallArgs& args) {
  if (guest_trust_ && caller != nullptr) {
    int64_t trc = guest_trust_->Admit(caller->vm(), args, machine_->sim()->Now());
    if (guest_trust_->TakeReplan()) {
      ScheduleReplan();
    }
    if (trc != kHypercallOk) {
      return trc;
    }
  }
  if (args.vcpu_a == nullptr) {
    return kHypercallInvalid;
  }
  int64_t rc = kHypercallInvalid;
  switch (args.op) {
    case SchedOp::kIncBw:
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/true,
                            args.reason);
      break;
    case SchedOp::kDecBw:
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/false);
      if (rc == kHypercallOk && args.reason == kBwReasonOverloadShed) {
        ++stats_.shed_releases;  // Guest responded to pressure; observability only.
      }
      break;
    case SchedOp::kIncDecBw: {
      if (args.vcpu_b == nullptr) {
        return kHypercallInvalid;
      }
      const Reservation* b = FindReservation(args.vcpu_b);
      Bandwidth old_b = b == nullptr ? Bandwidth::Zero() : b->bw;
      TimeNs old_period_b = b == nullptr ? 0 : b->period;
      int64_t rc_b =
          ApplyReservation(args.vcpu_b, args.bw_b, args.period_b, /*admit=*/false);
      if (rc_b != kHypercallOk) {
        return rc_b;
      }
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/true,
                            args.reason);
      if (rc != kHypercallOk) {
        // Roll the donor back.
        ApplyReservation(args.vcpu_b, old_b, old_period_b, /*admit=*/false);
        return rc;
      }
      break;
    }
  }
  if (rc == kHypercallOk) {
    ScheduleReplan();
  }
  return rc;
}

template <typename Self, typename Io>
void DpWrapScheduler::ScalarFields(Self& self, Io& io) {
  auto& s = self.stats_;
  ckpt::Fields(io, self.slice_start_, self.slice_end_, self.replan_pending_,
               self.be_cursor_, self.tickle_cursor_, self.replans_, s.watchdog_reclaims,
               s.stale_rejections, s.capacity_replans, s.pressure_raises, s.pressure_clears,
               s.shed_releases, s.admission_rejections, s.deadline_lie_rejections,
               s.deadline_floor_clamps, s.replan_budget_trips, s.hypercall_rate_rejections,
               s.bw_thrash_trips, s.quarantines, s.quarantine_releases, s.quarantine_holds);
}

namespace {

// The section's records, each in byte order; save and restore share them.
// Save passes the ids in a record by value, restore the ints it checks.
template <typename Res, typename Io>
void ReservationFields(Res& res, Io& io) {
  ckpt::Fields(io, res.bw, res.period, res.carry_ppb);
}

template <typename Segment, typename Gid, typename Io>
void SegmentFields(Segment& seg, Gid&& gid, Io& io) {
  ckpt::Fields(io, gid, seg.pcpu, seg.start, seg.end);
}

// The opt-in policies' names, in the order their presence flags and records
// follow the planner's record.
constexpr const char* kPolicyNames[] = {"idle_tax", "watchdog", "overload", "guest_trust"};

}  // namespace

// Each fact is written once: one pin per VCPU in global-id order, the
// reservations in layout order (active_), and the plan in emission order
// (emitted_). Restore derives the rest as the live code does: total_ sums
// the reservations, and GroupPlan regroups the plan by PCPU and by VCPU.
void DpWrapScheduler::SaveState(ckpt::Writer& w) const {
  ScalarFields(*this, w);
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    ckpt::Field(w, slot.pin);
  }

  w.U32(static_cast<uint32_t>(active_.size()));
  for (int gid : active_) {
    w.U32(static_cast<uint32_t>(gid));
    ReservationFields(slots_[gid].res, w);
  }

  w.U32(static_cast<uint32_t>(emitted_.size()));
  for (const PlanSegment& seg : emitted_) {
    SegmentFields(seg, seg.vcpu->global_id(), w);
  }

  for (bool present : PolicySet()) {
    w.Bool(present);
  }
  if (idle_tax_) {
    idle_tax_->SaveState(active_, w);
  }
  if (overload_) {
    overload_->SaveState(w);
  }
  if (guest_trust_) {
    guest_trust_->SaveState(active_, w);
  }
}

std::string DpWrapScheduler::RestoreState(ckpt::Reader& r) {
  ScalarFields(*this, r);

  uint32_t n_vcpus = r.U32();
  if (!r.ok() || n_vcpus != slots_.size()) {
    return "dpwrap: VCPU count mismatch (checkpoint has " + std::to_string(n_vcpus) +
           ", scheduler has " + std::to_string(slots_.size()) + ")";
  }

  // Ids, PCPU numbers and cursors come from the image: each is checked
  // before it is used as an index.
  int num_pcpus = static_cast<int>(pcpu_segs_.size());
  if ((be_cursor_ != 0 && be_cursor_ >= slots_.size()) || tickle_cursor_ < 0 ||
      tickle_cursor_ >= num_pcpus) {
    return "dpwrap: round-robin cursors (" + std::to_string(be_cursor_) + ", " +
           std::to_string(tickle_cursor_) + ") out of range for " +
           std::to_string(slots_.size()) + " VCPUs and " + std::to_string(num_pcpus) +
           " PCPUs";
  }
  for (Slot& slot : slots_) {
    ckpt::Field(r, slot.pin);
    if (r.ok() && (slot.pin < -1 || slot.pin >= num_pcpus)) {
      return "dpwrap: affinity of VCPU " + std::to_string(slot.vcpu->global_id()) +
             " names invalid pcpu " + std::to_string(slot.pin);
    }
  }
  auto lookup = [this](int gid) -> Vcpu* {
    return gid >= 0 && static_cast<size_t>(gid) < slots_.size() ? slots_[gid].vcpu : nullptr;
  };

  for (Slot& slot : slots_) {
    slot.reserved = false;
  }
  active_.clear();
  total_ = Bandwidth::Zero();
  uint32_t n_res = r.U32();
  for (uint32_t i = 0; i < n_res && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    if (lookup(gid) == nullptr) {
      return "dpwrap: reservation[" + std::to_string(i) +
             "] references unknown VCPU global id " + std::to_string(gid);
    }
    Slot& slot = slots_[gid];
    if (slot.reserved) {
      return "dpwrap: reservation[" + std::to_string(i) + "] repeats VCPU global id " +
             std::to_string(gid);
    }
    ReservationFields(slot.res, r);
    slot.reserved = true;
    active_.push_back(gid);
    total_ += slot.res.bw;
  }
  SizePlanBuffers();

  emitted_.clear();
  uint32_t n_segs = r.U32();
  for (uint32_t i = 0; i < n_segs && r.ok(); ++i) {
    PlanSegment seg;
    int gid = -1;
    SegmentFields(seg, gid, r);
    seg.vcpu = lookup(gid);
    if (seg.vcpu == nullptr) {
      return "dpwrap: plan segment references unknown VCPU " + std::to_string(gid);
    }
    if (seg.pcpu < 0 || seg.pcpu >= num_pcpus) {
      return "dpwrap: plan segment of VCPU " + std::to_string(gid) + " names invalid pcpu " +
             std::to_string(seg.pcpu);
    }
    emitted_.push_back(seg);
  }
  GroupPlan();

  // The records that follow are read by this scheduler's policies, so the
  // image must hold the same set.
  std::array<bool, 4> have = PolicySet();
  for (size_t i = 0; i < have.size(); ++i) {
    bool present = r.Bool();
    if (r.ok() && present != have[i]) {
      return std::string("dpwrap: the image ") + (present ? "has" : "lacks") + " the " +
             kPolicyNames[i] + " policy record, but this scheduler's config has it " +
             (present ? "off" : "on");
    }
  }
  if (idle_tax_) {
    idle_tax_->RestoreState(active_, r);
  }
  if (overload_) {
    overload_->RestoreState(r);
  }
  if (guest_trust_) {
    std::string err = guest_trust_->RestoreState(active_, machine_->num_vms(), r);
    if (!err.empty()) {
      return err;
    }
  }
  return r.ok() ? "" : "dpwrap: truncated section";
}

std::string DpWrapScheduler::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if (kind < kEvTax || kind > kEvDeferredReplan || payload != 0) {
    return "dpwrap: unknown event kind " + std::to_string(kind) + " payload " +
           std::to_string(payload);
  }
  if (kind < kEvReplan && !PolicySet()[kind - kEvTax]) {  // Kinds 1-4 are the scans.
    return "dpwrap: scan event kind " + std::to_string(kind) + " of the " +
           kPolicyNames[kind - kEvTax] + " policy, which this scheduler's config has off";
  }
  Arm(kind, when);
  return "";
}

std::vector<std::string> DpWrapScheduler::AuditPlan() const {
  std::vector<std::string> violations;
  auto str = [](auto v) { return std::to_string(v); };

  // Bookkeeping: the cached total must equal the sum of the reservations.
  Bandwidth sum;
  for (int gid : active_) {
    sum += slots_[gid].res.bw;
  }
  if (sum != total_) {
    violations.push_back("cached total " + str(total_.ppb()) + " ppb != sum of reservations " +
                         str(sum.ppb()) + " ppb");
  }

  // Conservation. Without the idle tax the admitted raw total must fit in
  // capacity (plus the rounding epsilon). With the tax, admission runs
  // against the taxed total, so the raw total may legitimately overcommit;
  // what must hold instead is taxed <= raw (the tax only ever shrinks).
  // With pcpu_recovery, admitted demand may transiently exceed a freshly
  // degraded capacity until the pressure protocol sheds it — what must hold
  // at every instant is that the *plan* promises no more than the surviving
  // cores can deliver: no segments on offline cores, and the laid-out
  // effective supply within the effective capacity of the slice. Skipped
  // while a replan is pending (the plan is mid-transition at this instant).
  TimeNs slice_len = slice_end_ - slice_start_;
  if (config_.pcpu_recovery.enabled) {
    if (!replan_pending_) {
      __int128 planned_eff = 0;  // ns * ppb.
      for (size_t p = 0; p < pcpu_segs_.size(); ++p) {
        const Pcpu* pc = machine_->pcpu(static_cast<int>(p));
        TimeNs planned = 0;
        for (const PlanSegment& seg : PlanOf(static_cast<int>(p))) {
          planned += seg.end - seg.start;
        }
        if (!pc->online() && planned > 0) {
          violations.push_back("pcpu " + str(p) + " is offline but the plan lays " +
                               str(planned) + " ns onto it");
        } else if (pc->online()) {
          planned_eff += static_cast<__int128>(planned) * pc->speed_ppb();
        }
      }
      __int128 cap_eff = static_cast<__int128>(machine_->EffectiveCapacity().ppb()) * slice_len;
      __int128 slack = static_cast<__int128>(config_.admission_epsilon_ppb) * slice_len +
                       static_cast<__int128>(pcpu_segs_.size()) * Bandwidth::kUnit;
      if (planned_eff > cap_eff + slack) {
        violations.push_back("planned effective supply " +
                             str(static_cast<long long>(planned_eff)) +
                             " ppb*ns exceeds effective capacity " +
                             str(static_cast<long long>(cap_eff)) + " ppb*ns");
      }
    }
  } else if (!idle_tax_) {
    if (total_ > capacity() + Bandwidth::FromPpb(config_.admission_epsilon_ppb)) {
      violations.push_back("reserved total " + str(total_.ppb()) + " ppb exceeds capacity " +
                           str(capacity().ppb()) + " ppb + epsilon " +
                           str(config_.admission_epsilon_ppb) + " ppb");
    }
  } else if (total_effective() > total_) {
    violations.push_back("taxed total " + str(total_effective().ppb()) +
                         " ppb exceeds raw total " + str(total_.ppb()) + " ppb");
  }

  // Carry bounds: non-negative, and at most one period of backlog plus the
  // slack a deferred early replan may add (bounded by min_global_slice).
  for (int gid : active_) {
    const Reservation& res = slots_[gid].res;
    __int128 carry_max = static_cast<__int128>(res.bw.ppb()) *
                         (res.period + config_.min_global_slice);
    if (res.carry_ppb < 0 || static_cast<__int128>(res.carry_ppb) > carry_max) {
      violations.push_back("vcpu " + str(slots_[gid].vcpu->index()) + " carry " +
                           str(res.carry_ppb) + " ppb*ns out of bounds [0, bw*period]");
    }
  }

  // Plan geometry: per-PCPU segments inside the slice, ordered, disjoint.
  for (size_t p = 0; p < pcpu_segs_.size(); ++p) {
    TimeNs prev_end = slice_start_;
    for (const PlanSegment& seg : PlanOf(static_cast<int>(p))) {
      std::string range = "[" + str(seg.start) + ", " + str(seg.end) + ")";
      if (seg.start < slice_start_ || seg.end > slice_end_ || seg.start > seg.end) {
        violations.push_back("pcpu " + str(p) + " segment " + range + " outside slice [" +
                             str(slice_start_) + ", " + str(slice_end_) + ")");
      }
      if (seg.start < prev_end) {
        violations.push_back("pcpu " + str(p) + " segments overlap: " + range +
                             " starts before " + str(prev_end));
      }
      prev_end = seg.end;
    }
  }

  // Per-VCPU supply: the slice allocation cannot exceed the reservation's
  // fluid share of the slice plus one period of carry backlog (+1 ns of
  // rounding). A reservation released mid-slice keeps its planned segments
  // until the next replan, but has nothing left to bound them against.
  for (int gid : active_) {
    TimeNs alloc = 0;
    for (const PlanSegment& seg : SegmentsOf(gid)) {
      const Pcpu* pc = machine_->pcpu(seg.pcpu);
      // Degraded plans hand out wall time; the reservation's promise is in
      // effective ns — compare like with like (identity at full speed).
      bool degraded = config_.pcpu_recovery.enabled && !replan_pending_ && pc->online();
      alloc += degraded ? SpeedWallToWork(seg.end - seg.start, pc->speed_ppb())
                        : seg.end - seg.start;
    }
    TimeNs bound = EffectiveBw(gid).SliceOfCeil(slice_len + slots_[gid].res.period) + 1;
    if (alloc > bound) {
      violations.push_back("vcpu " + str(slots_[gid].vcpu->index()) + " allocated " +
                           str(alloc) + " ns in a " + str(slice_len) + " ns slice, above bound " +
                           str(bound) + " ns");
    }
  }
  return violations;
}

}  // namespace rtvirt
