#include "src/rtvirt/dpwrap.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "src/common/check.h"
#include "src/hv/machine.h"

namespace rtvirt {
namespace {

// Horizon used when no reserved VCPU publishes a deadline.
constexpr TimeNs kMaxGlobalSlice = Ms(100);
// Round-robin quantum for best-effort (non-reserved) VCPUs.
constexpr TimeNs kBestEffortQuantum = Ms(1);
// Idle tax: grant this much above observed usage, and never tax below 10%
// of the claim.
constexpr double kTaxHeadroom = 0.25;
constexpr double kTaxMinFactor = 0.1;
// Overload pressure scan cadence.
constexpr TimeNs kOverloadScanPeriod = Ms(5);
// After a new registration is rejected, its demand is withheld from the
// published headroom for this long: the freed bandwidth is earmarked for the
// retrying newcomer instead of being re-absorbed by guests re-inflating
// compressed reservations. Must exceed the application's admission-retry
// interval to be effective.
constexpr TimeNs kAdmissionHold = Ms(200);
// Guest trust. Replan-rate budget: fresh publications from one VM binding
// the global slice at/below the floor, per kTrustRateWindow.
constexpr TimeNs kTrustRateWindow = Ms(100);
constexpr int kMaxFloorBindings = 128;
// Token bucket: sustained hypercalls/second per VM.
constexpr double kHypercallRate = 2000.0;
// INC_BW/DEC_BW direction flips tolerated per kTrustRateWindow before an
// oscillation-abuse violation is scored.
constexpr int kMaxBwFlips = 32;
// Reputation scan cadence, per-scan score decay factor, the score at which a
// VM is quarantined (each violation adds 1), and how many consecutive clean
// scans rehabilitate a quarantined VM.
constexpr TimeNs kTrustScanPeriod = Ms(10);
constexpr double kScoreDecay = 0.8;
constexpr double kQuarantineThreshold = 8.0;
constexpr int kRehabCleanScans = 20;
// Watchdog scan cadence (crashed-VM reservation reclaim).
constexpr TimeNs kWatchdogScanPeriod = Ms(10);

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

DpWrapScheduler::DpWrapScheduler(DpWrapConfig config) : config_(config) {}

void DpWrapScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  pcpu_segs_.resize(machine->num_pcpus());
  occupied_.resize(machine->num_pcpus());
  speeds_.resize(machine->num_pcpus());
  TimeNs now = machine_->sim()->Now();
  if (config_.idle_tax.enabled) {
    Arm(kEvTax, now + config_.idle_tax.window);
  }
  if (config_.watchdog.reclaim_crashed) {
    Arm(kEvWatchdog, now + kWatchdogScanPeriod);
  }
  if (config_.overload.enabled) {
    Arm(kEvOverload, now + kOverloadScanPeriod);
  }
  if (config_.guest_trust.enabled) {
    Arm(kEvTrust, now + kTrustScanPeriod);
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
  switch (kind) {
    case kEvTax:
      return TaxTick();
    case kEvWatchdog:
      return WatchdogTick();
    case kEvOverload:
      return OverloadTick();
    case kEvTrust:
      return TrustTick();
    case kEvDeferredReplan:
      replan_pending_ = false;
      return Replan();
    default:  // kEvReplan, kEvEarlyReplan.
      return Replan();
  }
}

void DpWrapScheduler::RollTrustWindow(VmTrust& t, TimeNs now) {
  if (now - t.window_start >= kTrustRateWindow) {
    t.window_start = now;
    t.floor_bindings = 0;
    t.bw_flips = 0;
    t.deadlines_distrusted = false;
  }
}

void DpWrapScheduler::TrustViolation(VmTrust& t) {
  t.score += 1.0;
  t.violated_since_scan = true;
  if (!t.quarantined && t.score >= kQuarantineThreshold) {
    t.quarantined = true;
    t.clean_scans = 0;
    ++stats_.quarantines;
    ScheduleReplan();
  }
}

DpWrapScheduler::VmTrust& DpWrapScheduler::TrustOf(const Vm* vm) {
  size_t id = static_cast<size_t>(vm->id());
  if (id >= trust_.size()) {
    trust_.resize(id + 1);
  }
  trust_[id].tracked = true;
  return trust_[id];
}

void DpWrapScheduler::TrustTick() {
  // VM id order: rehabilitation replans must fire in a deterministic
  // sequence.
  for (VmTrust& t : trust_) {
    if (!t.tracked) {
      continue;
    }
    t.score *= kScoreDecay;
    if (t.score < 1e-6) {
      t.score = 0.0;
    }
    if (t.quarantined) {
      // Hysteresis-governed rehabilitation, mirroring the overload
      // watermarks and the PCPU heal path: release only after enough
      // consecutive scans with no violation and a mostly decayed score —
      // a still-attacking VM keeps resetting the counter itself.
      if (!t.violated_since_scan && t.score < kQuarantineThreshold / 2) {
        if (++t.clean_scans >= kRehabCleanScans) {
          t.quarantined = false;
          t.clean_scans = 0;
          t.score = 0.0;
          ++stats_.quarantine_releases;
          ScheduleReplan();
        }
      } else {
        t.clean_scans = 0;
      }
    }
    t.violated_since_scan = false;
  }
  Arm(kEvTrust, machine_->sim()->Now() + kTrustScanPeriod);
}

bool DpWrapScheduler::Quarantined(const Vm* vm) const {
  size_t id = static_cast<size_t>(vm->id());
  return id < trust_.size() && trust_[id].quarantined;
}

int64_t DpWrapScheduler::TrustAdmitHypercall(Vcpu* caller, const HypercallArgs& args) {
  const auto burst = static_cast<double>(config_.guest_trust.hypercall_burst);
  TimeNs now = machine_->sim()->Now();
  VmTrust& t = TrustOf(caller->vm());
  RollTrustWindow(t, now);
  if (!t.bucket_init) {
    t.bucket_init = true;
    t.tokens = burst;
  } else {
    t.tokens = std::min(
        burst, t.tokens + static_cast<double>(now - t.token_time) * kHypercallRate / 1e9);
  }
  t.token_time = now;
  if (t.tokens < 1.0) {
    // Exhausted bucket: the existing retry/degraded-fallback machinery
    // already speaks kHypercallAgain, so a throttled well-behaved guest
    // backs off and recovers while a storm keeps scoring violations.
    ++stats_.hypercall_rate_rejections;
    TrustViolation(t);
    return kHypercallAgain;
  }
  t.tokens -= 1.0;
  // INC/DEC oscillation abuse: a guest thrashing its reservation up and down
  // buys a replan per call without ever holding the bandwidth. Direction
  // flips within the rate window beyond the budget score a violation; the
  // flip counter re-arms so each trip needs a fresh burst.
  int dir = args.op == SchedOp::kIncBw ? 1 : args.op == SchedOp::kDecBw ? -1 : 0;
  if (dir != 0) {
    if (t.last_bw_dir != 0 && dir != t.last_bw_dir &&
        ++t.bw_flips > kMaxBwFlips) {
      t.bw_flips = 0;
      ++stats_.bw_thrash_trips;
      TrustViolation(t);
    }
    t.last_bw_dir = dir;
  }
  if (t.quarantined) {
    // Bandwidth-only scheduling: the VM keeps exactly what it holds. Raises
    // are admission-held until rehabilitation, and even shrinks are frozen —
    // every accepted reservation change forces an immediate replan, so a
    // quarantined guest alternating cheap DEC calls could keep restarting
    // the global slice and starve its neighbors through the quarantine. The
    // held bandwidth is merely wasteful (bounded by what admission already
    // granted); the shrink retries and lands after release.
    ++stats_.quarantine_holds;
    return kHypercallAgain;
  }
  return kHypercallOk;
}

void DpWrapScheduler::OverloadTick() {
  Bandwidth cap = capacity();
  double util = cap.ppb() > 0 ? static_cast<double>(total_effective().ppb()) /
                                    static_cast<double>(cap.ppb())
                              : 0.0;
  if (!pressure_) {
    // Admission rejections are the sharpest overload signal: a guest just
    // asked for bandwidth the host does not have. The watermark catches the
    // creeping case where everything was admitted but nothing is left.
    if (rejections_since_tick_ > 0 || util >= config_.overload.high_watermark) {
      pressure_ = true;
      ++stats_.pressure_raises;
    }
  } else if (util <= config_.overload.low_watermark && rejections_since_tick_ == 0) {
    pressure_ = false;
    ++stats_.pressure_clears;
  }
  rejections_since_tick_ = 0;
  // Remaining admittable bandwidth, published so guest re-inflation can stay
  // below it instead of probing by hypercall (a failed probe would count as
  // an admission rejection and re-raise pressure). Demand of recently
  // rejected registrations is withheld: that bandwidth is earmarked for the
  // retrying newcomers, not for re-inflation — otherwise the re-inflating
  // guests (polling every scan) would always outrace an application retry
  // loop and the newcomer would never get in.
  TimeNs now = machine_->sim()->Now();
  while (!held_demand_.empty() && held_demand_.front().expires <= now) {
    held_demand_.pop_front();
  }
  Bandwidth held;
  for (const HeldDemand& h : held_demand_) {
    held += h.bw;
  }
  Bandwidth limit = cap + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
  // Advertise headroom against the *high watermark*, not the admission
  // limit: room the guests could legally take but that would immediately
  // re-raise pressure (util >= high_watermark) must not be advertised, or
  // resume -> watermark pressure -> shed becomes a steady limit cycle.
  Bandwidth watermark = Bandwidth::FromPpb(static_cast<int64_t>(
      config_.overload.high_watermark * static_cast<double>(cap.ppb())));
  limit = std::min(limit, watermark);
  Bandwidth eff = total_effective() + held;
  int64_t headroom_ppb = eff < limit ? (limit - eff).ppb() : 0;
  // Publish to every VM's page each scan (idempotent; guests poll).
  for (int i = 0; i < machine_->num_vms(); ++i) {
    machine_->vm(i)->shared_page().PublishPressure(pressure_ ? 1 : 0, headroom_ppb);
  }
  Arm(kEvOverload, machine_->sim()->Now() + kOverloadScanPeriod);
}

void DpWrapScheduler::WatchdogTick() {
  // A crashed VM's guest can never issue the DEC_BW that would free its
  // reservations; without the watchdog that bandwidth stays admitted forever
  // and blocks new tenants. Reclaim it host-side.
  bool changed = false;
  for (size_t i = 0; i < active_.size();) {
    int gid = active_[i];
    if (!slots_[gid].vcpu->vm()->crashed()) {
      ++i;
      continue;
    }
    total_ -= slots_[gid].res.bw;
    ++stats_.watchdog_reclaims;
    Release(gid);  // Shifts the next reservation into position i.
    changed = true;
  }
  if (changed) {
    ScheduleReplan();
  }
  Arm(kEvWatchdog, machine_->sim()->Now() + kWatchdogScanPeriod);
}

void DpWrapScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  Slot& slot = slots_[vcpu->global_id()];
  if (slot.reserved) {
    slot.res.used_in_window += ran;
  }
}

void DpWrapScheduler::TaxTick() {
  // Settle in-flight runs so usage is attributed to this window.
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->SettleAccounting();
  }
  double window = static_cast<double>(config_.idle_tax.window);
  bool changed = false;
  for (int gid : active_) {
    Reservation& res = slots_[gid].res;
    double granted = static_cast<double>(res.EffectiveBw().ppb()) / Bandwidth::kUnit * window;
    double u = granted > 0 ? static_cast<double>(res.used_in_window) / granted : 0.0;
    double next =
        std::clamp(res.tax_factor * std::min(u, 1.0) + kTaxHeadroom, kTaxMinFactor, 1.0);
    if (std::abs(next - res.tax_factor) > 1e-3) {
      res.tax_factor = next;
      changed = true;
    }
    res.used_in_window = 0;
  }
  Arm(kEvTax, machine_->sim()->Now() + config_.idle_tax.window);
  if (changed) {
    ScheduleReplan();
  }
}

Bandwidth DpWrapScheduler::total_effective() const {
  if (!config_.idle_tax.enabled) {
    return total_;
  }
  Bandwidth total;
  for (int gid : active_) {
    total += slots_[gid].res.EffectiveBw();
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
  const Reservation* res = FindReservation(vcpu);
  return res == nullptr ? 1.0 : res->tax_factor;
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

void DpWrapScheduler::TickleAll() {
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->RequestReschedule();
  }
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

  slice_start_ = now;
  TimeNs next_gd = now + kMaxGlobalSlice;
  bool trust_on = config_.guest_trust.enabled;
  TimeNs floor = config_.min_global_slice;
  // Global-id order: the trust sanitizer's side effects (a quarantine one
  // VCPU raises is seen by its VM's later VCPUs) follow a fixed sequence.
  for (size_t gid = 0; gid < slots_.size(); ++gid) {
    if (!slots_[gid].reserved) {
      continue;
    }
    Vcpu* v = slots_[gid].vcpu;
    Reservation& res = slots_[gid].res;
    const SharedSchedPage& page = v->vm()->shared_page();
    TimeNs cand = page.next_deadline(v->index());
    bool distrusted = false;
    if (trust_on && cand < kTimeNever) {
      VmTrust& t = TrustOf(v->vm());
      RollTrustWindow(t, now);
      TimeNs published = page.last_publish_time(v->index());
      // A deadline already stale by more than the reservation's own period
      // when it was published is a lie, not lateness: an honest backlogged
      // guest publishes its (slightly) past head deadline under transient
      // overload, but never one a whole period expired — scoring mild
      // staleness would quarantine exactly the victims an attack makes
      // tardy. Score once per publication — the slot value persists across
      // replans and must not be re-counted, or a VM could never
      // rehabilitate after the attack stops. The bogus value itself is
      // neutralized by the sporadic fallback below either way. Publications
      // merely *below the floor* are normal (a completing job publishes its
      // next release, which can be arbitrarily close): clamp + count, no
      // score.
      if (published >= 0 && cand < published - res.period &&
          published != res.last_lie_publish) {
        res.last_lie_publish = published;
        ++stats_.deadline_lie_rejections;
        TrustViolation(t);
      } else if (published >= 0 && cand > now && cand - published < floor) {
        cand = std::max(cand, now + floor);
        ++stats_.deadline_floor_clamps;
      }
      if (t.quarantined || t.deadlines_distrusted) {
        distrusted = true;
      } else if (cand <= now + floor && published >= 0 &&
                 published != res.last_floor_publish) {
        // Replan-rate budget: each *fresh* publication that binds the global
        // slice at the floor spends one of the window's floor bindings. A
        // guest oscillating fast enough to exhaust it is forcing the planner
        // to replan at the maximum rate — distrust its slots for the rest of
        // the window.
        res.last_floor_publish = published;
        if (++t.floor_bindings > kMaxFloorBindings) {
          t.deadlines_distrusted = true;
          ++stats_.replan_budget_trips;
          TrustViolation(t);
          distrusted = true;
        }
      }
    }
    if (!distrusted && config_.watchdog.freshness_horizon > 0 && cand < kTimeNever) {
      // Distrust a deadline the guest has not refreshed within the horizon:
      // the guest may be wedged (or its publication lost), and honoring an
      // ancient promise would let the host under-serve everyone else.
      TimeNs published = page.last_publish_time(v->index());
      if (published < 0 || now - published > config_.watchdog.freshness_horizon) {
        ++stats_.stale_rejections;
        cand = 0;  // Forces the sporadic worst case below.
      }
    }
    if (distrusted) {
      cand = 0;  // Bandwidth-only scheduling: the slot gets the worst case.
    }
    if (cand <= now) {
      // Stale publication: apply the sporadic worst case — the VCPU's RTAs
      // may activate immediately with their minimum period.
      cand = now + res.period;
    }
    next_gd = std::min(next_gd, cand);
  }
  next_gd = std::max(next_gd, now + config_.min_global_slice);
  slice_end_ = next_gd;
  TimeNs slice_len = slice_end_ - slice_start_;

  // Proportional allocations with a per-reservation sub-ns carry, keeping the
  // cumulative supply within 1 ns of the fluid schedule over any window.
  auto take_alloc = [&](Reservation& res, TimeNs cap) {
    __int128 raw =
        static_cast<__int128>(res.EffectiveBw().ppb()) * slice_len + res.carry_ppb;
    TimeNs alloc = std::min(static_cast<TimeNs>(raw / Bandwidth::kUnit), cap);
    // Clipped share stays in the carry (bounded to one period of backlog).
    __int128 carry = raw - static_cast<__int128>(alloc) * Bandwidth::kUnit;
    __int128 carry_max = static_cast<__int128>(res.EffectiveBw().ppb()) * res.period;
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
    Reservation& res = slots_[gid].res;
    int pcpu = slots_[gid].pin;
    if (pcpu < 0 || speeds_[pcpu] <= 0) {
      // A pin to a dead core cannot hold: evacuate into the wrap. The pin
      // itself persists and re-applies on heal.
      items_.push_back(WrapItem{gid, 0});
      continue;
    }
    TimeNs alloc = take_alloc(res, eff_free(pcpu));
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
    item.alloc = take_alloc(slots_[item.id].res, std::min(slice_len, free_total - allocated));
    allocated += item.alloc;
  }
  WrapAround(items_, slice_len, occupied_, speeds_, &wrap_out_);
  for (const WrapSegment& seg : wrap_out_) {
    emit(seg.item_id, seg.pcpu, seg.start, seg.end);
  }
  GroupPlan();
  // Host->guest notification of the slice allocation (Figure 2).
  for (int gid : active_) {
    std::span<const PlanSegment> segs = SegmentsOf(gid);
    if (segs.empty()) {
      continue;
    }
    TimeNs alloc = 0;
    for (const PlanSegment& seg : segs) {
      alloc += seg.end - seg.start;
    }
    Vcpu* v = slots_[gid].vcpu;
    v->vm()->shared_page().PublishAllocation(v->index(), segs.front().start, alloc);
  }

  Arm(kEvReplan, slice_end_);
  TickleAll();
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
  // Round-robin from the cursor, which is always below n (or 0); the scan
  // wraps by comparison.
  size_t n = slots_.size();
  size_t idx = be_cursor_;
  for (size_t i = 0; i < n; ++i) {
    Vcpu* v = slots_[idx].vcpu;
    size_t next = idx + 1 == n ? 0 : idx + 1;
    // Eligible: runnable, or continuing on this PCPU, and not inside its own
    // segment (that segment's PCPU is about to pick it).
    if ((v->runnable() || (v->running() && v->pcpu() == pcpu)) &&
        !HasActiveSegment(static_cast<int>(idx), now)) {
      be_cursor_ = next;
      return v;
    }
    idx = next;
  }
  return nullptr;
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
      // Gap before the next reserved segment: best-effort fill.
      Vcpu* be = PickBestEffort(now, pcpu);
      if (be != nullptr) {
        return ScheduleDecision{be, std::min(seg.start, now + kBestEffortQuantum)};
      }
      return ScheduleDecision{nullptr, seg.start};
    }
    // Active reserved segment.
    Vcpu* v = seg.vcpu;
    if (v->running() && v->pcpu() != pcpu) {
      Pcpu* holder = v->pcpu();
      bool holder_owns = false;
      for (const PlanSegment& s : SegmentsOf(v->global_id())) {
        if (s.pcpu == holder->id() && s.start <= now && now < s.end) {
          holder_owns = true;
          break;
        }
      }
      if (holder_owns) {
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
    // Reserved VCPU is blocked: backfill, but re-check at segment end.
    Vcpu* be = PickBestEffort(now, pcpu);
    if (be != nullptr) {
      return ScheduleDecision{be, std::min(seg.end, now + kBestEffortQuantum)};
    }
    return ScheduleDecision{nullptr, seg.end};
  }
  // Trailing residual time up to the global deadline.
  Vcpu* be = PickBestEffort(now, pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, std::min(slice_end_, now + kBestEffortQuantum)};
  }
  return ScheduleDecision{nullptr, slice_end_};
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
    // Replan when the wake finds a substantial part of this slice's share
    // already gone (fully passed, or the wake landed mid-segment): the
    // arrival would otherwise wait most of a period for the next slice.
    // Never replan within min_global_slice of the last plan.
    TimeNs full_share = res.EffectiveBw().SliceOf(slice_end_ - slice_start_);
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
                      static_cast<__int128>(res.EffectiveBw().ppb()) * (earliest - now);
      __int128 comp_max = static_cast<__int128>(res.EffectiveBw().ppb()) *
                          (res.period + config_.min_global_slice);
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
    Bandwidth old_eff = slot.reserved ? slot.res.EffectiveBw() : Bandwidth::Zero();
    Bandwidth admitted_total = total_effective() - old_eff + bw;
    Bandwidth cap = capacity();
    Bandwidth limit = cap + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
    if (config_.overload.enabled &&
        (reason == kBwReasonReinflate || reason == kBwReasonSloControl)) {
      // Re-inflation and SLO-controller raises are only admitted up to the
      // high watermark; new demand may use the full capacity. Guests gate on
      // the published headroom, but two guests polling in the same scan
      // window can both claim the same advertised room — enforcing the
      // watermark here turns that race into a clean rejection instead of a
      // watermark-pressure/shed cycle.
      limit = std::min(limit, Bandwidth::FromPpb(static_cast<int64_t>(
                                  config_.overload.high_watermark *
                                  static_cast<double>(cap.ppb()))));
    }
    if (admitted_total > limit) {
      ++stats_.admission_rejections;
      // Only *new* RTA demand counts toward pressure. The reason code is the
      // authoritative signal: guests pack several RTAs per VCPU, so a fresh
      // admission usually arrives here as a *raise* of an existing
      // reservation (old != 0), which a registration heuristic would miss.
      // kBwReasonReinflate (a recovery probe) never raises pressure, or the
      // probes and the pressure signal would chase each other in a loop.
      bool new_demand = reason == kBwReasonAdmission ||
                        (reason == kBwReasonNone && old == Bandwidth::Zero());
      if (new_demand) {
        ++rejections_since_tick_;
        if (config_.overload.enabled) {
          // Earmark the rejected *increment*: the published headroom
          // withholds it so re-inflation cannot swallow the bandwidth that
          // guests are about to shed for this newcomer. (Overlapping retries
          // of the same newcomer stack extra holds — conservative,
          // self-expiring.)
          TimeNs now = machine_->sim()->Now();
          while (!held_demand_.empty() && held_demand_.front().expires <= now) {
            held_demand_.pop_front();
          }
          Bandwidth delta = bw > old ? bw - old : Bandwidth::Zero();
          if (delta > Bandwidth::Zero()) {
            held_demand_.push_back(HeldDemand{now + kAdmissionHold, delta});
          }
        }
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
    __int128 carry_max = static_cast<__int128>(slot.res.EffectiveBw().ppb()) * clamped_period;
    if (static_cast<__int128>(slot.res.carry_ppb) > carry_max) {
      slot.res.carry_ppb = static_cast<int64_t>(carry_max);
    }
  } else {
    slot.res = Reservation{};
    slot.res.bw = bw;
    slot.res.period = clamped_period;
    slot.reserved = true;
    active_.push_back(gid);
    SizePlanBuffers();
  }
  return kHypercallOk;
}

int64_t DpWrapScheduler::Hypercall(Vcpu* caller, const HypercallArgs& args) {
  if (config_.guest_trust.enabled && caller != nullptr) {
    int64_t trc = TrustAdmitHypercall(caller, args);
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
               s.stale_rejections, s.capacity_replans, self.pressure_,
               self.rejections_since_tick_, s.pressure_raises, s.pressure_clears,
               s.shed_releases, s.admission_rejections, s.deadline_lie_rejections,
               s.deadline_floor_clamps, s.replan_budget_trips, s.hypercall_rate_rejections,
               s.bw_thrash_trips, s.quarantines, s.quarantine_releases, s.quarantine_holds);
}

namespace {

// The section's records, each in byte order; save and restore share them.
// Save passes the ids in a record by value, restore the ints it checks.
template <typename Res, typename Io>
void ReservationFields(Res& res, Io& io) {
  ckpt::Fields(io, res.bw, res.period, res.carry_ppb, res.used_in_window, res.tax_factor,
               res.last_lie_publish, res.last_floor_publish);
}

template <typename Segment, typename Gid, typename Io>
void SegmentFields(Segment& seg, Gid&& gid, Io& io) {
  ckpt::Fields(io, gid, seg.pcpu, seg.start, seg.end);
}

template <typename Held, typename Io>
void HeldDemandFields(Held& h, Io& io) {
  ckpt::Fields(io, h.expires, h.bw);
}

// last_bw_dir (-1, 0 or +1) is stored plus one.
template <typename Trust, typename Io>
void TrustFields(Trust& t, Io& io) {
  int dir = t.last_bw_dir + 1;
  ckpt::Fields(io, t.tokens, t.token_time, t.bucket_init, t.window_start, t.floor_bindings,
               t.bw_flips, dir, t.deadlines_distrusted, t.score, t.quarantined, t.clean_scans,
               t.violated_since_scan);
  if constexpr (std::is_same_v<Io, ckpt::Reader>) {
    t.last_bw_dir = dir - 1;
  }
}

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

  w.U32(static_cast<uint32_t>(held_demand_.size()));
  for (const HeldDemand& h : held_demand_) {
    HeldDemandFields(h, w);
  }

  w.U32(static_cast<uint32_t>(std::count_if(
      trust_.begin(), trust_.end(), [](const VmTrust& t) { return t.tracked; })));
  for (size_t vm_id = 0; vm_id < trust_.size(); ++vm_id) {
    if (trust_[vm_id].tracked) {
      w.U32(static_cast<uint32_t>(vm_id));
      TrustFields(trust_[vm_id], w);
    }
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

  held_demand_.clear();
  uint32_t n_held = r.U32();
  for (uint32_t i = 0; i < n_held && r.ok(); ++i) {
    HeldDemandFields(held_demand_.emplace_back(), r);
  }

  trust_.clear();
  uint32_t n_trust = r.U32();
  for (uint32_t i = 0; i < n_trust && r.ok(); ++i) {
    int vm_id = static_cast<int>(r.U32());
    if (machine_ == nullptr || vm_id < 0 || vm_id >= machine_->num_vms()) {
      return "dpwrap: trust entry references unknown VM " + std::to_string(vm_id);
    }
    TrustFields(TrustOf(machine_->vm(vm_id)), r);
  }
  return r.ok() ? "" : "dpwrap: truncated section";
}

std::string DpWrapScheduler::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if (kind < kEvTax || kind > kEvDeferredReplan || payload != 0) {
    return "dpwrap: unknown event kind " + std::to_string(kind) + " payload " +
           std::to_string(payload);
  }
  Arm(kind, when);
  return "";
}

std::vector<std::string> DpWrapScheduler::AuditPlan() const {
  std::vector<std::string> violations;
  char buf[256];

  // Bookkeeping: the cached total must equal the sum of the reservations.
  Bandwidth sum;
  for (int gid : active_) {
    sum += slots_[gid].res.bw;
  }
  if (sum != total_) {
    std::snprintf(buf, sizeof(buf),
                  "cached total %lld ppb != sum of reservations %lld ppb",
                  static_cast<long long>(total_.ppb()), static_cast<long long>(sum.ppb()));
    violations.emplace_back(buf);
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
          std::snprintf(buf, sizeof(buf), "pcpu %zu is offline but the plan lays %lld ns onto it",
                        p, static_cast<long long>(planned));
          violations.emplace_back(buf);
        } else if (pc->online()) {
          planned_eff += static_cast<__int128>(planned) * pc->speed_ppb();
        }
      }
      TimeNs len = slice_end_ - slice_start_;
      __int128 cap_eff = static_cast<__int128>(machine_->EffectiveCapacity().ppb()) * len;
      __int128 slack = static_cast<__int128>(config_.admission_epsilon_ppb) * len +
                       static_cast<__int128>(pcpu_segs_.size()) * Bandwidth::kUnit;
      if (planned_eff > cap_eff + slack) {
        std::snprintf(buf, sizeof(buf),
                      "planned effective supply %lld ppb*ns exceeds effective capacity %lld ppb*ns",
                      static_cast<long long>(planned_eff), static_cast<long long>(cap_eff));
        violations.emplace_back(buf);
      }
    }
  } else if (!config_.idle_tax.enabled) {
    if (total_ > capacity() + Bandwidth::FromPpb(config_.admission_epsilon_ppb)) {
      std::snprintf(buf, sizeof(buf),
                    "reserved total %lld ppb exceeds capacity %lld ppb + epsilon %lld ppb",
                    static_cast<long long>(total_.ppb()),
                    static_cast<long long>(capacity().ppb()),
                    static_cast<long long>(config_.admission_epsilon_ppb));
      violations.emplace_back(buf);
    }
  } else if (total_effective() > total_) {
    std::snprintf(buf, sizeof(buf), "taxed total %lld ppb exceeds raw total %lld ppb",
                  static_cast<long long>(total_effective().ppb()),
                  static_cast<long long>(total_.ppb()));
    violations.emplace_back(buf);
  }

  // Carry bounds: non-negative, and at most one period of backlog plus the
  // slack a deferred early replan may add (bounded by min_global_slice).
  for (int gid : active_) {
    const Reservation& res = slots_[gid].res;
    __int128 carry_max = static_cast<__int128>(res.bw.ppb()) *
                         (res.period + config_.min_global_slice);
    if (res.carry_ppb < 0 || static_cast<__int128>(res.carry_ppb) > carry_max) {
      std::snprintf(buf, sizeof(buf), "vcpu %d carry %lld ppb*ns out of bounds [0, bw*period]",
                    slots_[gid].vcpu->index(), static_cast<long long>(res.carry_ppb));
      violations.emplace_back(buf);
    }
  }

  // Plan geometry: per-PCPU segments inside the slice, ordered, disjoint.
  TimeNs slice_len = slice_end_ - slice_start_;
  for (size_t p = 0; p < pcpu_segs_.size(); ++p) {
    TimeNs prev_end = slice_start_;
    for (const PlanSegment& seg : PlanOf(static_cast<int>(p))) {
      if (seg.start < slice_start_ || seg.end > slice_end_ || seg.start > seg.end) {
        std::snprintf(buf, sizeof(buf),
                      "pcpu %zu segment [%lld, %lld) outside slice [%lld, %lld)", p,
                      static_cast<long long>(seg.start), static_cast<long long>(seg.end),
                      static_cast<long long>(slice_start_),
                      static_cast<long long>(slice_end_));
        violations.emplace_back(buf);
      }
      if (seg.start < prev_end) {
        std::snprintf(buf, sizeof(buf),
                      "pcpu %zu segments overlap: [%lld, %lld) starts before %lld", p,
                      static_cast<long long>(seg.start), static_cast<long long>(seg.end),
                      static_cast<long long>(prev_end));
        violations.emplace_back(buf);
      }
      prev_end = seg.end;
    }
  }

  // Per-VCPU supply: the slice allocation cannot exceed the reservation's
  // fluid share of the slice plus one period of carry backlog (+1 ns of
  // rounding). A reservation released mid-slice keeps its planned segments
  // until the next replan, but has nothing left to bound them against.
  for (int gid : active_) {
    const Reservation& res = slots_[gid].res;
    TimeNs alloc = 0;
    for (const PlanSegment& s : SegmentsOf(gid)) {
      TimeNs len = s.end - s.start;
      if (config_.pcpu_recovery.enabled && !replan_pending_) {
        // Degraded plans hand out wall time; the reservation's promise is in
        // effective ns — compare like with like (identity at full speed).
        const Pcpu* pc = machine_->pcpu(s.pcpu);
        if (pc->online()) {
          len = SpeedWallToWork(len, pc->speed_ppb());
        }
      }
      alloc += len;
    }
    TimeNs bound = res.EffectiveBw().SliceOfCeil(slice_len + res.period) + 1;
    if (alloc > bound) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %d allocated %lld ns in a %lld ns slice, above bound %lld ns",
                    slots_[gid].vcpu->index(), static_cast<long long>(alloc),
                    static_cast<long long>(slice_len), static_cast<long long>(bound));
      violations.emplace_back(buf);
    }
  }
  return violations;
}

std::vector<std::string> DpWrapScheduler::AuditIsolation() const {
  std::vector<std::string> violations;
  if (!config_.guest_trust.enabled || replan_pending_) {
    // Nothing to isolate from without the trust boundary, and a plan that is
    // mid-transition cannot be judged.
    return violations;
  }
  if (machine_->EffectiveCapacity() != Bandwidth::Cpus(machine_->num_pcpus())) {
    // Degraded capacity legitimately shrinks everyone's allocation; the
    // pcpu-recovery audit owns that regime.
    return violations;
  }
  // Isolation lower bound: every reservation owned by a well-behaved
  // (non-quarantined, non-crashed) VM must receive at least its fluid share
  // of the current slice, regardless of what the quarantined VM does. The
  // tolerance covers the per-reservation carry trimming (< 1 ns each) plus
  // the floor division of SliceOf.
  TimeNs slice_len = slice_end_ - slice_start_;
  TimeNs tolerance = static_cast<TimeNs>(active_.size()) + 1;
  char buf[256];
  for (int gid : active_) {
    const Vcpu* v = slots_[gid].vcpu;
    if (v->vm()->crashed() || Quarantined(v->vm())) {
      continue;
    }
    TimeNs alloc = 0;
    for (const PlanSegment& s : SegmentsOf(gid)) {
      alloc += s.end - s.start;
    }
    TimeNs bound = slots_[gid].res.EffectiveBw().SliceOf(slice_len);
    if (alloc + tolerance < bound) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %d (well-behaved VM) planned %lld ns of a %lld ns slice, "
                    "below its fluid share %lld ns",
                    v->index(), static_cast<long long>(alloc),
                    static_cast<long long>(slice_len), static_cast<long long>(bound));
      violations.emplace_back(buf);
    }
  }
  return violations;
}

}  // namespace rtvirt
