#include "src/rtvirt/dpwrap.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/hv/machine.h"
#include "src/rtvirt/wrap_layout.h"

namespace rtvirt {

DpWrapScheduler::DpWrapScheduler(DpWrapConfig config) : config_(config) {}

void DpWrapScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  capacity_ = Bandwidth::Cpus(machine->num_pcpus());
  pcpu_plan_.resize(machine->num_pcpus());
  TimeNs now = machine_->sim()->Now();
  if (config_.idle_tax.enabled) {
    Arm(kEvTax, now + config_.idle_tax.window);
  }
  if (config_.watchdog.reclaim_crashed) {
    Arm(kEvWatchdog, now + config_.watchdog.scan_period);
  }
  if (config_.overload.enabled) {
    Arm(kEvOverload, now + config_.overload.scan_period);
  }
  if (config_.guest_trust.enabled) {
    Arm(kEvTrust, now + config_.guest_trust.scan_period);
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
  if (now - t.window_start >= config_.guest_trust.rate_window) {
    t.window_start = now;
    t.floor_bindings = 0;
    t.bw_flips = 0;
    t.deadlines_distrusted = false;
  }
}

void DpWrapScheduler::TrustViolation(VmTrust& t) {
  t.score += 1.0;
  t.violated_since_scan = true;
  if (!t.quarantined && t.score >= config_.guest_trust.quarantine_threshold) {
    t.quarantined = true;
    t.clean_scans = 0;
    ++quarantines_;
    ScheduleReplan();
  }
}

void DpWrapScheduler::TrustTick() {
  const DpWrapConfig::GuestTrust& gt = config_.guest_trust;
  // Machine VM-index order, not map order: rehabilitation replans must fire
  // in a deterministic sequence.
  for (int i = 0; i < machine_->num_vms(); ++i) {
    auto it = trust_.find(machine_->vm(i));
    if (it == trust_.end()) {
      continue;
    }
    VmTrust& t = it->second;
    t.score *= gt.score_decay;
    if (t.score < 1e-6) {
      t.score = 0.0;
    }
    if (t.quarantined) {
      // Hysteresis-governed rehabilitation, mirroring the overload
      // watermarks and the PCPU heal path: release only after enough
      // consecutive scans with no violation and a mostly decayed score —
      // a still-attacking VM keeps resetting the counter itself.
      if (!t.violated_since_scan && t.score < gt.quarantine_threshold / 2) {
        if (++t.clean_scans >= gt.rehab_clean_scans) {
          t.quarantined = false;
          t.clean_scans = 0;
          t.score = 0.0;
          ++quarantine_releases_;
          ScheduleReplan();
        }
      } else {
        t.clean_scans = 0;
      }
    }
    t.violated_since_scan = false;
  }
  Arm(kEvTrust, machine_->sim()->Now() + gt.scan_period);
}

bool DpWrapScheduler::Quarantined(const Vm* vm) const {
  auto it = trust_.find(vm);
  return it != trust_.end() && it->second.quarantined;
}

int64_t DpWrapScheduler::TrustAdmitHypercall(Vcpu* caller, const HypercallArgs& args) {
  const DpWrapConfig::GuestTrust& gt = config_.guest_trust;
  TimeNs now = machine_->sim()->Now();
  VmTrust& t = TrustOf(caller->vm());
  RollTrustWindow(t, now);
  if (!t.bucket_init) {
    t.bucket_init = true;
    t.tokens = static_cast<double>(gt.hypercall_burst);
  } else {
    t.tokens = std::min(static_cast<double>(gt.hypercall_burst),
                        t.tokens + static_cast<double>(now - t.token_time) *
                                       gt.hypercall_rate / 1e9);
  }
  t.token_time = now;
  if (t.tokens < 1.0) {
    // Exhausted bucket: the existing retry/degraded-fallback machinery
    // already speaks kHypercallAgain, so a throttled well-behaved guest
    // backs off and recovers while a storm keeps scoring violations.
    ++hypercall_rate_rejections_;
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
        ++t.bw_flips > gt.max_bw_flips) {
      t.bw_flips = 0;
      ++bw_thrash_trips_;
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
    ++quarantine_holds_;
    return kHypercallAgain;
  }
  return kHypercallOk;
}

void DpWrapScheduler::OverloadTick() {
  double util = capacity_.ppb() > 0
                    ? static_cast<double>(total_effective().ppb()) /
                          static_cast<double>(capacity_.ppb())
                    : 0.0;
  if (!pressure_) {
    // Admission rejections are the sharpest overload signal: a guest just
    // asked for bandwidth the host does not have. The watermark catches the
    // creeping case where everything was admitted but nothing is left.
    if (rejections_since_tick_ > 0 || util >= config_.overload.high_watermark) {
      pressure_ = true;
      pressure_reason_ =
          rejections_since_tick_ > 0 ? kPressureAdmission : kPressureWatermark;
      ++pressure_raises_;
    }
  } else if (util <= config_.overload.low_watermark && rejections_since_tick_ == 0) {
    pressure_ = false;
    pressure_reason_ = kPressureNone;
    ++pressure_clears_;
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
  Bandwidth limit = capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
  // Advertise headroom against the *high watermark*, not the admission
  // limit: room the guests could legally take but that would immediately
  // re-raise pressure (util >= high_watermark) must not be advertised, or
  // resume -> watermark pressure -> shed becomes a steady limit cycle.
  Bandwidth watermark = Bandwidth::FromPpb(static_cast<int64_t>(
      config_.overload.high_watermark * static_cast<double>(capacity_.ppb())));
  limit = std::min(limit, watermark);
  Bandwidth eff = total_effective() + held;
  int64_t headroom_ppb = eff < limit ? (limit - eff).ppb() : 0;
  // Publish to every VM's page each scan (idempotent; guests poll).
  for (int i = 0; i < machine_->num_vms(); ++i) {
    machine_->vm(i)->shared_page().PublishPressure(pressure_ ? 1 : 0, pressure_reason_,
                                                   headroom_ppb);
  }
  Arm(kEvOverload, machine_->sim()->Now() + config_.overload.scan_period);
}

void DpWrapScheduler::WatchdogTick() {
  // A crashed VM's guest can never issue the DEC_BW that would free its
  // reservations; without the watchdog that bandwidth stays admitted forever
  // and blocks new tenants. Reclaim it host-side.
  bool changed = false;
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    if (it->first->vm()->crashed()) {
      total_ -= it->second.bw;
      ++watchdog_reclaims_;
      it = reservations_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) {
    ScheduleReplan();
  }
  Arm(kEvWatchdog, machine_->sim()->Now() + config_.watchdog.scan_period);
}

void DpWrapScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  auto it = reservations_.find(vcpu);
  if (it != reservations_.end()) {
    it->second.used_in_window += ran;
  }
}

void DpWrapScheduler::TaxTick() {
  // Settle in-flight runs so usage is attributed to this window.
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->SettleAccounting();
  }
  double window = static_cast<double>(config_.idle_tax.window);
  bool changed = false;
  for (auto& [v, res] : reservations_) {
    double granted = static_cast<double>(res.EffectiveBw().ppb()) / Bandwidth::kUnit * window;
    double u = granted > 0 ? static_cast<double>(res.used_in_window) / granted : 0.0;
    double next = std::clamp(res.tax_factor * std::min(u, 1.0) + config_.idle_tax.headroom,
                             config_.idle_tax.min_factor, 1.0);
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
  for (const auto& [v, res] : reservations_) {
    total += res.EffectiveBw();
  }
  return total;
}

double DpWrapScheduler::TaxFactor(const Vcpu* vcpu) const {
  auto it = reservations_.find(vcpu);
  return it == reservations_.end() ? 1.0 : it->second.tax_factor;
}

void DpWrapScheduler::VcpuInserted(Vcpu* vcpu) { all_vcpus_.push_back(vcpu); }

void DpWrapScheduler::VcpuRemoved(Vcpu* vcpu) {
  all_vcpus_.erase(std::remove(all_vcpus_.begin(), all_vcpus_.end(), vcpu), all_vcpus_.end());
  auto it = reservations_.find(vcpu);
  if (it != reservations_.end()) {
    total_ -= it->second.bw;
    reservations_.erase(it);
    ScheduleReplan();
  }
  vcpu_segments_.erase(vcpu);
}

void DpWrapScheduler::SetAffinity(Vcpu* vcpu, int pcpu) {
  assert(pcpu >= -1 && pcpu < machine_->num_pcpus());
  // Persist the pin across reservation lifetimes (an RTA may unregister and
  // re-register; the VM's cache-locality preference does not change).
  pending_affinity_[vcpu] = pcpu;
  auto it = reservations_.find(vcpu);
  if (it != reservations_.end()) {
    it->second.affinity = pcpu;
    ScheduleReplan();
  }
}

int DpWrapScheduler::Affinity(const Vcpu* vcpu) const {
  auto it = reservations_.find(vcpu);
  if (it != reservations_.end()) {
    return it->second.affinity;
  }
  auto pending = pending_affinity_.find(vcpu);
  return pending == pending_affinity_.end() ? -1 : pending->second;
}

Bandwidth DpWrapScheduler::ReservedBw(const Vcpu* vcpu) const {
  auto it = reservations_.find(vcpu);
  return it == reservations_.end() ? Bandwidth::Zero() : it->second.bw;
}

bool DpWrapScheduler::HasActiveSegment(const Vcpu* vcpu, TimeNs now) const {
  auto it = vcpu_segments_.find(vcpu);
  if (it == vcpu_segments_.end()) {
    return false;
  }
  for (const PlanSegment& seg : it->second) {
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
  for (size_t k = reservations_.size(); k > 1; k >>= 1) {
    cost += config_.replan_cost_per_log;
  }
  machine_->mutable_overhead().schedule_time += cost;

  slice_start_ = now;
  TimeNs next_gd = now + config_.max_global_slice;
  bool trust_on = config_.guest_trust.enabled;
  TimeNs floor = config_.guest_trust.floor(config_.min_global_slice);
  for (auto& [v, res] : reservations_) {
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
        ++deadline_lie_rejections_;
        TrustViolation(t);
      } else if (published >= 0 && cand > now && cand - published < floor) {
        cand = std::max(cand, now + floor);
        ++deadline_floor_clamps_;
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
        if (++t.floor_bindings > config_.guest_trust.max_floor_bindings) {
          t.deadlines_distrusted = true;
          ++replan_budget_trips_;
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
        ++stale_rejections_;
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

  // Proportional split of the global slice, laid out in stable order so a
  // VCPU's segment offsets stay put across slices unless reservations change.
  std::vector<Reservation*> ordered;
  ordered.reserve(reservations_.size());
  for (auto& [v, res] : reservations_) {
    ordered.push_back(&res);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Reservation* a, const Reservation* b) { return a->order < b->order; });

  // Proportional allocations with a per-reservation sub-ns carry, keeping the
  // cumulative supply within 1 ns of the fluid schedule over any window.
  auto take_alloc = [&](Reservation* res, TimeNs cap) {
    __int128 raw =
        static_cast<__int128>(res->EffectiveBw().ppb()) * slice_len + res->carry_ppb;
    TimeNs alloc = std::min(static_cast<TimeNs>(raw / Bandwidth::kUnit), cap);
    // Clipped share stays in the carry (bounded to one period of backlog).
    __int128 carry = raw - static_cast<__int128>(alloc) * Bandwidth::kUnit;
    __int128 carry_max = static_cast<__int128>(res->EffectiveBw().ppb()) * res->period;
    res->carry_ppb = static_cast<int64_t>(std::min(carry, carry_max));
    return alloc;
  };

  for (auto& plan : pcpu_plan_) {
    plan.clear();
  }
  vcpu_segments_.clear();
  auto emit = [&](Vcpu* v, int pcpu, TimeNs start, TimeNs end) {
    PlanSegment ps{v, pcpu, slice_start_ + start, slice_start_ + end};
    pcpu_plan_[pcpu].push_back(ps);
    vcpu_segments_[v].push_back(ps);
  };

  // Degraded machines (pcpu_recovery only) take the heterogeneous layout
  // path below; a healthy machine always takes the exact nominal path.
  bool degraded = false;
  if (config_.pcpu_recovery.enabled) {
    for (int k = 0; k < machine_->num_pcpus(); ++k) {
      const Pcpu* pc = machine_->pcpu(k);
      if (!pc->online() || pc->speed_ppb() != Bandwidth::kUnit) {
        degraded = true;
        break;
      }
    }
  }

  std::vector<TimeNs> occupied(machine_->num_pcpus(), 0);
  std::vector<Reservation*> wrapped;
  wrapped.reserve(ordered.size());
  if (!degraded) {
    // Affinity-pinned reservations first, at the head of their PCPU's chunk:
    // they never migrate and never split (paper section 6).
    for (Reservation* res : ordered) {
      if (res->affinity < 0) {
        wrapped.push_back(res);
        continue;
      }
      int pcpu = res->affinity;
      TimeNs alloc = take_alloc(res, slice_len - occupied[pcpu]);
      if (alloc > 0) {
        emit(res->vcpu, pcpu, occupied[pcpu], occupied[pcpu] + alloc);
        occupied[pcpu] += alloc;
      }
    }

    // Everything else wraps into the remaining space (McNaughton).
    TimeNs free_total = 0;
    for (TimeNs occ : occupied) {
      free_total += slice_len - occ;
    }
    std::vector<WrapItem> items;
    items.reserve(wrapped.size());
    TimeNs allocated = 0;
    for (size_t i = 0; i < wrapped.size(); ++i) {
      // The carries can overshoot capacity by < n ns; trim the tail.
      TimeNs alloc = take_alloc(wrapped[i], std::min(slice_len, free_total - allocated));
      allocated += alloc;
      items.push_back(WrapItem{static_cast<int>(i), alloc});
    }
    std::vector<WrapSegment> segments = WrapAroundFrom(items, slice_len, occupied);
    for (const WrapSegment& seg : segments) {
      emit(wrapped[seg.item_id]->vcpu, seg.pcpu, seg.start, seg.end);
    }
  } else {
    // Degraded layout: plan in *effective* (full-speed-equivalent) ns
    // against the surviving cores, then stretch back to wall-clock segments.
    // take_alloc stays in effective ns, so the carry accumulators keep
    // tracking the fluid schedule across healthy and degraded slices alike.
    std::vector<int64_t> speeds(machine_->num_pcpus(), 0);
    for (int k = 0; k < machine_->num_pcpus(); ++k) {
      const Pcpu* pc = machine_->pcpu(k);
      speeds[k] = pc->online() ? pc->speed_ppb() : 0;
    }
    auto eff_free = [&](int k) -> TimeNs {
      if (speeds[k] <= 0 || occupied[k] >= slice_len) {
        return 0;
      }
      return SpeedWallToWork(slice_len - occupied[k], speeds[k]);
    };
    for (Reservation* res : ordered) {
      int pcpu = res->affinity;
      if (pcpu < 0 || speeds[pcpu] <= 0) {
        // A pin to a dead core cannot hold: evacuate into the wrap. The pin
        // itself persists (res->affinity untouched) and re-applies on heal.
        wrapped.push_back(res);
        continue;
      }
      TimeNs alloc = take_alloc(res, eff_free(pcpu));
      if (alloc > 0) {
        TimeNs wall = SpeedWorkToWall(alloc, speeds[pcpu]);
        emit(res->vcpu, pcpu, occupied[pcpu], occupied[pcpu] + wall);
        occupied[pcpu] += wall;
      }
    }
    TimeNs free_total = 0;
    for (int k = 0; k < machine_->num_pcpus(); ++k) {
      free_total += eff_free(k);
    }
    std::vector<WrapItem> items;
    items.reserve(wrapped.size());
    TimeNs allocated = 0;
    for (size_t i = 0; i < wrapped.size(); ++i) {
      TimeNs alloc = take_alloc(wrapped[i], std::min(slice_len, free_total - allocated));
      allocated += alloc;
      items.push_back(WrapItem{static_cast<int>(i), alloc});
    }
    std::vector<WrapSegment> segments =
        WrapAroundDegraded(items, slice_len, occupied, speeds);
    for (const WrapSegment& seg : segments) {
      emit(wrapped[seg.item_id]->vcpu, seg.pcpu, seg.start, seg.end);
    }
  }
  // Host->guest notification of the slice allocation (Figure 2).
  for (const auto& [v, segs] : vcpu_segments_) {
    TimeNs alloc = 0;
    for (const PlanSegment& s : segs) {
      alloc += s.end - s.start;
    }
    v->vm()->shared_page().PublishAllocation(v->index(), segs.front().start, alloc);
  }

  Arm(kEvReplan, slice_end_);
  TickleAll();
}

Vcpu* DpWrapScheduler::PickBestEffort(TimeNs now, Pcpu* pcpu) {
  size_t n = all_vcpus_.size();
  for (size_t i = 0; i < n; ++i) {
    Vcpu* v = all_vcpus_[(be_cursor_ + i) % n];
    bool continuing = v->running() && v->pcpu() == pcpu;
    if (!v->runnable() && !continuing) {
      continue;
    }
    if (HasActiveSegment(v, now)) {
      continue;  // Its own segment's PCPU is about to pick it.
    }
    be_cursor_ = (be_cursor_ + i + 1) % n;
    return v;
  }
  return nullptr;
}

ScheduleDecision DpWrapScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  if (now >= slice_end_) {
    Replan();
  }

  const std::vector<PlanSegment>& plan = pcpu_plan_[pcpu->id()];
  for (const PlanSegment& seg : plan) {
    if (seg.end <= now) {
      continue;
    }
    if (seg.start > now) {
      // Gap before the next reserved segment: best-effort fill.
      Vcpu* be = PickBestEffort(now, pcpu);
      if (be != nullptr) {
        return ScheduleDecision{be, std::min(seg.start, now + config_.best_effort_quantum)};
      }
      return ScheduleDecision{nullptr, seg.start};
    }
    // Active reserved segment.
    Vcpu* v = seg.vcpu;
    if (v->running() && v->pcpu() != pcpu) {
      Pcpu* holder = v->pcpu();
      bool holder_owns = false;
      auto own = vcpu_segments_.find(v);
      if (own != vcpu_segments_.end()) {
        for (const PlanSegment& s : own->second) {
          if (s.pcpu == holder->id() && s.start <= now && now < s.end) {
            holder_owns = true;
            break;
          }
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
      return ScheduleDecision{be, std::min(seg.end, now + config_.best_effort_quantum)};
    }
    return ScheduleDecision{nullptr, seg.end};
  }
  // Trailing residual time up to the global deadline.
  Vcpu* be = PickBestEffort(now, pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, std::min(slice_end_, now + config_.best_effort_quantum)};
  }
  return ScheduleDecision{nullptr, slice_end_};
}

void DpWrapScheduler::VcpuWake(Vcpu* vcpu) {
  TimeNs now = machine_->sim()->Now();
  // How much of this VCPU's reserved time is still ahead in the current
  // slice, and which PCPU serves it next.
  TimeNs remaining_seg = 0;
  const PlanSegment* next_seg = nullptr;
  auto it = vcpu_segments_.find(vcpu);
  if (it != vcpu_segments_.end()) {
    for (const PlanSegment& seg : it->second) {
      if (seg.end > now) {
        remaining_seg += seg.end - std::max(seg.start, now);
        if (next_seg == nullptr) {
          next_seg = &seg;
        }
      }
    }
  }
  auto res = reservations_.find(vcpu);
  if (res != reservations_.end() && config_.replan_on_wake) {
    // Replan when the wake finds a substantial part of this slice's share
    // already gone (fully passed, or the wake landed mid-segment): the
    // arrival would otherwise wait most of a period for the next slice.
    // Never replan within min_global_slice of the last plan.
    TimeNs full_share = res->second.EffectiveBw().SliceOf(slice_end_ - slice_start_);
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
      __int128 comp = static_cast<__int128>(res->second.carry_ppb) +
                      static_cast<__int128>(res->second.EffectiveBw().ppb()) *
                          (earliest - now);
      __int128 comp_max =
          static_cast<__int128>(res->second.EffectiveBw().ppb()) *
          (res->second.period + config_.min_global_slice);
      res->second.carry_ppb = static_cast<int64_t>(std::min(comp, comp_max));
      // Fall through: use whatever segment time remains until the replan.
    }
  }
  if (next_seg != nullptr) {
    machine_->pcpu(next_seg->pcpu)->RequestReschedule();
    return;
  }
  if (res != reservations_.end()) {
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

void DpWrapScheduler::VcpuBlock(Vcpu* vcpu) { (void)vcpu; }

void DpWrapScheduler::PcpuCapacityChanged(Pcpu* pcpu) {
  (void)pcpu;
  if (!config_.pcpu_recovery.enabled) {
    return;  // Frozen layout: keep planning against nominal capacity.
  }
  // Admission, the overload watermarks, and the published headroom all key
  // off capacity_; once it tracks the surviving effective supply, the
  // renegotiation with the guests rides the existing pressure protocol —
  // demand that no longer fits raises pressure at the next overload scan,
  // guests compress/shed, and the same hysteresis re-inflates after heal.
  capacity_ = machine_->EffectiveCapacity();
  ++capacity_replans_;
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
  auto it = reservations_.find(vcpu);
  Bandwidth old = it == reservations_.end() ? Bandwidth::Zero() : it->second.bw;
  Bandwidth new_total = total_ - old + bw;
  if (admit) {
    // With the idle tax, admission runs against the *taxed* total: idle
    // over-claims do not block new tenants.
    Bandwidth old_eff =
        it == reservations_.end() ? Bandwidth::Zero() : it->second.EffectiveBw();
    Bandwidth admitted_total = total_effective() - old_eff + bw;
    Bandwidth limit = capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
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
                                  static_cast<double>(capacity_.ppb()))));
    }
    if (admitted_total > limit) {
      ++admission_rejections_;
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
            held_demand_.push_back(
                HeldDemand{now + config_.overload.admission_hold, delta});
          }
        }
      }
      return kHypercallNoBandwidth;
    }
  }
  total_ = new_total;
  TimeNs clamped_period = std::min(period, config_.max_global_slice);
  if (bw == Bandwidth::Zero()) {
    if (it != reservations_.end()) {
      reservations_.erase(it);
    }
  } else if (it != reservations_.end()) {
    it->second.bw = bw;
    it->second.period = clamped_period;
    // Supply-debt earned at the old rate does not survive a shrink: the
    // carry's backlog entitlement is one period at the *current* bandwidth
    // (the same bound take_alloc and the auditor enforce), or a compressed
    // reservation would keep claiming its pre-compression share.
    __int128 carry_max =
        static_cast<__int128>(it->second.EffectiveBw().ppb()) * clamped_period;
    if (static_cast<__int128>(it->second.carry_ppb) > carry_max) {
      it->second.carry_ppb = static_cast<int64_t>(carry_max);
    }
  } else {
    Reservation res;
    res.vcpu = vcpu;
    res.bw = bw;
    res.period = clamped_period;
    res.order = next_order_++;
    auto pending = pending_affinity_.find(vcpu);
    if (pending != pending_affinity_.end()) {
      res.affinity = pending->second;
    }
    reservations_[vcpu] = res;
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
        ++shed_releases_;  // Guest responded to pressure; observability only.
      }
      break;
    case SchedOp::kIncDecBw: {
      if (args.vcpu_b == nullptr) {
        return kHypercallInvalid;
      }
      auto itb = reservations_.find(args.vcpu_b);
      Bandwidth old_b = itb == reservations_.end() ? Bandwidth::Zero() : itb->second.bw;
      TimeNs old_period_b = itb == reservations_.end() ? 0 : itb->second.period;
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

void DpWrapScheduler::SaveState(ckpt::Writer& w) const {
  w.I64(capacity_.ppb());
  w.I64(total_.ppb());
  w.U64(next_order_);
  w.I64(slice_start_);
  w.I64(slice_end_);
  w.Bool(replan_pending_);
  w.U64(be_cursor_);
  w.U32(static_cast<uint32_t>(tickle_cursor_));
  w.U64(replans_);
  w.U64(watchdog_reclaims_);
  w.U64(stale_rejections_);
  w.U64(capacity_replans_);
  w.Bool(pressure_);
  w.I64(pressure_reason_);
  w.U64(rejections_since_tick_);
  w.U64(pressure_raises_);
  w.U64(pressure_clears_);
  w.U64(shed_releases_);
  w.U64(admission_rejections_);
  w.U64(deadline_lie_rejections_);
  w.U64(deadline_floor_clamps_);
  w.U64(replan_budget_trips_);
  w.U64(hypercall_rate_rejections_);
  w.U64(bw_thrash_trips_);
  w.U64(quarantines_);
  w.U64(quarantine_releases_);
  w.U64(quarantine_holds_);

  // VCPU insertion order drives the best-effort round-robin; serialize the
  // global-id sequence so a restored scheduler validates it saw the same one.
  w.U32(static_cast<uint32_t>(all_vcpus_.size()));
  for (const Vcpu* v : all_vcpus_) {
    w.U32(static_cast<uint32_t>(v->global_id()));
  }

  // Pointer-keyed maps are serialized in id order so the byte stream (and
  // hence the divergence digest) is independent of hash-table layout.
  std::vector<std::pair<const Vcpu*, const Reservation*>> res_sorted;
  res_sorted.reserve(reservations_.size());
  for (const auto& [v, res] : reservations_) {
    res_sorted.push_back({v, &res});
  }
  std::sort(res_sorted.begin(), res_sorted.end(), [](const auto& a, const auto& b) {
    return a.first->global_id() < b.first->global_id();
  });
  w.U32(static_cast<uint32_t>(res_sorted.size()));
  for (const auto& [v, res] : res_sorted) {
    w.U32(static_cast<uint32_t>(v->global_id()));
    w.I64(res->bw.ppb());
    w.I64(res->period);
    w.U64(res->order);
    w.I64(res->carry_ppb);
    w.U32(static_cast<uint32_t>(res->affinity));
    w.I64(res->used_in_window);
    w.F64(res->tax_factor);
    w.I64(res->last_lie_publish);
    w.I64(res->last_floor_publish);
  }

  std::vector<std::pair<int, int>> pins;
  pins.reserve(pending_affinity_.size());
  for (const auto& [v, pin] : pending_affinity_) {
    pins.push_back({v->global_id(), pin});
  }
  std::sort(pins.begin(), pins.end());
  w.U32(static_cast<uint32_t>(pins.size()));
  for (const auto& [gid, pin] : pins) {
    w.U32(static_cast<uint32_t>(gid));
    w.U32(static_cast<uint32_t>(pin));
  }

  auto save_segment = [&w](const PlanSegment& seg) {
    w.U32(static_cast<uint32_t>(seg.vcpu->global_id()));
    w.U32(static_cast<uint32_t>(seg.pcpu));
    w.I64(seg.start);
    w.I64(seg.end);
  };
  w.U32(static_cast<uint32_t>(pcpu_plan_.size()));
  for (const auto& plan : pcpu_plan_) {
    w.U32(static_cast<uint32_t>(plan.size()));
    for (const PlanSegment& seg : plan) {
      save_segment(seg);
    }
  }
  std::vector<std::pair<const Vcpu*, const std::vector<PlanSegment>*>> segs_sorted;
  segs_sorted.reserve(vcpu_segments_.size());
  for (const auto& [v, segs] : vcpu_segments_) {
    segs_sorted.push_back({v, &segs});
  }
  std::sort(segs_sorted.begin(), segs_sorted.end(), [](const auto& a, const auto& b) {
    return a.first->global_id() < b.first->global_id();
  });
  w.U32(static_cast<uint32_t>(segs_sorted.size()));
  for (const auto& [v, segs] : segs_sorted) {
    w.U32(static_cast<uint32_t>(v->global_id()));
    w.U32(static_cast<uint32_t>(segs->size()));
    for (const PlanSegment& seg : *segs) {
      save_segment(seg);
    }
  }

  w.U32(static_cast<uint32_t>(held_demand_.size()));
  for (const HeldDemand& h : held_demand_) {
    w.I64(h.expires);
    w.I64(h.bw.ppb());
  }

  std::vector<std::pair<const Vm*, const VmTrust*>> trust_sorted;
  trust_sorted.reserve(trust_.size());
  for (const auto& [vm, t] : trust_) {
    trust_sorted.push_back({vm, &t});
  }
  std::sort(trust_sorted.begin(), trust_sorted.end(),
            [](const auto& a, const auto& b) { return a.first->id() < b.first->id(); });
  w.U32(static_cast<uint32_t>(trust_sorted.size()));
  for (const auto& [vm, t] : trust_sorted) {
    w.U32(static_cast<uint32_t>(vm->id()));
    w.F64(t->tokens);
    w.I64(t->token_time);
    w.Bool(t->bucket_init);
    w.I64(t->window_start);
    w.U32(static_cast<uint32_t>(t->floor_bindings));
    w.U32(static_cast<uint32_t>(t->bw_flips));
    w.U32(static_cast<uint32_t>(t->last_bw_dir + 1));
    w.Bool(t->deadlines_distrusted);
    w.F64(t->score);
    w.Bool(t->quarantined);
    w.U32(static_cast<uint32_t>(t->clean_scans));
    w.Bool(t->violated_since_scan);
  }
}

std::string DpWrapScheduler::RestoreState(ckpt::Reader& r) {
  capacity_ = Bandwidth::FromPpb(r.I64());
  total_ = Bandwidth::FromPpb(r.I64());
  next_order_ = r.U64();
  slice_start_ = r.I64();
  slice_end_ = r.I64();
  replan_pending_ = r.Bool();
  be_cursor_ = r.U64();
  tickle_cursor_ = static_cast<int>(r.U32());
  replans_ = r.U64();
  watchdog_reclaims_ = r.U64();
  stale_rejections_ = r.U64();
  capacity_replans_ = r.U64();
  pressure_ = r.Bool();
  pressure_reason_ = r.I64();
  rejections_since_tick_ = r.U64();
  pressure_raises_ = r.U64();
  pressure_clears_ = r.U64();
  shed_releases_ = r.U64();
  admission_rejections_ = r.U64();
  deadline_lie_rejections_ = r.U64();
  deadline_floor_clamps_ = r.U64();
  replan_budget_trips_ = r.U64();
  hypercall_rate_rejections_ = r.U64();
  bw_thrash_trips_ = r.U64();
  quarantines_ = r.U64();
  quarantine_releases_ = r.U64();
  quarantine_holds_ = r.U64();

  uint32_t n_vcpus = r.U32();
  if (!r.ok() || n_vcpus != all_vcpus_.size()) {
    return "dpwrap: VCPU insertion-order mismatch (checkpoint has " +
           std::to_string(n_vcpus) + ", scheduler has " +
           std::to_string(all_vcpus_.size()) + ")";
  }
  for (size_t i = 0; i < all_vcpus_.size(); ++i) {
    int gid = static_cast<int>(r.U32());
    if (gid != all_vcpus_[i]->global_id()) {
      return "dpwrap: VCPU insertion order diverges at position " + std::to_string(i);
    }
  }

  auto lookup = [this](int gid) -> Vcpu* {
    for (Vcpu* v : all_vcpus_) {
      if (v->global_id() == gid) {
        return v;
      }
    }
    return nullptr;
  };

  reservations_.clear();
  uint32_t n_res = r.U32();
  for (uint32_t i = 0; i < n_res && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    Vcpu* v = lookup(gid);
    if (v == nullptr) {
      return "dpwrap: reservation[" + std::to_string(i) +
             "] references unknown VCPU global id " + std::to_string(gid);
    }
    Reservation res;
    res.vcpu = v;
    res.bw = Bandwidth::FromPpb(r.I64());
    res.period = r.I64();
    res.order = r.U64();
    res.carry_ppb = r.I64();
    res.affinity = static_cast<int>(r.U32());
    res.used_in_window = r.I64();
    res.tax_factor = r.F64();
    res.last_lie_publish = r.I64();
    res.last_floor_publish = r.I64();
    reservations_[v] = res;
  }

  pending_affinity_.clear();
  uint32_t n_pins = r.U32();
  for (uint32_t i = 0; i < n_pins && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    int pin = static_cast<int>(r.U32());
    Vcpu* v = lookup(gid);
    if (v == nullptr) {
      return "dpwrap: pending affinity references unknown VCPU " + std::to_string(gid);
    }
    pending_affinity_[v] = pin;
  }

  auto load_segment = [&r, &lookup](PlanSegment* seg) -> bool {
    int gid = static_cast<int>(r.U32());
    seg->vcpu = lookup(gid);
    seg->pcpu = static_cast<int>(r.U32());
    seg->start = r.I64();
    seg->end = r.I64();
    return seg->vcpu != nullptr;
  };
  uint32_t n_plans = r.U32();
  if (!r.ok() || n_plans != pcpu_plan_.size()) {
    return "dpwrap: PCPU plan count mismatch";
  }
  for (auto& plan : pcpu_plan_) {
    plan.clear();
    uint32_t n_segs = r.U32();
    for (uint32_t i = 0; i < n_segs && r.ok(); ++i) {
      PlanSegment seg;
      if (!load_segment(&seg)) {
        return "dpwrap: plan segment references unknown VCPU";
      }
      plan.push_back(seg);
    }
  }
  vcpu_segments_.clear();
  uint32_t n_vseg = r.U32();
  for (uint32_t i = 0; i < n_vseg && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    Vcpu* v = lookup(gid);
    if (v == nullptr) {
      return "dpwrap: segment map references unknown VCPU " + std::to_string(gid);
    }
    uint32_t n_segs = r.U32();
    std::vector<PlanSegment>& segs = vcpu_segments_[v];
    for (uint32_t k = 0; k < n_segs && r.ok(); ++k) {
      PlanSegment seg;
      if (!load_segment(&seg)) {
        return "dpwrap: segment map entry references unknown VCPU";
      }
      segs.push_back(seg);
    }
  }

  held_demand_.clear();
  uint32_t n_held = r.U32();
  for (uint32_t i = 0; i < n_held && r.ok(); ++i) {
    HeldDemand h;
    h.expires = r.I64();
    h.bw = Bandwidth::FromPpb(r.I64());
    held_demand_.push_back(h);
  }

  trust_.clear();
  uint32_t n_trust = r.U32();
  for (uint32_t i = 0; i < n_trust && r.ok(); ++i) {
    int vm_id = static_cast<int>(r.U32());
    if (machine_ == nullptr || vm_id < 0 || vm_id >= machine_->num_vms()) {
      return "dpwrap: trust entry references unknown VM " + std::to_string(vm_id);
    }
    VmTrust t;
    t.tokens = r.F64();
    t.token_time = r.I64();
    t.bucket_init = r.Bool();
    t.window_start = r.I64();
    t.floor_bindings = static_cast<int>(r.U32());
    t.bw_flips = static_cast<int>(r.U32());
    t.last_bw_dir = static_cast<int>(r.U32()) - 1;
    t.deadlines_distrusted = r.Bool();
    t.score = r.F64();
    t.quarantined = r.Bool();
    t.clean_scans = static_cast<int>(r.U32());
    t.violated_since_scan = r.Bool();
    trust_[machine_->vm(vm_id)] = t;
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
  for (const auto& [v, res] : reservations_) {
    sum += res.bw;
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
      for (size_t p = 0; p < pcpu_plan_.size(); ++p) {
        const Pcpu* pc = machine_->pcpu(static_cast<int>(p));
        TimeNs planned = 0;
        for (const PlanSegment& seg : pcpu_plan_[p]) {
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
                       static_cast<__int128>(pcpu_plan_.size()) * Bandwidth::kUnit;
      if (planned_eff > cap_eff + slack) {
        std::snprintf(buf, sizeof(buf),
                      "planned effective supply %lld ppb*ns exceeds effective capacity %lld ppb*ns",
                      static_cast<long long>(planned_eff), static_cast<long long>(cap_eff));
        violations.emplace_back(buf);
      }
    }
  } else if (!config_.idle_tax.enabled) {
    if (total_ > capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb)) {
      std::snprintf(buf, sizeof(buf),
                    "reserved total %lld ppb exceeds capacity %lld ppb + epsilon %lld ppb",
                    static_cast<long long>(total_.ppb()),
                    static_cast<long long>(capacity_.ppb()),
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
  for (const auto& [v, res] : reservations_) {
    __int128 carry_max = static_cast<__int128>(res.bw.ppb()) *
                         (res.period + config_.min_global_slice);
    if (res.carry_ppb < 0 || static_cast<__int128>(res.carry_ppb) > carry_max) {
      std::snprintf(buf, sizeof(buf), "vcpu %d carry %lld ppb*ns out of bounds [0, bw*period]",
                    v->index(), static_cast<long long>(res.carry_ppb));
      violations.emplace_back(buf);
    }
  }

  // Plan geometry: per-PCPU segments inside the slice, ordered, disjoint.
  TimeNs slice_len = slice_end_ - slice_start_;
  for (size_t p = 0; p < pcpu_plan_.size(); ++p) {
    TimeNs prev_end = slice_start_;
    for (const PlanSegment& seg : pcpu_plan_[p]) {
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
  // rounding).
  for (const auto& [v, segs] : vcpu_segments_) {
    auto it = reservations_.find(v);
    if (it == reservations_.end()) {
      // A reservation released mid-slice keeps its planned segments until
      // the next replan; nothing to bound it against.
      continue;
    }
    TimeNs alloc = 0;
    for (const PlanSegment& s : segs) {
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
    TimeNs bound = it->second.EffectiveBw().SliceOfCeil(slice_len + it->second.period) + 1;
    if (alloc > bound) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %d allocated %lld ns in a %lld ns slice, above bound %lld ns",
                    v->index(), static_cast<long long>(alloc),
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
  for (int k = 0; k < machine_->num_pcpus(); ++k) {
    const Pcpu* pc = machine_->pcpu(k);
    if (!pc->online() || pc->speed_ppb() != Bandwidth::kUnit) {
      // Degraded capacity legitimately shrinks everyone's allocation; the
      // pcpu-recovery audit owns that regime.
      return violations;
    }
  }
  // Isolation lower bound: every reservation owned by a well-behaved
  // (non-quarantined, non-crashed) VM must receive at least its fluid share
  // of the current slice, regardless of what the quarantined VM does. The
  // tolerance covers the per-reservation carry trimming (< 1 ns each) plus
  // the floor division of SliceOf.
  TimeNs slice_len = slice_end_ - slice_start_;
  TimeNs tolerance = static_cast<TimeNs>(reservations_.size()) + 1;
  char buf[256];
  for (const auto& [v, res] : reservations_) {
    if (v->vm()->crashed() || Quarantined(v->vm())) {
      continue;
    }
    TimeNs alloc = 0;
    auto segs = vcpu_segments_.find(v);
    if (segs != vcpu_segments_.end()) {
      for (const PlanSegment& s : segs->second) {
        alloc += s.end - s.start;
      }
    }
    TimeNs bound = res.EffectiveBw().SliceOf(slice_len);
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
