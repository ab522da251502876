// RTVirt's host-level DP-WRAP scheduler (paper section 3.3).
//
// VCPUs with sched_rtvirt() reservations are scheduled with deadline
// partitioning: the host computes the next global deadline as the earliest
// next-deadline published (via shared memory) by any reserved VCPU, splits
// the global slice between consecutive global deadlines among the reserved
// VCPUs proportionally to their bandwidths, and lays the allocations onto
// PCPUs with McNaughton's wrap-around — at most m-1 migrations per slice.
// Remaining time runs best-effort VCPUs round-robin, which is how non-RTA
// VMs and background work receive the system's residual bandwidth.

#ifndef SRC_RTVIRT_DPWRAP_H_
#define SRC_RTVIRT_DPWRAP_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/metrics/counters.h"
#include "src/rtvirt/dpwrap_policies.h"
#include "src/rtvirt/wrap_layout.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class Vm;

struct DpWrapConfig {
  // Lower bound on the interval between global deadlines, bounding the
  // scheduling overhead (paper: 250 us, empirically set for the hardware).
  TimeNs min_global_slice = Us(250);
  // Replan early when a reserved VCPU wakes after its segments in the
  // current slice have passed (dynamic adaptation, section 4.3).
  bool replan_on_wake = true;
  // Virtual cost model for Table 6: one O(1) VCPU pick (the simulator's
  // pick walks the machine's runnable index, so it matches up to one step
  // per 64 VCPUs), and one global deadline computation per slice costing
  // base + per_log * log2(n_vcpus).
  TimeNs pick_cost = 300;          // ns
  TimeNs replan_cost_base = 800;   // ns
  TimeNs replan_cost_per_log = 200;  // ns
  // Admission tolerance in parts-per-billion. Bandwidths are rounded *up*
  // to whole ppb per reservation, so a task set using exactly 100% of the
  // host can exceed capacity by a few ppb; the tolerance covers that
  // rounding (the planner trims any over-allocation when slicing anyway).
  int64_t admission_epsilon_ppb = 64;

  // The opt-in policies (dpwrap_policies.h): each is off by default.
  // Idle tax: each reservation's effective bandwidth shrinks towards its
  // observed use per `window`.
  struct IdleTax {
    bool enabled = false;
    TimeNs window = Sec(1);
  };
  IdleTax idle_tax;

  // Overload pressure: the host publishes a pressure level and headroom
  // into every VM's shared page; pressure clears at util <= low_watermark.
  struct Overload {
    bool enabled = false;
    double low_watermark = 0.85;
  };
  Overload overload;

  // PCPU fault recovery (cross-layer capacity renegotiation): when enabled,
  // Machine::SetPcpuOnline / SetPcpuSpeed events re-plan the DP-WRAP layout
  // across the surviving *effective* capacity (offline cores get no
  // segments; throttled cores get wall-clock-stretched ones), and admission
  // plus the overload watermarks run against the degraded capacity — so a
  // failure that leaves total demand unfittable raises pressure through the
  // ordinary overload protocol and guests compress/shed, with the same
  // hysteresis reversing everything on re-online. When disabled (the
  // default) capacity events are ignored: the frozen layout keeps planning
  // against nominal capacity and whatever lands on dead or slowed cores is
  // simply lost (the no-protection baseline).
  struct PcpuRecovery {
    bool enabled = false;
  };
  PcpuRecovery pcpu_recovery;

  // Guest trust: deadline sanitizer, hypercall rate limiting and
  // quarantine, the host's defenses against a Byzantine guest.
  struct GuestTrust {
    bool enabled = false;
  };
  GuestTrust guest_trust;

  // Crashed-VM watchdog: reclaim_crashed scans for crashed VMs'
  // reservations; a published deadline whose last write is older than
  // freshness_horizon (0: no check) is distrusted. The horizon must exceed
  // the longest RTA publication interval (roughly the largest RTA period).
  struct Watchdog {
    bool reclaim_crashed = false;
    TimeNs freshness_horizon = 0;
  };
  Watchdog watchdog;
};

class DpWrapScheduler : public HostScheduler, public ckpt::Checkpointable {
 public:
  explicit DpWrapScheduler(DpWrapConfig config = {});

  std::string_view name() const override { return "rtvirt-dpwrap"; }
  void Attach(Machine* machine) override;
  void VcpuInserted(Vcpu* vcpu) override;
  void VcpuWake(Vcpu* vcpu) override;
  ScheduleDecision PickNext(Pcpu* pcpu) override;
  void PcpuCapacityChanged(Pcpu* pcpu) override;
  void AccountRun(Vcpu* vcpu, TimeNs ran) override;
  int64_t Hypercall(Vcpu* caller, const HypercallArgs& args) override;
  TimeNs ScheduleCost(const Pcpu* pcpu) const override;

  // CPU affinity (paper section 6): a reserved VCPU pinned to a PCPU is laid
  // out at the start of that PCPU's chunk every slice and excluded from the
  // m-1 migrating VCPUs. Pass -1 to clear; any other pcpu outside
  // [0, num_pcpus) is fatal. The combined bandwidth of the VCPUs pinned to
  // one PCPU must not exceed 1.0.
  void SetAffinity(Vcpu* vcpu, int pcpu);
  int Affinity(const Vcpu* vcpu) const;

  // Introspection.
  Bandwidth total_reserved() const { return total_; }
  // What admission and the overload watermarks plan against: the machine's
  // effective capacity with pcpu_recovery, else its nominal one.
  Bandwidth capacity() const;
  Bandwidth ReservedBw(const Vcpu* vcpu) const;
  uint64_t replans() const { return replans_; }
  // Taxed (effective) total and per-VCPU tax factor; equals the raw values
  // when the idle tax is disabled.
  Bandwidth total_effective() const;
  double TaxFactor(const Vcpu* vcpu) const;
  // Watchdog, PCPU-recovery, overload-pressure and guest_trust counters.
  const DpWrapStats& stats() const { return stats_; }
  bool Quarantined(const Vm* vm) const {
    return guest_trust_ && guest_trust_->Quarantined(vm);
  }
  bool pressure() const { return overload_ && overload_->pressure(); }

  // ---- Checkpoint support (src/checkpoint) ----
  static constexpr const char* kCkptSection = "dpwrap";
  enum EventKind : uint32_t {
    kEvTax = 1,
    kEvWatchdog = 2,
    kEvOverload = 3,
    kEvTrust = 4,
    kEvReplan = 5,          // Slice-end replan timer.
    kEvEarlyReplan = 6,     // Deferred wake-triggered replan.
    kEvDeferredReplan = 7,  // Coalesced After(0) replan (replan_pending_).
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

  // One piece of the current plan: `vcpu` runs on `pcpu` over [start, end).
  struct PlanSegment {
    Vcpu* vcpu = nullptr;
    int pcpu = 0;
    TimeNs start = 0;  // Absolute.
    TimeNs end = 0;    // Absolute.
  };
  // The current plan, read-only: the global slice [start, end) and its
  // pieces in emission order (pinned reservations first, then the wrap).
  struct PlanView {
    TimeNs start = 0;
    TimeNs end = 0;
    std::span<const PlanSegment> segments;
  };
  PlanView plan() const { return {slice_start_, slice_end_, emitted_}; }

  // Self-check of the scheduler's bookkeeping and of the current plan
  // (segments in bounds and non-overlapping, per-VCPU supply within the
  // reservation plus carry backlog, carries bounded, totals consistent).
  // Returns human-readable violation descriptions; empty when consistent.
  std::vector<std::string> AuditPlan() const;

  // Isolation invariant (guest_trust only): every reservation owned by a
  // non-quarantined, non-crashed VM receives at least its fluid share of the
  // current slice — a quarantined (or any other) VM's behavior must never
  // depress a well-behaved VM's planned allocation. Complements AuditPlan's
  // upper bound. Empty when the knob is off, a replan is pending, or the
  // machine is degraded (capacity shortfalls are the pressure protocol's
  // business, not an isolation question).
  std::vector<std::string> AuditIsolation() const {
    return guest_trust_ ? guest_trust_->AuditIsolation(*this) : std::vector<std::string>{};
  }

 private:
  friend class IdleTax;
  friend class CrashWatchdog;
  friend class GuestTrust;

  struct Reservation {
    Bandwidth bw;
    TimeNs period = 0;
    // Sub-ns remainder carried between slices so that the cumulative
    // allocation tracks the fluid schedule to within 1 ns over any window.
    int64_t carry_ppb = 0;
  };
  // One PCPU's or one VCPU's run of the grouped plan (pcpu_plan_ or
  // vcpu_plan_): [begin, begin + count).
  struct Range {
    int begin = 0;
    int count = 0;
  };
  // Everything the scheduler keeps per VCPU, indexed by Vcpu::global_id().
  struct Slot {
    Vcpu* vcpu = nullptr;
    bool reserved = false;
    Reservation res;  // Meaningful while `reserved`.
    // The PCPU this VCPU is pinned to (SetAffinity), -1 = may migrate. It
    // outlives reservations: an RTA may unregister and re-register, and the
    // VM's cache-locality preference does not change.
    int pin = -1;
    Range segs;  // The VCPU's pieces of the current plan, in vcpu_plan_.
  };

  // The one schedule path of this scheduler's events (kEv*); keeps the
  // cancel handles of the two replan timers.
  void Arm(uint32_t kind, TimeNs when);
  // The checkpoint section's leading scalars and counters, in byte order;
  // SaveState and RestoreState both run this one list.
  template <typename Self, typename Io>
  static void ScalarFields(Self& self, Io& io);
  // Recomputes the global deadline and the per-PCPU plan, effective now.
  void Replan();
  // Groups emitted_ by PCPU and by VCPU into pcpu_plan_ and vcpu_plan_;
  // Replan and RestoreState both derive the two groupings here.
  void GroupPlan();
  // Coalesced deferred replan (multiple hypercalls in one instant).
  void ScheduleReplan();
  // True for a VCPU handed to this scheduler through VcpuInserted; its state
  // is slots_[vcpu->global_id()].
  bool Owns(const Vcpu* vcpu) const;
  // The VCPU's reservation; nullptr if it has none or is not owned.
  const Reservation* FindReservation(const Vcpu* vcpu) const;
  // The current plan's pieces on a PCPU (in start order) and of a VCPU (in
  // emission order).
  std::span<const PlanSegment> PlanOf(int pcpu) const {
    return {pcpu_plan_.data() + pcpu_segs_[pcpu].begin,
            static_cast<size_t>(pcpu_segs_[pcpu].count)};
  }
  std::span<const PlanSegment> SegmentsOf(int gid) const {
    return {vcpu_plan_.data() + slots_[gid].segs.begin,
            static_cast<size_t>(slots_[gid].segs.count)};
  }
  Vcpu* PickBestEffort(TimeNs now, Pcpu* pcpu);
  bool HasActiveSegment(int gid, TimeNs now) const;
  // A best-effort VCPU for `pcpu` until `until`, at most one quantum, or idle.
  ScheduleDecision Backfill(TimeNs now, Pcpu* pcpu, TimeNs until);
  int64_t ApplyReservation(Vcpu* vcpu, Bandwidth bw, TimeNs period, bool admit,
                           int64_t reason = kBwReasonNone);
  // Drops the reservation of slots_[gid] and its place in the layout order.
  void Release(int gid);
  // Grows the plan buffers to what a replan needs once every VCPU holds a
  // reservation.
  void SizePlanBuffers();
  // Which opt-in policies this scheduler holds, in checkpoint order.
  std::array<bool, 4> PolicySet() const {
    return {idle_tax_.has_value(), watchdog_.has_value(), overload_.has_value(),
            guest_trust_.has_value()};
  }
  // The reservation's bandwidth after the idle tax, if any.
  Bandwidth EffectiveBw(int gid) const {
    Bandwidth bw = slots_[gid].res.bw;
    return idle_tax_ ? idle_tax_->Apply(gid, bw) : bw;
  }

  DpWrapConfig config_;
  // Indexed by Vcpu::global_id(), which the machine hands out densely in
  // VcpuInserted order; also the best-effort round-robin order. A slot is
  // plain data, so adding VCPUs only copies.
  std::vector<Slot> slots_;
  // Reserved global ids in layout order: appended on creation, so segments
  // keep stable offsets across slices.
  std::vector<int> active_;
  Bandwidth total_;  // Sum of the reservations' bw.

  TimeNs slice_start_ = 0;
  TimeNs slice_end_ = 0;
  // The current plan twice, grouped from emitted_ by PCPU and by VCPU, each
  // group in emission order; pcpu_segs_ and Slot::segs locate the groups.
  std::vector<PlanSegment> pcpu_plan_;
  std::vector<Range> pcpu_segs_;
  std::vector<PlanSegment> vcpu_plan_;
  // Replan scratch, kept across slices. These and the plans are sized when
  // a reservation is added (SizePlanBuffers), so a replan allocates nothing.
  std::vector<PlanSegment> emitted_;  // The plan in emission order.
  std::vector<TimeNs> occupied_;  // Per PCPU.
  std::vector<int64_t> speeds_;   // Per PCPU planning speed (see Replan).
  std::vector<WrapItem> items_;   // Wrapped reservations; id = global id.
  std::vector<WrapSegment> wrap_out_;
  Simulator::EventId replan_event_;
  Simulator::EventId early_replan_event_;
  bool replan_pending_ = false;

  size_t be_cursor_ = 0;
  int tickle_cursor_ = 0;
  uint64_t replans_ = 0;
  DpWrapStats stats_;

  // The opt-in policies, present when their DpWrapConfig sub-struct
  // enables them.
  std::optional<IdleTax> idle_tax_;
  std::optional<CrashWatchdog> watchdog_;
  std::optional<OverloadPressure> overload_;
  std::optional<GuestTrust> guest_trust_;
};

}  // namespace rtvirt

#endif  // SRC_RTVIRT_DPWRAP_H_
