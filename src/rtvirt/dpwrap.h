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

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/metrics/counters.h"
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
  // Virtual cost model for Table 6: one O(1) VCPU pick, and one global
  // deadline computation per slice costing base + per_log * log2(n_vcpus).
  TimeNs pick_cost = 300;          // ns
  TimeNs replan_cost_base = 800;   // ns
  TimeNs replan_cost_per_log = 200;  // ns
  // Admission tolerance in parts-per-billion. Bandwidths are rounded *up*
  // to whole ppb per reservation, so a task set using exactly 100% of the
  // host can exceed capacity by a few ppb; the tolerance covers that
  // rounding (the planner trims any over-allocation when slicing anyway).
  int64_t admission_epsilon_ppb = 64;

  // Idle tax (paper section 6): untrusted guests may claim more bandwidth
  // than they use. When enabled, each reservation's actual usage is observed
  // per window and its *effective* allocation shrinks towards its usage
  // (never below kTaxMinFactor of the claim, dpwrap.cc); admission is
  // performed against the taxed total, so hoarded-but-idle bandwidth becomes
  // admissible again.
  struct IdleTax {
    bool enabled = false;
    TimeNs window = Sec(1);
  };
  IdleTax idle_tax;

  // Overload pressure (cross-layer back-signal): a periodic scan compares
  // the admitted (effective) total against watermark fractions of capacity
  // and publishes a pressure level into every VM's shared page. Guests with
  // overload control poll it and compress/shed elastic reservations; the
  // hysteresis gap between the watermarks keeps reservations from
  // oscillating. Admission rejections observed since the previous scan also
  // raise pressure (the clearest overload signal there is). A rejected
  // registration's demand is withheld from the published headroom for
  // kAdmissionHold (dpwrap.cc).
  struct Overload {
    bool enabled = false;
    double high_watermark = 0.98;  // Raise pressure at util >= this.
    double low_watermark = 0.85;   // Clear pressure at util <= this.
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

  // Byzantine-guest containment (trust boundary for the cross-layer
  // interface): the paper's protocol has the host *trust* guest-published
  // deadlines and bandwidth requests. When enabled, three defenses keep one
  // adversarial VM from destroying co-resident guarantees:
  //   (1) a deadline sanitizer on shared-page reads — publications already in
  //       the past when written are distrusted and scored; publications whose
  //       horizon at publish time is below the floor (min_global_slice, the
  //       replan-rate bound it protects) are clamped (clamps are
  //       benign-common near period boundaries and are counted, not scored);
  //       a VM whose fresh publications bind the global slice at the floor
  //       more than kMaxFloorBindings times per kTrustRateWindow loses
  //       deadline trust for the window remainder (replan-rate budget);
  //   (2) a per-VM hypercall token bucket returning kHypercallAgain on
  //       exhaustion (the guest channel's retry/degraded machinery already
  //       speaks that protocol), plus INC/DEC oscillation-abuse detection;
  //   (3) a per-VM reputation score with a quarantine state machine: scores
  //       decay every scan; crossing kQuarantineThreshold demotes the VM to
  //       bandwidth-only scheduling (deadline slots ignored, bandwidth raises
  //       admission-held) until kRehabCleanScans consecutive violation-free
  //       scans rehabilitate it (hysteresis, like the overload watermarks).
  // The k* constants are dpwrap.cc's.
  struct GuestTrust {
    bool enabled = false;
    // Token bucket burst per VM (the sustained rate is kHypercallRate).
    int hypercall_burst = 64;
  };
  GuestTrust guest_trust;

  // Watchdog (fault model): periodically reclaims the reservations of
  // crashed VMs (their guests cannot issue DEC_BW anymore — the bandwidth is
  // orphaned until the host takes it back) and optionally distrusts shared-
  // page deadlines that have not been refreshed within freshness_horizon.
  struct Watchdog {
    // Reclaim orphaned reservations of crashed VMs, every
    // kWatchdogScanPeriod (dpwrap.cc).
    bool reclaim_crashed = false;
    // Ignore a published deadline whose last write is older than this when
    // deriving the global deadline; the sporadic worst case (now + period)
    // applies instead. 0 disables the check. Must exceed the longest RTA
    // publication interval (roughly the largest RTA period), otherwise
    // healthy long-period publications get distrusted and over-served.
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
  TimeNs slice_start() const { return slice_start_; }
  // Taxed (effective) total and per-VCPU tax factor; equals the raw values
  // when the idle tax is disabled.
  Bandwidth total_effective() const;
  double TaxFactor(const Vcpu* vcpu) const;
  // Watchdog, PCPU-recovery, overload-pressure and guest_trust counters.
  const DpWrapStats& stats() const { return stats_; }
  bool Quarantined(const Vm* vm) const;
  bool pressure() const { return pressure_; }

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
  std::vector<std::string> AuditIsolation() const;

 private:
  struct Reservation {
    Bandwidth bw;
    TimeNs period = 0;
    // Sub-ns remainder carried between slices so that the cumulative
    // allocation tracks the fluid schedule to within 1 ns over any window.
    int64_t carry_ppb = 0;
    // Idle tax state: observed usage in the current window and the factor
    // currently applied to the claimed bandwidth.
    TimeNs used_in_window = 0;
    double tax_factor = 1.0;
    // Trust sanitizer: publish timestamps already charged, so one bad
    // publication scores once, not once per replan that re-reads the slot.
    TimeNs last_lie_publish = -1;
    TimeNs last_floor_publish = -1;

    Bandwidth EffectiveBw() const {
      return tax_factor >= 1.0
                 ? bw
                 : Bandwidth::FromPpb(static_cast<int64_t>(
                       static_cast<double>(bw.ppb()) * tax_factor));
    }
  };
  struct PlanSegment {
    Vcpu* vcpu = nullptr;
    int pcpu = 0;
    TimeNs start = 0;  // Absolute.
    TimeNs end = 0;    // Absolute.
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
  void TickleAll();
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
  int64_t ApplyReservation(Vcpu* vcpu, Bandwidth bw, TimeNs period, bool admit,
                           int64_t reason = kBwReasonNone);
  // Drops the reservation of slots_[gid] and its place in the layout order.
  void Release(int gid);
  // Grows the plan buffers to what a replan needs once every VCPU holds a
  // reservation.
  void SizePlanBuffers();
  // Periodic idle-tax accounting: adjusts tax factors from observed usage.
  void TaxTick();
  // Periodic watchdog scan: reclaims crashed-VM reservations.
  void WatchdogTick();
  // Periodic overload scan: updates the pressure state from the watermarks
  // and recent admission rejections, publishing it to every VM's page.
  void OverloadTick();

  // ---- Byzantine-guest containment (guest_trust) ----
  // Per-VM trust state: token bucket, rate windows, reputation, quarantine.
  struct VmTrust {
    // Hypercall token bucket.
    double tokens = 0.0;
    TimeNs token_time = 0;
    bool bucket_init = false;
    // Sliding rate window (floor bindings, INC/DEC flips, window distrust).
    TimeNs window_start = 0;
    int floor_bindings = 0;
    int bw_flips = 0;
    int last_bw_dir = 0;  // +1 after INC_BW, -1 after DEC_BW, 0 unknown.
    bool deadlines_distrusted = false;  // Budget tripped; clears on window roll.
    // Reputation / quarantine state machine.
    double score = 0.0;
    bool quarantined = false;
    int clean_scans = 0;
    bool violated_since_scan = false;
    bool tracked = false;  // Touched by a hypercall or replan; checkpointed.
  };
  VmTrust& TrustOf(const Vm* vm);
  void RollTrustWindow(VmTrust& t, TimeNs now);
  // Scores one violation; crossing the threshold quarantines immediately
  // (containment latency is the whole point) and schedules a replan so the
  // attacker's deadline influence ends with this event, not the next scan.
  void TrustViolation(VmTrust& t);
  // Token bucket + oscillation detection + quarantine admission hold; called
  // at the top of Hypercall. kHypercallOk admits the call to the dispatcher.
  int64_t TrustAdmitHypercall(Vcpu* caller, const HypercallArgs& args);
  // Periodic reputation scan: decays scores and rehabilitates quarantined
  // VMs after enough consecutive clean scans.
  void TrustTick();

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

  // Overload-pressure state.
  bool pressure_ = false;
  uint64_t rejections_since_tick_ = 0;   // Admission rejections since last scan.
  // Demand of recently rejected new registrations, withheld from the
  // published headroom until `expires` (FIFO — holds expire in push order).
  struct HeldDemand {
    TimeNs expires = 0;
    Bandwidth bw;
  };
  std::deque<HeldDemand> held_demand_;

  // Byzantine-guest containment state, indexed by Vm::id(); grown on first
  // use, entries never touched stay untracked.
  std::vector<VmTrust> trust_;
};

}  // namespace rtvirt

#endif  // SRC_RTVIRT_DPWRAP_H_
