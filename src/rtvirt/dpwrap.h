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
#include <string>
#include <unordered_map>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/hv/host_scheduler.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class Vm;

struct DpWrapConfig {
  // Lower bound on the interval between global deadlines, bounding the
  // scheduling overhead (paper: 250 us, empirically set for the hardware).
  TimeNs min_global_slice = Us(250);
  // Horizon used when no reserved VCPU publishes a deadline.
  TimeNs max_global_slice = Ms(100);
  // Replan early when a reserved VCPU wakes after its segments in the
  // current slice have passed (dynamic adaptation, section 4.3).
  bool replan_on_wake = true;
  // Round-robin quantum for best-effort (non-reserved) VCPUs.
  TimeNs best_effort_quantum = Ms(1);
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
  // (never below min_factor of the claim); admission is performed against
  // the taxed total, so hoarded-but-idle bandwidth becomes admissible again.
  struct IdleTax {
    bool enabled = false;
    TimeNs window = Sec(1);
    double headroom = 0.25;   // Grant this much above observed usage.
    double min_factor = 0.1;  // Never tax below 10% of the claim.
  };
  IdleTax idle_tax;

  // Overload pressure (cross-layer back-signal): a periodic scan compares
  // the admitted (effective) total against watermark fractions of capacity
  // and publishes a pressure level into every VM's shared page. Guests with
  // overload control poll it and compress/shed elastic reservations; the
  // hysteresis gap between the watermarks keeps reservations from
  // oscillating. Admission rejections observed since the previous scan also
  // raise pressure (the clearest overload signal there is).
  struct Overload {
    bool enabled = false;
    TimeNs scan_period = Ms(5);
    double high_watermark = 0.98;  // Raise pressure at util >= this.
    double low_watermark = 0.85;   // Clear pressure at util <= this.
    // After a new registration is rejected, its demand is withheld from the
    // published headroom for this long: the freed bandwidth is earmarked for
    // the retrying newcomer instead of being re-absorbed by guests
    // re-inflating compressed reservations. Must exceed the application's
    // admission-retry interval to be effective.
    TimeNs admission_hold = Ms(200);
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
  //       horizon at publish time is below the floor are clamped (clamps are
  //       benign-common near period boundaries and are counted, not scored);
  //       a VM whose fresh publications bind the global slice at the floor
  //       more than max_floor_bindings times per rate_window loses deadline
  //       trust for the window remainder (replan-rate budget);
  //   (2) a per-VM hypercall token bucket returning kHypercallAgain on
  //       exhaustion (the guest channel's retry/degraded machinery already
  //       speaks that protocol), plus INC/DEC oscillation-abuse detection;
  //   (3) a per-VM reputation score with a quarantine state machine: scores
  //       decay every scan; crossing quarantine_threshold demotes the VM to
  //       bandwidth-only scheduling (deadline slots ignored, bandwidth raises
  //       admission-held) until rehab_clean_scans consecutive violation-free
  //       scans rehabilitate it (hysteresis, like the overload watermarks).
  struct GuestTrust {
    bool enabled = false;
    // Sanitizer floor on the publish-time horizon of a deadline; 0 derives
    // it from min_global_slice (the replan-rate bound it protects).
    TimeNs deadline_floor = 0;
    // Replan-rate budget: fresh publications from one VM binding the global
    // slice at/below the floor, per rate_window.
    TimeNs rate_window = Ms(100);
    int max_floor_bindings = 128;
    // Token bucket: sustained hypercalls/second and burst, per VM.
    double hypercall_rate = 2000.0;
    int hypercall_burst = 64;
    // INC_BW/DEC_BW direction flips tolerated per rate_window before an
    // oscillation-abuse violation is scored.
    int max_bw_flips = 32;
    // Reputation scan cadence, per-scan score decay factor, the score at
    // which a VM is quarantined (each violation adds 1), and how many
    // consecutive clean scans rehabilitate a quarantined VM.
    TimeNs scan_period = Ms(10);
    double score_decay = 0.8;
    double quarantine_threshold = 8.0;
    int rehab_clean_scans = 20;

    TimeNs floor(TimeNs min_global_slice) const {
      return deadline_floor > 0 ? deadline_floor : min_global_slice;
    }
  };
  GuestTrust guest_trust;

  // Watchdog (fault model): periodically reclaims the reservations of
  // crashed VMs (their guests cannot issue DEC_BW anymore — the bandwidth is
  // orphaned until the host takes it back) and optionally distrusts shared-
  // page deadlines that have not been refreshed within freshness_horizon.
  struct Watchdog {
    // Reclaim orphaned reservations of crashed VMs.
    bool reclaim_crashed = false;
    TimeNs scan_period = Ms(10);
    // Ignore a published deadline whose last write is older than this when
    // deriving the global deadline; the sporadic worst case (now + period)
    // applies instead. 0 disables the check. Must exceed the longest RTA
    // publication interval (roughly the largest RTA period), otherwise
    // healthy long-period publications get distrusted and over-served.
    TimeNs freshness_horizon = 0;

    bool enabled() const { return reclaim_crashed || freshness_horizon > 0; }
  };
  Watchdog watchdog;
};

class DpWrapScheduler : public HostScheduler, public ckpt::Checkpointable {
 public:
  explicit DpWrapScheduler(DpWrapConfig config = {});

  std::string_view name() const override { return "rtvirt-dpwrap"; }
  void Attach(Machine* machine) override;
  void VcpuInserted(Vcpu* vcpu) override;
  void VcpuRemoved(Vcpu* vcpu) override;
  void VcpuWake(Vcpu* vcpu) override;
  void VcpuBlock(Vcpu* vcpu) override;
  ScheduleDecision PickNext(Pcpu* pcpu) override;
  void PcpuCapacityChanged(Pcpu* pcpu) override;
  void AccountRun(Vcpu* vcpu, TimeNs ran) override;
  int64_t Hypercall(Vcpu* caller, const HypercallArgs& args) override;
  TimeNs ScheduleCost(const Pcpu* pcpu) const override;

  // CPU affinity (paper section 6): a reserved VCPU pinned to a PCPU is laid
  // out at the start of that PCPU's chunk every slice and excluded from the
  // m-1 migrating VCPUs. Pass -1 to clear. The combined bandwidth of the
  // VCPUs pinned to one PCPU must not exceed 1.0.
  void SetAffinity(Vcpu* vcpu, int pcpu);
  int Affinity(const Vcpu* vcpu) const;

  // Introspection.
  Bandwidth total_reserved() const { return total_; }
  Bandwidth capacity() const { return capacity_; }
  Bandwidth ReservedBw(const Vcpu* vcpu) const;
  uint64_t replans() const { return replans_; }
  TimeNs slice_start() const { return slice_start_; }
  TimeNs slice_end() const { return slice_end_; }
  // Taxed (effective) total and per-VCPU tax factor; equals the raw values
  // when the idle tax is disabled.
  Bandwidth total_effective() const;
  double TaxFactor(const Vcpu* vcpu) const;
  // Fault-model introspection: reservations reclaimed from crashed VMs and
  // stale publications overridden by the freshness horizon.
  uint64_t watchdog_reclaims() const { return watchdog_reclaims_; }
  uint64_t stale_rejections() const { return stale_rejections_; }
  // Re-plans triggered by PCPU capacity events (pcpu_recovery only).
  uint64_t capacity_replans() const { return capacity_replans_; }
  // Byzantine-guest containment introspection (guest_trust only).
  uint64_t deadline_lie_rejections() const { return deadline_lie_rejections_; }
  uint64_t deadline_floor_clamps() const { return deadline_floor_clamps_; }
  uint64_t replan_budget_trips() const { return replan_budget_trips_; }
  uint64_t hypercall_rate_rejections() const { return hypercall_rate_rejections_; }
  uint64_t bw_thrash_trips() const { return bw_thrash_trips_; }
  uint64_t quarantines() const { return quarantines_; }
  uint64_t quarantine_releases() const { return quarantine_releases_; }
  uint64_t quarantine_holds() const { return quarantine_holds_; }
  bool Quarantined(const Vm* vm) const;
  // Overload-pressure introspection.
  bool pressure() const { return pressure_; }
  uint64_t pressure_raises() const { return pressure_raises_; }
  uint64_t pressure_clears() const { return pressure_clears_; }
  uint64_t shed_releases() const { return shed_releases_; }
  uint64_t admission_rejections() const { return admission_rejections_; }

  // Auditor access: visits every reservation's owner, raw bandwidth, and
  // period (iteration order is unspecified).
  template <typename Fn>
  void ForEachReservation(Fn&& fn) const {
    for (const auto& [v, res] : reservations_) {
      fn(v, res.bw, res.period);
    }
  }

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
    Vcpu* vcpu = nullptr;
    Bandwidth bw;
    TimeNs period = 0;
    uint64_t order = 0;  // Stable layout order: keeps segments at stable offsets.
    // Sub-ns remainder carried between slices so that the cumulative
    // allocation tracks the fluid schedule to within 1 ns over any window.
    int64_t carry_ppb = 0;
    int affinity = -1;  // PCPU this VCPU is pinned to; -1 = may migrate.
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

  // The one schedule path of this scheduler's events (kEv*); keeps the
  // cancel handles of the two replan timers.
  void Arm(uint32_t kind, TimeNs when);
  // Recomputes the global deadline and the per-PCPU plan, effective now.
  void Replan();
  // Coalesced deferred replan (multiple hypercalls in one instant).
  void ScheduleReplan();
  void TickleAll();
  Vcpu* PickBestEffort(TimeNs now, Pcpu* pcpu);
  bool HasActiveSegment(const Vcpu* vcpu, TimeNs now) const;
  int64_t ApplyReservation(Vcpu* vcpu, Bandwidth bw, TimeNs period, bool admit,
                           int64_t reason = kBwReasonNone);
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
  };
  VmTrust& TrustOf(const Vm* vm) { return trust_[vm]; }
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
  Bandwidth capacity_;
  std::unordered_map<const Vcpu*, Reservation> reservations_;
  std::unordered_map<const Vcpu*, int> pending_affinity_;  // Pins set pre-reservation.
  std::vector<Vcpu*> all_vcpus_;
  Bandwidth total_;
  uint64_t next_order_ = 0;

  TimeNs slice_start_ = 0;
  TimeNs slice_end_ = 0;
  std::vector<std::vector<PlanSegment>> pcpu_plan_;                   // Per PCPU.
  std::unordered_map<const Vcpu*, std::vector<PlanSegment>> vcpu_segments_;
  Simulator::EventId replan_event_;
  Simulator::EventId early_replan_event_;
  bool replan_pending_ = false;

  size_t be_cursor_ = 0;
  int tickle_cursor_ = 0;
  uint64_t replans_ = 0;
  uint64_t watchdog_reclaims_ = 0;
  uint64_t stale_rejections_ = 0;
  uint64_t capacity_replans_ = 0;

  // Overload-pressure state.
  bool pressure_ = false;
  int64_t pressure_reason_ = 0;          // kPressure* while pressure_ is set.
  uint64_t rejections_since_tick_ = 0;   // Admission rejections since last scan.
  uint64_t pressure_raises_ = 0;
  uint64_t pressure_clears_ = 0;
  uint64_t shed_releases_ = 0;           // DEC_BW with kBwReasonOverloadShed.
  uint64_t admission_rejections_ = 0;    // Lifetime kHypercallNoBandwidth count.
  // Demand of recently rejected new registrations, withheld from the
  // published headroom until `expires` (FIFO — holds expire in push order).
  struct HeldDemand {
    TimeNs expires = 0;
    Bandwidth bw;
  };
  std::deque<HeldDemand> held_demand_;

  // Byzantine-guest containment state. Only ever iterated through the
  // machine's VM index order (TrustTick); map lookups are by pointer.
  std::unordered_map<const Vm*, VmTrust> trust_;
  uint64_t deadline_lie_rejections_ = 0;   // Past-at-publish publications scored.
  uint64_t deadline_floor_clamps_ = 0;     // Below-floor horizons clamped (not scored).
  uint64_t replan_budget_trips_ = 0;       // Floor-binding budget exhaustions.
  uint64_t hypercall_rate_rejections_ = 0; // Token-bucket kHypercallAgain returns.
  uint64_t bw_thrash_trips_ = 0;           // INC/DEC oscillation violations.
  uint64_t quarantines_ = 0;
  uint64_t quarantine_releases_ = 0;
  uint64_t quarantine_holds_ = 0;          // Bandwidth raises held while quarantined.
};

}  // namespace rtvirt

#endif  // SRC_RTVIRT_DPWRAP_H_
