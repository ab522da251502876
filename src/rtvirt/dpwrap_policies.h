// The four opt-in policies around RTVirt's DP-WRAP planner (dpwrap.h), one
// .cc each. DpWrapScheduler holds each as an optional member built from its
// DpWrapConfig sub-struct and calls it at fixed points: hypercall entry,
// admission, the per-VCPU deadline read in Replan, AccountRun and the
// policy's scan event. A policy owns its constants, its state and its
// checkpoint record (after the planner's, in the dpwrap section) and counts
// into the planner's DpWrapStats; the planner acts on what it returns.

#ifndef SRC_RTVIRT_DPWRAP_POLICIES_H_
#define SRC_RTVIRT_DPWRAP_POLICIES_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/hv/hypercall.h"
#include "src/metrics/counters.h"

namespace rtvirt {

class DpWrapScheduler;
class Machine;
class Vm;

// Idle tax (paper section 6): untrusted guests may claim more bandwidth than
// they use. Each reservation's use is observed per window and its effective
// bandwidth shrinks towards it; admission runs against the taxed total, so
// hoarded but idle bandwidth becomes admissible again.
class IdleTax {
 public:
  explicit IdleTax(TimeNs window) : window_(window) {}
  TimeNs window() const { return window_; }

  // A reservation created for VCPU `gid` starts untaxed.
  void Reset(int gid) {
    by_gid_.resize(std::max(by_gid_.size(), static_cast<size_t>(gid) + 1));
    by_gid_[gid] = Entry{};
  }
  void Charge(int gid, TimeNs ran) { by_gid_[gid].used += ran; }
  double factor(int gid) const { return by_gid_[gid].factor; }
  // The claim `bw` of VCPU gid's reservation, taxed.
  Bandwidth Apply(int gid, Bandwidth bw) const {
    double f = by_gid_[gid].factor;
    return f >= 1.0 ? bw
                    : Bandwidth::FromPpb(static_cast<int64_t>(static_cast<double>(bw.ppb()) * f));
  }
  // One window: moves each reservation's factor towards its use. True if one
  // moved.
  bool Scan(const DpWrapScheduler& s);

  // One record per reservation, in the planner's layout order `active`.
  void SaveState(std::span<const int> active, ckpt::Writer& w) const;
  void RestoreState(std::span<const int> active, ckpt::Reader& r);

 private:
  struct Entry {
    TimeNs used = 0;  // Run time in the current window.
    double factor = 1.0;
  };
  TimeNs window_;
  std::vector<Entry> by_gid_;  // Indexed by Vcpu::global_id().
};

// Crashed-VM watchdog (fault model): a scan reclaims the reservations of
// crashed VMs, whose guests can never issue the DEC_BW, and a freshness
// filter distrusts a published deadline not rewritten within the horizon.
class CrashWatchdog {
 public:
  static constexpr TimeNs kScanPeriod = Ms(10);

  CrashWatchdog(bool reclaim, TimeNs freshness_horizon, DpWrapStats* stats)
      : reclaim_(reclaim), horizon_(freshness_horizon), stats_(stats) {}
  bool reclaims() const { return reclaim_; }

  // The scan: drops every reservation of a crashed VM. True if one was.
  bool Reclaim(DpWrapScheduler& s) const;
  // False for a slot last written at `published` (-1: never) longer than the
  // horizon (0: none) before `now`.
  bool Fresh(TimeNs published, TimeNs now) const;

 private:
  bool reclaim_;
  TimeNs horizon_;
  DpWrapStats* stats_;
};

// Overload pressure (cross-layer back-signal): a scan compares the admitted
// effective total with the watermarks and publishes a pressure level and the
// admittable headroom into every VM's shared page, where guests with
// overload control compress or shed elastic reservations. Rejections of new
// demand since the last scan also raise pressure, and a rejected increment
// is withheld from the headroom for a while.
class OverloadPressure {
 public:
  static constexpr TimeNs kScanPeriod = Ms(5);

  OverloadPressure(double low_watermark, DpWrapStats* stats)
      : low_watermark_(low_watermark), stats_(stats) {}
  bool pressure() const { return pressure_; }

  // The admission limit of a raise tagged `reason` on capacity `cap`.
  Bandwidth AdmissionLimit(Bandwidth limit, Bandwidth cap, int64_t reason) const;
  // A raise from `old` to `bw` tagged `reason` was refused.
  void Rejected(Bandwidth old, Bandwidth bw, int64_t reason, TimeNs now);
  // The scan, with the admitted effective `total` and the admission `limit`.
  void Scan(Machine* machine, Bandwidth cap, Bandwidth total, Bandwidth limit);

  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  struct HeldDemand {
    TimeNs expires = 0;
    Bandwidth bw;
  };
  void ExpireHolds(TimeNs now);
  // The record's scalars, in byte order; save and restore share the list.
  template <typename Self, typename Io>
  static void ScalarFields(Self& self, Io& io);

  double low_watermark_;
  DpWrapStats* stats_;
  bool pressure_ = false;
  uint64_t rejections_ = 0;       // New-demand rejections since the last scan.
  std::deque<HeldDemand> held_;  // Expire in push order.
};

// Guest trust (Byzantine-guest containment): the paper's protocol trusts
// guest-published deadlines and bandwidth requests. Three defenses keep one
// adversarial VM from destroying co-resident guarantees: a deadline
// sanitizer on the planner's shared-page reads, a per-VM hypercall token
// bucket with INC/DEC oscillation detection, and a per-VM reputation score
// that quarantines a VM to bandwidth-only scheduling, with hysteresis
// rehabilitation (guest_trust.cc has the thresholds).
class GuestTrust {
 public:
  static constexpr TimeNs kScanPeriod = Ms(10);

  explicit GuestTrust(DpWrapStats* stats) : stats_(stats) {}

  // A reservation created for VCPU `gid` has no publication charged yet.
  void Reset(int gid) {
    by_gid_.resize(std::max(by_gid_.size(), static_cast<size_t>(gid) + 1));
    by_gid_[gid] = Charged{};
  }
  // Hypercall entry: kHypercallOk admits the call to the planner.
  int64_t Admit(const Vm* vm, const HypercallArgs& args, TimeNs now);
  // The deadline read of VCPU gid of `vm`: its slot holds `cand`, written at
  // `published` (-1: never), for a reservation of `period`. May clamp `cand`
  // to now + floor; true if the slot is distrusted.
  bool Distrusts(const Vm* vm, int gid, TimeNs& cand, TimeNs published, TimeNs period,
                 TimeNs now, TimeNs floor);
  // The scan: decays scores and rehabilitates.
  void Scan();
  // True once after a quarantine was raised or lifted: the planner replans,
  // so the VM's deadline influence ends (or resumes) with this event.
  bool TakeReplan() { return std::exchange(replan_, false); }
  bool Quarantined(const Vm* vm) const;
  std::vector<std::string> AuditIsolation(const DpWrapScheduler& s) const;

  // One record per reservation in layout order `active`, then one per VM.
  void SaveState(std::span<const int> active, ckpt::Writer& w) const;
  std::string RestoreState(std::span<const int> active, int num_vms, ckpt::Reader& r);

 private:
  struct VmTrust {
    double tokens = 0.0;  // Hypercall token bucket.
    TimeNs token_time = 0;
    bool bucket_init = false;
    TimeNs window_start = 0;  // Rate window.
    int floor_bindings = 0;
    int bw_flips = 0;
    int last_bw_dir = 0;  // +1 after INC_BW, -1 after DEC_BW, 0 unknown.
    bool deadlines_distrusted = false;  // Until the window rolls.
    double score = 0.0;
    bool quarantined = false;
    int clean_scans = 0;
    bool violated_since_scan = false;
  };
  // Publish timestamps already charged, so one bad publication scores once,
  // not once per replan that rereads the slot.
  struct Charged {
    TimeNs lie = -1;
    TimeNs floor = -1;
  };
  // The VM's state, with its rate window rolled.
  VmTrust& TrustOf(const Vm* vm, TimeNs now);
  // Scores one violation; crossing the threshold quarantines at once.
  void Violation(VmTrust& t);

  DpWrapStats* stats_;
  std::vector<VmTrust> by_vm_;   // Indexed by Vm::id(); grown on first use.
  std::vector<Charged> by_gid_;  // Indexed by Vcpu::global_id().
  bool replan_ = false;
};

}  // namespace rtvirt

#endif  // SRC_RTVIRT_DPWRAP_POLICIES_H_
