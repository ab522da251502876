// Guest-side implementation of the cross-layer channel (paper section 3.2):
// translates guest scheduler events into sched_rtvirt() hypercalls and
// shared-memory deadline publications.
//
// Fault tolerance (degraded-mode cross-layer scheduling): the channel treats
// kHypercallAgain as a transient channel fault and retries the call up to
// `max_retries` times with exponential backoff (the backoff intervals are
// charged to the machine's hypercall overhead account — the guest kernel
// spins/sleeps through them). When retries are exhausted and
// `degraded_fallback` is set, the VCPU drops to a degraded mode that behaves
// like a traditional RT-Xen-style server instead of missing deadlines
// silently: requests are decided locally against the reservation the host
// last acknowledged, deadline sharing stops (the slot reads "no deadline",
// so the host schedules the VCPU on bandwidth alone), and a repair loop
// probes the channel in virtual time with exponential backoff until it can
// install a conservative standalone reservation (full slack, uncapped by
// max_slack_fraction). On success the VCPU returns to normal cross-layer
// operation and republishes its deadline.

#ifndef SRC_RTVIRT_GUEST_CHANNEL_H_
#define SRC_RTVIRT_GUEST_CHANNEL_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/checkpoint/checkpoint.h"
#include "src/common/bandwidth.h"
#include "src/common/time.h"
#include "src/guest/cross_layer.h"
#include "src/hv/machine.h"

namespace rtvirt {

struct GuestChannelOptions {
  // Extra budget per VCPU period, compensating for guest- and VMM-level
  // scheduling overheads (paper: 500 us, empirically determined).
  TimeNs budget_slack = Us(500);
  // Priority-proportional slack (paper section 6): higher-priority VMs get
  // proportionally more slack, making their residual miss probability lower
  // than that of less important VMs. Effective slack = budget_slack * scale.
  double priority_scale = 1.0;
  // Upper bound on the slack as a fraction of the VCPU period, protecting
  // short-period reservations (e.g., a 500 us memcached SLO) from a slack
  // tuned for millisecond periods: 500 us of slack on a 500 us period would
  // otherwise double the reservation to a full CPU.
  double max_slack_fraction = 0.1;

  // ---- Fault recovery ----
  // In-call retries after a transient (-EAGAIN) hypercall failure. 0 keeps
  // the legacy behavior: the first failure is surfaced to the guest.
  int max_retries = 0;
  // First retry backoff; multiplied by retry_backoff_mult per retry. Also
  // seeds the degraded-mode repair loop's probe interval.
  TimeNs retry_backoff = Us(50);
  double retry_backoff_mult = 2.0;
  // Enter degraded mode instead of failing when retries are exhausted.
  bool degraded_fallback = false;
  // Upper bound on both exponential backoffs: the repair loop's probe
  // interval and the in-call retry interval saturate here.
  TimeNs repair_backoff_max = Ms(100);
};

// Counters for the fault/recovery machinery (reported by the benches).
struct ChannelStats {
  uint64_t transient_failures = 0;  // -EAGAIN observations (incl. retries).
  uint64_t retries = 0;             // Re-issued attempts.
  uint64_t retry_successes = 0;     // Calls that recovered within the retry budget.
  uint64_t degraded_entries = 0;    // Transitions into degraded mode.
  uint64_t recoveries = 0;          // Degraded -> normal transitions.
  uint64_t repair_attempts = 0;     // Async repair probes issued.
  TimeNs backoff_time = 0;          // Virtual time spent backing off in-call.
};

class RtvirtGuestChannel : public CrossLayerPolicy, public ckpt::Checkpointable {
 public:
  explicit RtvirtGuestChannel(Machine* machine, GuestChannelOptions options = {})
      : machine_(machine), options_(options) {}

  // Harness set-up, before the channel has carried any call: gives one VM
  // options other than the experiment-wide ones (e.g. a microsecond-period
  // VM's smaller slack) without replacing the registered channel.
  void set_options(const GuestChannelOptions& options) { options_ = options; }

  int64_t RequestBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                           int64_t reason = kBwReasonNone) override;
  int64_t MoveBandwidth(Vcpu* to, Bandwidth to_bw, TimeNs to_period, Vcpu* from,
                        Bandwidth from_bw, TimeNs from_period) override;
  void ReleaseBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                        int64_t reason = kBwReasonNone) override;
  void PublishNextDeadline(Vcpu* vcpu, TimeNs deadline) override;
  void Reset() override;

  // The VCPU budget actually requested from the host: the RTAs' aggregate
  // bandwidth plus the slack, capped at one full CPU.
  Bandwidth WithSlack(Bandwidth rta_bw, TimeNs period) const;

  // Degraded-mode reservation: full slack (no max_slack_fraction trim), the
  // conservative RT-Xen-style over-provisioning the channel falls back to.
  Bandwidth ConservativeBw(Bandwidth rta_bw, TimeNs period) const;

  bool degraded(const Vcpu* vcpu) const;
  const ChannelStats& stats() const { return stats_; }

  // Reservation the host last acknowledged for `vcpu` (zero if the channel
  // never spoke for it). The invariant auditor compares this against both the
  // guest's local admission total and the host scheduler's reservation table.
  Bandwidth GrantedBw(const Vcpu* vcpu) const;
  TimeNs GrantedPeriod(const Vcpu* vcpu) const;

  // ---- Checkpointing (src/checkpoint) ----
  // The experiment names this channel's section ("channel.<vmid>") right
  // after construction; the name only labels restore errors. A channel that
  // is never registered fails SaveCheckpoint loudly if a repair is pending.
  void SetCkptSection(const std::string& section) { ckpt_section_ = section; }
  const std::string& ckpt_section() const { return ckpt_section_; }
  enum EventKind : uint32_t {
    kEvRepair = 1,  // Payload = (vcpu global id << 32) | (generation & 0xffffffff).
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

 private:
  struct VcpuState {
    // Raw RTA demand of the last request the channel accepted.
    Bandwidth rta_bw;
    TimeNs rta_period = 0;
    // Padded reservation the host last acknowledged.
    Bandwidth granted;
    TimeNs granted_period = 0;
    // Reservation the repair loop reconciles towards while degraded.
    Bandwidth desired;
    TimeNs desired_period = 0;
    bool degraded = false;
    TimeNs cached_deadline = kTimeNever;  // Republished on recovery.
    TimeNs repair_backoff = 0;
    bool repair_scheduled = false;
  };

  // One hypercall with the in-call bounded-retry loop.
  int64_t TryHypercall(Vcpu* caller, const HypercallArgs& args);
  void EnterDegraded(VcpuState& st, Vcpu* vcpu);
  void ScheduleRepair(VcpuState& st, Vcpu* vcpu);
  VcpuState& StateOf(Vcpu* vcpu) { return state_[vcpu]; }

  Machine* machine_;
  GuestChannelOptions options_;
  std::string ckpt_section_;
  std::unordered_map<const Vcpu*, VcpuState> state_;
  ChannelStats stats_;
  // Bumped by Reset(): pending repair events from before a VM crash are
  // recognized as stale and ignored.
  uint64_t generation_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_RTVIRT_GUEST_CHANNEL_H_
