// Cross-layer invariant auditor.
//
// The cross-layer scheduling contract spans three bookkeeping domains — the
// guest scheduler's per-VCPU admission totals, the channel's record of what
// the host acknowledged, and the host scheduler's reservation table and plan.
// Each layer maintains its own view, and a bug in any hypercall/recovery path
// silently desynchronizes them long before a deadline miss makes it visible.
// The auditor periodically checks the conservation invariants that tie the
// views together and reports structured diagnostics:
//
//   host   - reservation totals consistent and within capacity (+epsilon),
//            plan segments inside the slice and disjoint, per-VCPU supply
//            bounded by the reservation plus carry backlog (AuditPlan);
//   pcpu   - an offline core never has a VCPU dispatched on it (the
//            SetPcpuOnline evacuation path must never lose anyone);
//   guest  - per-VCPU admitted bandwidth equals the sum of pinned effective
//            bandwidths and fits the VCPU capacity; shed tasks hold no pin
//            or queued jobs (GuestOs::AuditInvariants);
//   bridge - the guest's padded admission total never exceeds the grant the
//            channel last acknowledged, and that grant never exceeds what
//            the host actually holds for the VCPU;
//   page   - shared-page publication timestamps never come from the future.
//
// Everything is read-only and event-count-neutral when disabled: with
// `enabled == false`, Arm() schedules nothing, so simulation traces are
// byte-identical with or without an auditor constructed.

#ifndef SRC_AUDIT_INVARIANT_AUDITOR_H_
#define SRC_AUDIT_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/event_queue.h"

namespace rtvirt {

class GuestOs;
class Machine;
class DpWrapScheduler;
class RtvirtGuestChannel;

struct AuditorConfig {
  // Master switch: when false, Arm() is a no-op (no events scheduled).
  bool enabled = false;
  // Cadence of the periodic check.
  TimeNs period = Ms(10);
  // Stored-violation cap; the total count keeps incrementing past it.
  size_t max_violations = 64;
  // Also print each violation to stderr as it is recorded.
  bool log_to_stderr = false;
};

struct AuditViolation {
  TimeNs time = 0;         // Simulation time of the failed check.
  std::string invariant;   // Category: host-plan, trust-isolation, pcpu-state,
                           // guest-state, guest-grant, grant-host, page-time.
  std::string detail;      // Human-readable diagnostic.
};

class InvariantAuditor : public EventTarget {
 public:
  // `dpwrap` may be null (baseline host schedulers): host-side and bridge
  // checks are skipped and only watched guests are audited.
  InvariantAuditor(Machine* machine, DpWrapScheduler* dpwrap, AuditorConfig config = {});

  // Registers a guest for auditing. `channel` may be null (traditional,
  // host-unaware guests): the bridge checks are skipped for this guest.
  void WatchGuest(GuestOs* guest, RtvirtGuestChannel* channel);

  // Starts the periodic check loop (no-op unless config.enabled).
  void Arm();

  // Runs every check once, immediately; returns how many new violations the
  // pass recorded. Usable without Arm() (tests call it at chosen instants).
  size_t CheckNow();
  // The periodic check (the auditor's only event).
  void OnEvent(uint32_t kind, uint64_t payload) override;

  const AuditorConfig& config() const { return config_; }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  uint64_t total_violations() const { return total_violations_; }
  // trust-isolation subset of the total: containment failures of the
  // guest_trust boundary (stored violations are capped; this count is not).
  uint64_t isolation_violations() const { return isolation_violations_; }
  uint64_t checks_run() const { return checks_run_; }

 private:
  struct WatchedGuest {
    GuestOs* guest = nullptr;
    RtvirtGuestChannel* channel = nullptr;
  };

  void Record(const char* invariant, std::string detail);

  Machine* machine_;
  DpWrapScheduler* dpwrap_;
  AuditorConfig config_;
  std::vector<WatchedGuest> guests_;
  std::vector<AuditViolation> violations_;
  uint64_t total_violations_ = 0;
  uint64_t isolation_violations_ = 0;
  uint64_t checks_run_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_AUDIT_INVARIANT_AUDITOR_H_
