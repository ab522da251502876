// Every resilience counter, declared once: one plain struct of uint64_t
// fields per component, bumped in place. ResilienceCounters
// (src/metrics/resilience.h) derives from them all and its row table names
// each field once. A leaf header: components include it without depending
// on the metrics library.

#ifndef SRC_METRICS_COUNTERS_H_
#define SRC_METRICS_COUNTERS_H_

#include <cstdint>

namespace rtvirt {

// Machine: the PCPU fault path.
struct MachineStats {
  uint64_t pcpu_evacuations = 0;  // VCPUs revoked by SetPcpuOnline(pcpu, false).
};

// FaultInjector: injected faults and adversarial events actually fired.
struct FaultStats {
  uint64_t hypercall_attempts = 0;   // Calls seen by the injector.
  uint64_t injected_failures = 0;    // Random transient -EAGAIN.
  uint64_t injected_drops = 0;       // Random dropped calls.
  uint64_t injected_spikes = 0;      // Random latency spikes.
  uint64_t outage_failures = 0;      // Calls failed inside an outage window.
  uint64_t vm_crashes = 0;
  uint64_t vm_restarts = 0;
  // PCPU fault events (paired per transient/degrade window).
  uint64_t pcpu_offline_events = 0;  // Permanent failures + transient offlines.
  uint64_t pcpu_online_events = 0;   // Re-onlines closing transient windows.
  uint64_t pcpu_degrade_events = 0;  // Throttle applications.
  uint64_t pcpu_heal_events = 0;     // Full speed restored.
  // Adversarial-guest events issued.
  uint64_t adversarial_deadline_lies = 0;  // Hostile shared-page publications.
  uint64_t adversarial_storm_calls = 0;    // Hypercall-storm calls.
  uint64_t adversarial_thrash_calls = 0;   // Bandwidth-thrash calls.
  // Controller-adversary events (FaultPlan::ControlFault).
  uint64_t control_outage_failures = 0;  // Calls failed in a per-VM outage.
  uint64_t control_stale_windows = 0;    // Stale-page windows opened.
};

// RtvirtGuestChannel: in-call retry and degraded-mode recovery.
struct ChannelStats {
  uint64_t transient_failures = 0;  // -EAGAIN observations (incl. retries).
  uint64_t retries = 0;             // Re-issued attempts.
  uint64_t retry_successes = 0;     // Calls that recovered within the retry budget.
  uint64_t degraded_entries = 0;    // Transitions into degraded mode.
  uint64_t recoveries = 0;          // Degraded -> normal transitions.
  uint64_t repair_attempts = 0;     // Async repair probes issued.
  uint64_t backoff_time_ns = 0;     // Virtual time spent backing off in-call.
};

// DpWrapScheduler: watchdog, PCPU recovery, overload pressure, guest_trust.
struct DpWrapStats {
  uint64_t watchdog_reclaims = 0;          // Reservations reclaimed from crashed VMs.
  uint64_t stale_rejections = 0;           // Publications past the freshness horizon.
  uint64_t capacity_replans = 0;           // Re-plans on PCPU capacity events.
  uint64_t pressure_raises = 0;
  uint64_t pressure_clears = 0;
  uint64_t admission_rejections = 0;       // Lifetime kHypercallNoBandwidth count.
  uint64_t shed_releases = 0;              // DEC_BW with kBwReasonOverloadShed.
  uint64_t deadline_lie_rejections = 0;    // Past-at-publish publications scored.
  uint64_t deadline_floor_clamps = 0;      // Below-floor horizons clamped (not scored).
  uint64_t replan_budget_trips = 0;        // Floor-binding budget exhaustions.
  uint64_t hypercall_rate_rejections = 0;  // Token-bucket kHypercallAgain returns.
  uint64_t bw_thrash_trips = 0;            // INC/DEC oscillation violations.
  uint64_t quarantines = 0;
  uint64_t quarantine_releases = 0;
  uint64_t quarantine_holds = 0;           // Bandwidth raises held while quarantined.
};

// GuestOs: the mixed-criticality overload ladder.
struct GuestOverloadStats {
  uint64_t compressions = 0;        // Elastic reservations squeezed to min.
  uint64_t expansions = 0;          // Compressed reservations re-inflated.
  uint64_t sheds = 0;               // Tasks suspended by overload control.
  uint64_t resumes = 0;             // Shed tasks re-admitted.
  uint64_t shed_job_drops = 0;      // Job releases dropped while shed.
  uint64_t overload_admissions = 0; // Registrations admitted only via degradation.
};

// SloController: decisions, defensive holds, handoffs, freeze/re-engage.
struct ControlStats {
  uint64_t control_samples = 0;              // Response-time samples observed.
  uint64_t control_decisions = 0;            // Ticks with enough samples to evaluate.
  uint64_t control_inc_adjustments = 0;
  uint64_t control_dec_adjustments = 0;
  uint64_t control_hysteresis_holds = 0;     // In-band: no action by design.
  uint64_t control_demand_floor_holds = 0;   // DEC withheld: slice is load-bearing.
  uint64_t control_pressure_holds = 0;       // INC withheld under host pressure.
  uint64_t control_ladder_holds = 0;         // Tenant shed/compressed by the ladder.
  uint64_t control_rate_limit_holds = 0;     // Per-window adjustment budget exhausted.
  uint64_t control_windup_clamps = 0;        // Integrator hit the anti-windup clamp.
  uint64_t control_actuation_failures = 0;   // SchedSetAttr adjustments rejected.
  uint64_t control_saturation_events = 0;    // Handed off to the degradation ladder.
  uint64_t control_saturations_resolved = 0; // Tail recovered after a handoff.
  uint64_t control_freezes = 0;              // Fail-static entries.
  uint64_t control_reengage_probes = 0;      // Probes issued while frozen.
  uint64_t control_reengages = 0;            // Frozen -> engaged transitions.
};

// InvariantAuditor.
struct AuditStats {
  uint64_t audit_checks = 0;
  uint64_t audit_violations = 0;      // Every recorded violation, past the stored cap.
  uint64_t isolation_violations = 0;  // The guest_trust containment failures among them.
};

// Federation: host fault events, evacuation, migration retry and degradation.
struct ClusterStats {
  uint64_t host_crashes = 0;
  uint64_t host_outages = 0;
  uint64_t host_degrades = 0;
  uint64_t host_heals = 0;
  uint64_t cluster_vms_admitted = 0;
  uint64_t cluster_vms_rejected = 0;
  uint64_t evacuations = 0;
  uint64_t migration_attempts = 0;
  uint64_t migration_retries = 0;
  uint64_t migration_rebalances = 0;
  uint64_t rebalance_moves = 0;
  uint64_t migration_aborts = 0;      // In-flight target died; re-routed.
  uint64_t migration_successes = 0;
  uint64_t degraded_placements = 0;   // Landed via the compress/shed floors.
  uint64_t evacuations_unresolved = 0;
  uint64_t vm_unavailable_ns = 0;     // Blackout charged across all moves.
};

}  // namespace rtvirt

#endif  // SRC_METRICS_COUNTERS_H_
