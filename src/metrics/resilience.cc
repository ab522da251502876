#include "src/metrics/resilience.h"

#include <ostream>

#include "src/metrics/report.h"

namespace rtvirt {

void PrintResilience(std::ostream& out, const ResilienceCounters& c) {
  TablePrinter table({"layer", "counter", "value"});
  auto row = [&](const char* layer, const char* name, uint64_t v) {
    table.AddRow({layer, name, std::to_string(v)});
  };
  row("injected", "hypercall_attempts", c.hypercall_attempts);
  row("injected", "transient_failures", c.injected_failures);
  row("injected", "dropped_calls", c.injected_drops);
  row("injected", "latency_spikes", c.injected_spikes);
  row("injected", "outage_failures", c.outage_failures);
  row("injected", "vm_crashes", c.vm_crashes);
  row("injected", "vm_restarts", c.vm_restarts);
  row("guest", "transient_failures_seen", c.transient_failures);
  row("guest", "retries", c.retries);
  row("guest", "retry_successes", c.retry_successes);
  row("guest", "degraded_entries", c.degraded_entries);
  row("guest", "recoveries", c.recoveries);
  row("guest", "repair_attempts", c.repair_attempts);
  row("guest", "backoff_time_us", static_cast<uint64_t>(c.backoff_time_ns / 1000));
  row("host", "watchdog_reclaims", c.watchdog_reclaims);
  row("host", "stale_deadline_rejections", c.stale_rejections);
  // Overload-control counters only appear when that machinery fired, so
  // reports from overload-free runs are unchanged by this feature.
  uint64_t overload_any = c.pressure_raises + c.pressure_clears + c.admission_rejections +
                          c.shed_releases + c.compressions + c.expansions + c.sheds +
                          c.resumes + c.shed_job_drops + c.overload_admissions;
  if (overload_any > 0) {
    row("overload", "pressure_raises", c.pressure_raises);
    row("overload", "pressure_clears", c.pressure_clears);
    row("overload", "admission_rejections", c.admission_rejections);
    row("overload", "shed_releases", c.shed_releases);
    row("overload", "compressions", c.compressions);
    row("overload", "expansions", c.expansions);
    row("overload", "sheds", c.sheds);
    row("overload", "resumes", c.resumes);
    row("overload", "shed_job_drops", c.shed_job_drops);
    row("overload", "overload_admissions", c.overload_admissions);
  }
  // PCPU fault and audit sections likewise only appear when those subsystems
  // fired / were armed, keeping prior reports byte-identical.
  uint64_t pcpu_any = c.pcpu_offline_events + c.pcpu_online_events + c.pcpu_degrade_events +
                      c.pcpu_heal_events + c.pcpu_evacuations + c.capacity_replans;
  if (pcpu_any > 0) {
    row("pcpu", "offline_events", c.pcpu_offline_events);
    row("pcpu", "online_events", c.pcpu_online_events);
    row("pcpu", "degrade_events", c.pcpu_degrade_events);
    row("pcpu", "heal_events", c.pcpu_heal_events);
    row("pcpu", "vcpu_evacuations", c.pcpu_evacuations);
    row("pcpu", "capacity_replans", c.capacity_replans);
  }
  // Trust-boundary section: appears when adversarial traffic was injected or
  // any guest_trust defense fired (same byte-identical-when-idle convention).
  uint64_t trust_any = c.TotalAdversarial() + c.deadline_lie_rejections +
                       c.deadline_floor_clamps + c.replan_budget_trips +
                       c.hypercall_rate_rejections + c.bw_thrash_trips + c.quarantines +
                       c.quarantine_releases + c.quarantine_holds + c.isolation_violations;
  if (trust_any > 0) {
    row("trust", "adversarial_deadline_lies", c.adversarial_deadline_lies);
    row("trust", "adversarial_storm_calls", c.adversarial_storm_calls);
    row("trust", "adversarial_thrash_calls", c.adversarial_thrash_calls);
    row("trust", "deadline_lie_rejections", c.deadline_lie_rejections);
    row("trust", "deadline_floor_clamps", c.deadline_floor_clamps);
    row("trust", "replan_budget_trips", c.replan_budget_trips);
    row("trust", "hypercall_rate_rejections", c.hypercall_rate_rejections);
    row("trust", "bw_thrash_trips", c.bw_thrash_trips);
    row("trust", "quarantines", c.quarantines);
    row("trust", "quarantine_releases", c.quarantine_releases);
    row("trust", "quarantine_holds", c.quarantine_holds);
    row("trust", "isolation_violations", c.isolation_violations);
  }
  if (c.audit_checks > 0) {
    row("audit", "checks_run", c.audit_checks);
    row("audit", "violations", c.audit_violations);
  }
  // SLO-controller section: appears only when a controller was armed (it
  // counts samples/decisions as soon as it runs) or controller-adversary
  // faults were injected, so default-path reports stay byte-identical even
  // with the subsystem compiled in.
  uint64_t control_any = c.control_samples + c.control_decisions +
                         c.control_inc_adjustments + c.control_dec_adjustments +
                         c.control_hysteresis_holds + c.control_demand_floor_holds +
                         c.control_pressure_holds +
                         c.control_ladder_holds + c.control_rate_limit_holds +
                         c.control_windup_clamps + c.control_actuation_failures +
                         c.control_saturation_events + c.control_freezes +
                         c.control_reengage_probes + c.control_outage_failures +
                         c.control_stale_windows;
  if (control_any > 0) {
    row("control", "samples", c.control_samples);
    row("control", "decisions", c.control_decisions);
    row("control", "inc_adjustments", c.control_inc_adjustments);
    row("control", "dec_adjustments", c.control_dec_adjustments);
    row("control", "hysteresis_holds", c.control_hysteresis_holds);
    row("control", "demand_floor_holds", c.control_demand_floor_holds);
    row("control", "pressure_holds", c.control_pressure_holds);
    row("control", "ladder_holds", c.control_ladder_holds);
    row("control", "rate_limit_holds", c.control_rate_limit_holds);
    row("control", "windup_clamps", c.control_windup_clamps);
    row("control", "actuation_failures", c.control_actuation_failures);
    row("control", "saturation_events", c.control_saturation_events);
    row("control", "saturations_resolved", c.control_saturations_resolved);
    row("control", "freezes", c.control_freezes);
    row("control", "reengage_probes", c.control_reengage_probes);
    row("control", "reengages", c.control_reengages);
    row("control", "injected_outage_failures", c.control_outage_failures);
    row("control", "injected_stale_windows", c.control_stale_windows);
  }
  // Cluster federation section: only multi-host runs with host faults or
  // admissions fire these, so single-host reports stay byte-identical.
  uint64_t cluster_any = c.TotalHostFaultEvents() + c.cluster_vms_admitted +
                         c.cluster_vms_rejected + c.evacuations + c.migration_attempts +
                         c.migration_aborts + c.evacuations_unresolved;
  if (cluster_any > 0) {
    row("cluster", "host_crashes", c.host_crashes);
    row("cluster", "host_outages", c.host_outages);
    row("cluster", "host_degrades", c.host_degrades);
    row("cluster", "host_heals", c.host_heals);
    row("cluster", "vms_admitted", c.cluster_vms_admitted);
    row("cluster", "vms_rejected", c.cluster_vms_rejected);
    row("cluster", "evacuations", c.evacuations);
    row("cluster", "migration_attempts", c.migration_attempts);
    row("cluster", "migration_retries", c.migration_retries);
    row("cluster", "migration_rebalances", c.migration_rebalances);
    row("cluster", "rebalance_moves", c.rebalance_moves);
    row("cluster", "migration_aborts", c.migration_aborts);
    row("cluster", "migration_successes", c.migration_successes);
    row("cluster", "degraded_placements", c.degraded_placements);
    row("cluster", "evacuations_unresolved", c.evacuations_unresolved);
    row("cluster", "vm_unavailable_ms", static_cast<uint64_t>(c.vm_unavailable_ns / 1000000));
  }
  // Allocation profile: opt-in (ExperimentConfig::report_alloc /
  // RTVIRT_REPORT_ALLOC) because RSS and warm-up counts vary across builds
  // and would break byte-identical report comparisons.
  if (c.alloc_section) {
    row("alloc", "warmup_allocs", c.warmup_allocs);
    row("alloc", "warmup_alloc_kb", c.warmup_alloc_bytes / 1024);
    row("alloc", "steady_allocs", c.steady_allocs);
    row("alloc", "steady_alloc_kb", c.steady_alloc_bytes / 1024);
    row("alloc", "peak_rss_kb", c.peak_rss_kb);
    row("alloc", "eq_schedules", c.event_queue.schedules);
    row("alloc", "eq_cancels", c.event_queue.cancels);
    row("alloc", "eq_pops", c.event_queue.pops);
    row("alloc", "eq_node_allocs", c.event_queue.node_allocs);
    row("alloc", "eq_calendar_resizes", c.event_queue.calendar_resizes);
    row("alloc", "eq_calendar_retunes", c.event_queue.calendar_retunes);
  }
  table.Print(out);
}

void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from) {
  into.hypercall_attempts += from.hypercall_attempts;
  into.injected_failures += from.injected_failures;
  into.injected_drops += from.injected_drops;
  into.injected_spikes += from.injected_spikes;
  into.outage_failures += from.outage_failures;
  into.vm_crashes += from.vm_crashes;
  into.vm_restarts += from.vm_restarts;
  into.transient_failures += from.transient_failures;
  into.retries += from.retries;
  into.retry_successes += from.retry_successes;
  into.degraded_entries += from.degraded_entries;
  into.recoveries += from.recoveries;
  into.repair_attempts += from.repair_attempts;
  into.backoff_time_ns += from.backoff_time_ns;
  into.watchdog_reclaims += from.watchdog_reclaims;
  into.stale_rejections += from.stale_rejections;
  into.pressure_raises += from.pressure_raises;
  into.pressure_clears += from.pressure_clears;
  into.admission_rejections += from.admission_rejections;
  into.shed_releases += from.shed_releases;
  into.compressions += from.compressions;
  into.expansions += from.expansions;
  into.sheds += from.sheds;
  into.resumes += from.resumes;
  into.shed_job_drops += from.shed_job_drops;
  into.overload_admissions += from.overload_admissions;
  into.pcpu_offline_events += from.pcpu_offline_events;
  into.pcpu_online_events += from.pcpu_online_events;
  into.pcpu_degrade_events += from.pcpu_degrade_events;
  into.pcpu_heal_events += from.pcpu_heal_events;
  into.pcpu_evacuations += from.pcpu_evacuations;
  into.capacity_replans += from.capacity_replans;
  into.adversarial_deadline_lies += from.adversarial_deadline_lies;
  into.adversarial_storm_calls += from.adversarial_storm_calls;
  into.adversarial_thrash_calls += from.adversarial_thrash_calls;
  into.deadline_lie_rejections += from.deadline_lie_rejections;
  into.deadline_floor_clamps += from.deadline_floor_clamps;
  into.replan_budget_trips += from.replan_budget_trips;
  into.hypercall_rate_rejections += from.hypercall_rate_rejections;
  into.bw_thrash_trips += from.bw_thrash_trips;
  into.quarantines += from.quarantines;
  into.quarantine_releases += from.quarantine_releases;
  into.quarantine_holds += from.quarantine_holds;
  into.isolation_violations += from.isolation_violations;
  into.audit_checks += from.audit_checks;
  into.audit_violations += from.audit_violations;
  into.control_samples += from.control_samples;
  into.control_decisions += from.control_decisions;
  into.control_inc_adjustments += from.control_inc_adjustments;
  into.control_dec_adjustments += from.control_dec_adjustments;
  into.control_hysteresis_holds += from.control_hysteresis_holds;
  into.control_demand_floor_holds += from.control_demand_floor_holds;
  into.control_pressure_holds += from.control_pressure_holds;
  into.control_ladder_holds += from.control_ladder_holds;
  into.control_rate_limit_holds += from.control_rate_limit_holds;
  into.control_windup_clamps += from.control_windup_clamps;
  into.control_actuation_failures += from.control_actuation_failures;
  into.control_saturation_events += from.control_saturation_events;
  into.control_saturations_resolved += from.control_saturations_resolved;
  into.control_freezes += from.control_freezes;
  into.control_reengage_probes += from.control_reengage_probes;
  into.control_reengages += from.control_reengages;
  into.control_outage_failures += from.control_outage_failures;
  into.control_stale_windows += from.control_stale_windows;
  into.host_crashes += from.host_crashes;
  into.host_outages += from.host_outages;
  into.host_degrades += from.host_degrades;
  into.host_heals += from.host_heals;
  into.cluster_vms_admitted += from.cluster_vms_admitted;
  into.cluster_vms_rejected += from.cluster_vms_rejected;
  into.evacuations += from.evacuations;
  into.migration_attempts += from.migration_attempts;
  into.migration_retries += from.migration_retries;
  into.migration_rebalances += from.migration_rebalances;
  into.rebalance_moves += from.rebalance_moves;
  into.migration_aborts += from.migration_aborts;
  into.migration_successes += from.migration_successes;
  into.degraded_placements += from.degraded_placements;
  into.evacuations_unresolved += from.evacuations_unresolved;
  into.vm_unavailable_ns += from.vm_unavailable_ns;
  into.alloc_section = into.alloc_section || from.alloc_section;
  into.warmup_allocs += from.warmup_allocs;
  into.warmup_alloc_bytes += from.warmup_alloc_bytes;
  into.steady_allocs += from.steady_allocs;
  into.steady_alloc_bytes += from.steady_alloc_bytes;
  into.peak_rss_kb = into.peak_rss_kb > from.peak_rss_kb ? into.peak_rss_kb : from.peak_rss_kb;
  into.event_queue.schedules += from.event_queue.schedules;
  into.event_queue.cancels += from.event_queue.cancels;
  into.event_queue.pops += from.event_queue.pops;
  into.event_queue.node_allocs += from.event_queue.node_allocs;
  into.event_queue.calendar_resizes += from.event_queue.calendar_resizes;
  into.event_queue.calendar_retunes += from.event_queue.calendar_retunes;
}

}  // namespace rtvirt
