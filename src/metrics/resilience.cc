#include "src/metrics/resilience.h"

#include <iterator>
#include <ostream>
#include <string_view>

#include "src/metrics/report.h"

namespace rtvirt {
namespace {

using R = ResilienceCounters;

// The only place a counter's layer and printed name live.
constexpr CounterRow kRows[] = {
    {"injected", "hypercall_attempts", &R::hypercall_attempts},
    {"injected", "transient_failures", &R::injected_failures},
    {"injected", "dropped_calls", &R::injected_drops},
    {"injected", "latency_spikes", &R::injected_spikes},
    {"injected", "outage_failures", &R::outage_failures},
    {"injected", "vm_crashes", &R::vm_crashes},
    {"injected", "vm_restarts", &R::vm_restarts},
    {"guest", "transient_failures_seen", &R::transient_failures},
    {"guest", "retries", &R::retries},
    {"guest", "retry_successes", &R::retry_successes},
    {"guest", "degraded_entries", &R::degraded_entries},
    {"guest", "recoveries", &R::recoveries},
    {"guest", "repair_attempts", &R::repair_attempts},
    {"guest", "backoff_time_us", &R::backoff_time_ns, 1000},
    {"host", "watchdog_reclaims", &R::watchdog_reclaims},
    {"host", "stale_deadline_rejections", &R::stale_rejections},
    {"overload", "pressure_raises", &R::pressure_raises},
    {"overload", "pressure_clears", &R::pressure_clears},
    {"overload", "admission_rejections", &R::admission_rejections},
    {"overload", "shed_releases", &R::shed_releases},
    {"overload", "compressions", &R::compressions},
    {"overload", "expansions", &R::expansions},
    {"overload", "sheds", &R::sheds},
    {"overload", "resumes", &R::resumes},
    {"overload", "shed_job_drops", &R::shed_job_drops},
    {"overload", "overload_admissions", &R::overload_admissions},
    {"pcpu", "offline_events", &R::pcpu_offline_events},
    {"pcpu", "online_events", &R::pcpu_online_events},
    {"pcpu", "degrade_events", &R::pcpu_degrade_events},
    {"pcpu", "heal_events", &R::pcpu_heal_events},
    {"pcpu", "vcpu_evacuations", &R::pcpu_evacuations},
    {"pcpu", "capacity_replans", &R::capacity_replans},
    {"trust", "adversarial_deadline_lies", &R::adversarial_deadline_lies},
    {"trust", "adversarial_storm_calls", &R::adversarial_storm_calls},
    {"trust", "adversarial_thrash_calls", &R::adversarial_thrash_calls},
    {"trust", "deadline_lie_rejections", &R::deadline_lie_rejections},
    {"trust", "deadline_floor_clamps", &R::deadline_floor_clamps},
    {"trust", "replan_budget_trips", &R::replan_budget_trips},
    {"trust", "hypercall_rate_rejections", &R::hypercall_rate_rejections},
    {"trust", "bw_thrash_trips", &R::bw_thrash_trips},
    {"trust", "quarantines", &R::quarantines},
    {"trust", "quarantine_releases", &R::quarantine_releases},
    {"trust", "quarantine_holds", &R::quarantine_holds},
    {"trust", "isolation_violations", &R::isolation_violations},
    {"audit", "checks_run", &R::audit_checks},
    {"audit", "violations", &R::audit_violations},
    {"control", "samples", &R::control_samples},
    {"control", "decisions", &R::control_decisions},
    {"control", "inc_adjustments", &R::control_inc_adjustments},
    {"control", "dec_adjustments", &R::control_dec_adjustments},
    {"control", "hysteresis_holds", &R::control_hysteresis_holds},
    {"control", "demand_floor_holds", &R::control_demand_floor_holds},
    {"control", "pressure_holds", &R::control_pressure_holds},
    {"control", "ladder_holds", &R::control_ladder_holds},
    {"control", "rate_limit_holds", &R::control_rate_limit_holds},
    {"control", "windup_clamps", &R::control_windup_clamps},
    {"control", "actuation_failures", &R::control_actuation_failures},
    {"control", "saturation_events", &R::control_saturation_events},
    {"control", "saturations_resolved", &R::control_saturations_resolved},
    {"control", "freezes", &R::control_freezes},
    {"control", "reengage_probes", &R::control_reengage_probes},
    {"control", "reengages", &R::control_reengages},
    {"control", "injected_outage_failures", &R::control_outage_failures},
    {"control", "injected_stale_windows", &R::control_stale_windows},
    {"cluster", "host_crashes", &R::host_crashes},
    {"cluster", "host_outages", &R::host_outages},
    {"cluster", "host_degrades", &R::host_degrades},
    {"cluster", "host_heals", &R::host_heals},
    {"cluster", "vms_admitted", &R::cluster_vms_admitted},
    {"cluster", "vms_rejected", &R::cluster_vms_rejected},
    {"cluster", "evacuations", &R::evacuations},
    {"cluster", "migration_attempts", &R::migration_attempts},
    {"cluster", "migration_retries", &R::migration_retries},
    {"cluster", "migration_rebalances", &R::migration_rebalances},
    {"cluster", "rebalance_moves", &R::rebalance_moves},
    {"cluster", "migration_aborts", &R::migration_aborts},
    {"cluster", "migration_successes", &R::migration_successes},
    {"cluster", "degraded_placements", &R::degraded_placements},
    {"cluster", "evacuations_unresolved", &R::evacuations_unresolved},
    {"cluster", "vm_unavailable_ms", &R::vm_unavailable_ns, 1000000},
};

// As many rows as counter fields; a field named twice shows in the golden
// report and the every-row accumulate test.
static_assert(std::size(kRows) * sizeof(uint64_t) == sizeof(ResilienceCounters),
              "a counter field has no row");

bool AlwaysPrinted(std::string_view layer) {
  return layer == "injected" || layer == "guest" || layer == "host";
}

}  // namespace

std::span<const CounterRow> CounterRows() { return kRows; }

void PrintResilience(std::ostream& out, const ResilienceCounters& c) {
  TablePrinter table({"layer", "counter", "value"});
  const std::span<const CounterRow> rows = kRows;
  for (size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
    const std::string_view layer = rows[begin].layer;
    bool print = AlwaysPrinted(layer);
    for (end = begin; end < rows.size() && rows[end].layer == layer; ++end) {
      print = print || c.*rows[end].field != 0;
    }
    for (size_t i = begin; print && i < end; ++i) {
      table.AddRow({rows[i].layer, rows[i].name,
                    std::to_string(c.*rows[i].field / rows[i].divisor)});
    }
  }
  table.Print(out);
}

void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from) {
  for (const CounterRow& row : kRows) {
    into.*row.field += from.*row.field;
  }
}

}  // namespace rtvirt
