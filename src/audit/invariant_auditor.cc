#include "src/audit/invariant_auditor.h"

#include <cstdio>
#include <utility>

#include "src/guest/guest_os.h"
#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"
#include "src/rtvirt/guest_channel.h"

namespace rtvirt {

InvariantAuditor::InvariantAuditor(Machine* machine, DpWrapScheduler* dpwrap,
                                   AuditorConfig config)
    : machine_(machine), dpwrap_(dpwrap), config_(config) {}

void InvariantAuditor::WatchGuest(GuestOs* guest, RtvirtGuestChannel* channel) {
  guests_.push_back(WatchedGuest{guest, channel});
}

void InvariantAuditor::Arm() {
  if (!config_.enabled) {
    return;
  }
  machine_->sim()->After(config_.period, this, 0);
}

void InvariantAuditor::OnEvent(uint32_t /*kind*/, uint64_t /*payload*/) {
  CheckNow();
  machine_->sim()->After(config_.period, this, 0);
}

void InvariantAuditor::Record(const char* invariant, std::string detail) {
  ++total_violations_;
  if (config_.log_to_stderr) {
    std::fprintf(stderr, "rtvirt-audit: t=%lld ns [%s] %s\n",
                 static_cast<long long>(machine_->sim()->Now()), invariant,
                 detail.c_str());
  }
  if (violations_.size() < config_.max_violations) {
    violations_.push_back(
        AuditViolation{machine_->sim()->Now(), invariant, std::move(detail)});
  }
}

size_t InvariantAuditor::CheckNow() {
  ++checks_run_;
  size_t before = total_violations_;
  TimeNs now = machine_->sim()->Now();
  char buf[256];

  // Host scheduler: totals, conservation, plan geometry, carry bounds (and,
  // under pcpu_recovery, plan sums against *effective* capacity).
  if (dpwrap_ != nullptr) {
    for (std::string& d : dpwrap_->AuditPlan()) {
      Record("host-plan", std::move(d));
    }
    // Isolation (guest_trust only — empty otherwise): a well-behaved VM's
    // planned allocation must meet its fluid share no matter what a
    // quarantined co-resident does. Counted separately so harnesses can gate
    // on containment specifically.
    for (std::string& d : dpwrap_->AuditIsolation()) {
      ++isolation_violations_;
      Record("trust-isolation", std::move(d));
    }
  }

  // PCPU capacity state: an offline core must never be executing anyone.
  // Machine::SetPcpuOnline revokes synchronously, so a dispatched VCPU here
  // means the evacuation path lost someone.
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    const Pcpu* p = machine_->pcpu(i);
    if (!p->online() && p->current() != nullptr) {
      std::snprintf(buf, sizeof(buf), "pcpu %d is offline but vcpu %d is dispatched on it",
                    i, p->current()->global_id());
      Record("pcpu-state", buf);
    }
  }

  for (const WatchedGuest& w : guests_) {
    GuestOs* g = w.guest;
    if (g->vm()->crashed()) {
      // A crashed guest's bookkeeping is frozen mid-flight and its host-side
      // reservations are deliberately orphaned until the watchdog reclaims
      // them; none of the cross-layer invariants are expected to hold.
      continue;
    }
    // Guest-internal bookkeeping.
    for (std::string& d : g->AuditInvariants()) {
      Record("guest-state", std::move(d));
    }
    // Bridge: guest admission vs acknowledged grant vs host reservation.
    if (w.channel == nullptr || dpwrap_ == nullptr ||
        g->sched_class() != GuestSchedClass::kPartitionedEdf) {
      continue;
    }
    for (int i = 0; i < g->num_vcpus(); ++i) {
      const Vcpu* v = g->vm()->vcpu(i);
      Bandwidth granted = w.channel->GrantedBw(v);
      // What the channel would request for the guest's current admission
      // total: its padded demand must fit inside the grant the host last
      // acknowledged, otherwise the guest admitted work the host never
      // agreed to serve.
      Bandwidth padded = w.channel->WithSlack(g->VcpuReservedBw(i), g->VcpuMinPeriod(i));
      if (padded > granted) {
        std::snprintf(buf, sizeof(buf),
                      "vcpu %d: guest-admitted (padded) %lld ppb exceeds acked grant %lld ppb",
                      v->index(), static_cast<long long>(padded.ppb()),
                      static_cast<long long>(granted.ppb()));
        Record("guest-grant", buf);
      }
      // The host may hold more than the channel believes (orphans from a
      // previous guest incarnation awaiting the watchdog), never less.
      Bandwidth host = dpwrap_->ReservedBw(v);
      if (granted > host) {
        std::snprintf(buf, sizeof(buf),
                      "vcpu %d: acked grant %lld ppb exceeds host reservation %lld ppb",
                      v->index(), static_cast<long long>(granted.ppb()),
                      static_cast<long long>(host.ppb()));
        Record("grant-host", buf);
      }
    }
  }

  // Shared pages: publication timestamps must not come from the future.
  for (int vi = 0; vi < machine_->num_vms(); ++vi) {
    const Vm* vm = machine_->vm(vi);
    for (int i = 0; i < vm->num_vcpus(); ++i) {
      TimeNs published = vm->shared_page().last_publish_time(i);
      if (published > now) {
        std::snprintf(buf, sizeof(buf),
                      "vm %d vcpu %d: deadline published at %lld ns, after now %lld ns", vi,
                      i, static_cast<long long>(published), static_cast<long long>(now));
        Record("page-time", buf);
      }
    }
  }
  return total_violations_ - before;
}

}  // namespace rtvirt
