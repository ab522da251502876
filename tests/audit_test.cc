// Cross-layer invariant auditor tests: disabled by default, clean on a
// healthy run, and able to catch a seeded cross-layer inconsistency.

#include "src/audit/invariant_auditor.h"

#include <gtest/gtest.h>

#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig AuditedConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.audit.enabled = true;
  return cfg;
}

TEST(Auditor, DisabledByDefaultCreatesNoAuditor) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  Experiment exp(cfg);
  exp.AddGuest("vm", 1);
  exp.Run(Ms(50));
  EXPECT_EQ(exp.auditor(), nullptr);
}

TEST(Auditor, CleanRunHasZeroViolations) {
  Experiment exp(AuditedConfig(2));
  GuestOs* g = exp.AddGuest("vm", 2);
  PeriodicRta a(g, "a", RtaParams{Ms(2), Ms(10)});
  PeriodicRta b(g, "b", RtaParams{Ms(5), Ms(20), true});
  a.Start(0, Sec(1));
  b.Start(Ms(50), Sec(1));
  exp.Run(Sec(1));
  ASSERT_NE(exp.auditor(), nullptr);
  EXPECT_GT(exp.auditor()->stats().audit_checks, 50u);
  EXPECT_EQ(exp.auditor()->stats().audit_violations, 0u);
}

// Seed a cross-layer inconsistency: shrink the host reservation behind the
// channel's back (raw DEC_BW, as a buggy or malicious guest component
// might). The acknowledged grant now exceeds what the host serves — the
// auditor must flag it as a grant-host violation.
TEST(Auditor, DetectsHostReservationBelowAcknowledgedGrant) {
  Experiment exp(AuditedConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1);
  PeriodicRta a(g, "a", RtaParams{Ms(4), Ms(10)});
  a.Start(0, Sec(1));
  exp.Run(Ms(100));
  ASSERT_EQ(a.admission_result(), kGuestOk);
  ASSERT_EQ(exp.auditor()->stats().audit_violations, 0u);

  HypercallArgs dec;
  dec.op = SchedOp::kDecBw;
  dec.vcpu_a = g->vm()->vcpu(0);
  dec.bw_a = Bandwidth::FromDouble(0.01);
  dec.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(dec.vcpu_a, dec), kHypercallOk);
  exp.Run(Ms(150));  // Past the next audit tick.
  ASSERT_GT(exp.auditor()->stats().audit_violations, 0u);
  EXPECT_EQ(exp.auditor()->violations().front().invariant, "grant-host");
}

}  // namespace
}  // namespace rtvirt
