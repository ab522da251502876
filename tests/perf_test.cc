// Unit tests for the src/perf measurement subsystem: allocation hooks,
// phase recorder, BENCH_*.json round-trip, and the gate comparator's
// tolerance/waive/missing semantics. These run in every CI build type —
// including sanitizers, which is the proof that the operator new/delete
// replacements in alloc_hooks.cc stay semantically transparent.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_gate.h"
#include "src/perf/perf_recorder.h"
#include "src/perf/perf_report.h"

namespace rtvirt::perf {
namespace {

TEST(AllocHooks, CountsNewAndDelete) {
  if (!AllocHooksActive()) {
    GTEST_SKIP() << "allocation hooks not linked in this build";
  }
  AllocSnapshot before = AllocNow();
  auto p = std::make_unique<char[]>(4096);
  AllocSnapshot mid = AllocNow();
  EXPECT_GE(mid.allocs, before.allocs + 1);
  EXPECT_GE(mid.bytes, before.bytes + 4096);
  p.reset();
  AllocSnapshot after = AllocNow();
  EXPECT_GE(after.frees, mid.frees + 1);
}

TEST(PerfRecorder, PhaseBracketsTimeOpsAndAllocs) {
  PerfRecorder rec;
  rec.Begin("work");
  std::vector<std::unique_ptr<int>> keep;
  for (int i = 0; i < 100; ++i) {
    keep.push_back(std::make_unique<int>(i));
  }
  rec.Count("extra", 7.0);
  const PhaseResult& r = rec.End(100);
  EXPECT_EQ(r.name, "work");
  EXPECT_EQ(r.ops, 100u);
  EXPECT_GT(r.wall_ns, 0u);
  if (AllocHooksActive()) {
    EXPECT_GE(r.allocs, 100u);
  }
  EXPECT_DOUBLE_EQ(r.counters.at("extra"), 7.0);
  EXPECT_GT(r.NsPerOp(), 0.0);
  EXPECT_GT(r.OpsPerSec(), 0.0);
  ASSERT_EQ(rec.phases().size(), 1u);
  EXPECT_EQ(&rec.phases().front(), &r);
}

TEST(PerfRecorder, ZeroAllocPhaseMeasuresZeroDespiteCounters) {
  if (!AllocHooksActive()) {
    GTEST_SKIP() << "allocation hooks not linked in this build";
  }
  PerfRecorder rec;
  std::string counter_name(48, 'k');  // Long enough to defeat SSO.
  rec.Begin("idle");
  // Count() itself allocates (map node, key copy) but credits the cost back
  // to the phase baseline — a genuinely allocation-free workload must report
  // zero even when instrumented.
  rec.Count(counter_name, 1.0);
  const PhaseResult& r = rec.End(10);
  EXPECT_EQ(r.allocs, 0u) << "recorder bookkeeping leaked into the phase";
}

TEST(PerfRecorder, PeakRssIsReported) {
  EXPECT_GT(PeakRssKb(), 0u);
}

TEST(PerfReport, JsonRoundTripPreservesEverything) {
  PerfReport report;
  report.suite = "unit";
  report.meta["build"] = "Test";
  report.Add("a.events_per_sec", 1.25e7, "events/s", true, 0.4);
  report.Add("a.allocs_per_op", 0.0, "allocs/op", false, 0.0);
  report.Add("b.ns", 17.5, "ns", false, 0.25);
  std::stringstream buf;
  report.Write(buf);
  auto parsed = PerfReport::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema_version, kPerfSchemaVersion);
  EXPECT_EQ(parsed->suite, "unit");
  EXPECT_EQ(parsed->meta.at("build"), "Test");
  ASSERT_EQ(parsed->metrics.size(), 3u);
  const PerfMetric* m = parsed->Find("a.events_per_sec");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 1.25e7);
  EXPECT_EQ(m->unit, "events/s");
  EXPECT_TRUE(m->higher_is_better);
  EXPECT_DOUBLE_EQ(m->tolerance, 0.4);
  const PerfMetric* z = parsed->Find("a.allocs_per_op");
  ASSERT_NE(z, nullptr);
  EXPECT_DOUBLE_EQ(z->value, 0.0);
  EXPECT_FALSE(z->higher_is_better);
}

TEST(PerfReport, ParseRejectsGarbageAndWrongSchema) {
  std::stringstream garbage("this is not json");
  EXPECT_FALSE(PerfReport::Parse(garbage).has_value());
  std::stringstream wrong(R"({"schema_version": 999, "suite": "x", "metrics": []})");
  EXPECT_FALSE(PerfReport::Parse(wrong).has_value());
  std::stringstream empty("");
  EXPECT_FALSE(PerfReport::Parse(empty).has_value());
}

PerfReport BaselineForGate() {
  PerfReport base;
  base.suite = "unit";
  base.Add("throughput", 100.0, "ops/s", true, 0.10);
  base.Add("latency", 50.0, "ns", false, 0.10);
  base.Add("allocs", 0.0, "allocs/op", false, 0.0);
  return base;
}

TEST(PerfGate, PassesWhenWithinTolerance) {
  PerfReport fresh = BaselineForGate();
  fresh.metrics[0].value = 95.0;  // -5% on a 10% band: fine.
  fresh.metrics[1].value = 54.0;  // +8%: fine.
  std::stringstream log;
  GateResult r = ComparePerf(BaselineForGate(), fresh, GateOptions{1.0}, log);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.checked, 3);
  EXPECT_EQ(r.regressed, 0);
}

TEST(PerfGate, FailsOnRegressionEitherDirection) {
  PerfReport fresh = BaselineForGate();
  fresh.metrics[0].value = 80.0;  // Throughput dropped 20% against 10% band.
  std::stringstream log;
  GateResult r = ComparePerf(BaselineForGate(), fresh, GateOptions{1.0}, log);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.regressed, 1);

  fresh = BaselineForGate();
  fresh.metrics[1].value = 70.0;  // Latency rose 40%.
  std::stringstream log2;
  r = ComparePerf(BaselineForGate(), fresh, GateOptions{1.0}, log2);
  EXPECT_FALSE(r.ok);
}

TEST(PerfGate, ScaleWidensBandButZeroBaselineStaysExact) {
  PerfReport fresh = BaselineForGate();
  fresh.metrics[0].value = 80.0;  // -20% passes a 10% band at 3x scale.
  std::stringstream log;
  GateResult r = ComparePerf(BaselineForGate(), fresh, GateOptions{3.0}, log);
  EXPECT_TRUE(r.ok);

  // One single allocation per op against a zero baseline must fail at any
  // scale: that is the hook keeping "steady state allocates nothing" honest.
  fresh = BaselineForGate();
  fresh.metrics[2].value = 1.0;
  std::stringstream log2;
  r = ComparePerf(BaselineForGate(), fresh, GateOptions{100.0}, log2);
  EXPECT_FALSE(r.ok);
}

TEST(PerfGate, MissingMetricFailsAndDegenerateBandWaives) {
  PerfReport fresh = BaselineForGate();
  fresh.metrics.erase(fresh.metrics.begin());
  std::stringstream log;
  GateResult r = ComparePerf(BaselineForGate(), fresh, GateOptions{1.0}, log);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.missing, 1);

  // At scale 100 a 10% higher-is-better band degenerates (floor <= 0): the
  // metric is waived, visibly, instead of being silently vacuous.
  PerfReport fresh2 = BaselineForGate();
  fresh2.metrics[0].value = 1.0;
  std::stringstream log2;
  r = ComparePerf(BaselineForGate(), fresh2, GateOptions{100.0}, log2);
  EXPECT_GE(r.waived, 1);
  EXPECT_NE(log2.str().find("waived"), std::string::npos);
}

}  // namespace
}  // namespace rtvirt::perf
