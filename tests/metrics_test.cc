// Metrics and reporting: deadline monitor, allocation tracker, table/CDF
// rendering, the resilience report, and the dispatch tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/alloc_tracker.h"
#include "src/metrics/deadline_monitor.h"
#include "src/metrics/report.h"
#include "src/metrics/resilience.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

TEST(DeadlineMonitorTest, CountsMissesAndTardiness) {
  DeadlineMonitor mon;
  Task task("t", Task::Kind::kRta);
  Job on_time{0, Ms(10), Ms(2), 0};
  Job late{Ms(10), Ms(20), Ms(2), 0};
  mon.OnJobCompleted(task, on_time, Ms(9));
  mon.OnJobCompleted(task, late, Ms(23));
  EXPECT_EQ(mon.total_completed(), 2u);
  EXPECT_EQ(mon.total_misses(), 1u);
  EXPECT_EQ(mon.max_tardiness(), Ms(3));
  EXPECT_DOUBLE_EQ(mon.TotalMissRatio(), 0.5);
  EXPECT_EQ(mon.per_task().at("t").misses, 1u);
  EXPECT_EQ(mon.per_task().at("t").max_response, Ms(13));
  EXPECT_EQ(mon.TasksWithMisses(), 1);

  // A checkpoint holds the per-task records only; the restored monitor
  // derives the same totals from them.
  ckpt::Writer w;
  mon.SaveState(w);
  ckpt::Reader r(w.data());
  DeadlineMonitor restored;
  ASSERT_EQ(restored.RestoreState(r), "");
  EXPECT_EQ(restored.total_completed(), 2u);
  EXPECT_EQ(restored.total_misses(), 1u);
  EXPECT_EQ(restored.max_tardiness(), Ms(3));
  EXPECT_DOUBLE_EQ(restored.TotalMissRatio(), 0.5);
  EXPECT_EQ(restored.per_task().at("t").max_response, Ms(13));
  EXPECT_EQ(restored.TasksWithMisses(), 1);
}

TEST(DeadlineMonitorTest, ResponseTimesInMicroseconds) {
  DeadlineMonitor mon;
  Task task("t", Task::Kind::kRta);
  mon.OnJobCompleted(task, Job{Ms(5), Ms(15), Ms(1), 0}, Ms(7));
  EXPECT_DOUBLE_EQ(mon.response_times_us().Max(), 2000.0);
}

TEST(DeadlineMonitorTest, WorstTaskMissRatioAcrossTasks) {
  DeadlineMonitor mon;
  Task good("good", Task::Kind::kRta);
  Task bad("bad", Task::Kind::kRta);
  for (int i = 0; i < 10; ++i) {
    mon.OnJobCompleted(good, Job{0, Ms(10), 0, 0}, Ms(1));
  }
  mon.OnJobCompleted(bad, Job{0, Ms(10), 0, 0}, Ms(11));
  mon.OnJobCompleted(bad, Job{0, Ms(10), 0, 0}, Ms(1));
  EXPECT_DOUBLE_EQ(mon.WorstTaskMissRatio(), 0.5);
}

TEST(AllocTrackerTest, SamplesPerVmAllocation) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(2);
  Experiment exp(cfg);
  GuestOs* busy = exp.AddGuest("busy", 1);
  GuestOs* idle = exp.AddGuest("idle", 1);
  (void)idle;
  busy->CreateBackgroundTask("bg");
  AllocTracker tracker(&exp.machine(), Ms(100));
  tracker.Start(Sec(1));
  exp.Run(Sec(1) + Ms(1));
  ASSERT_GE(tracker.rows().size(), 9u);
  for (const AllocTracker::Row& row : tracker.rows()) {
    ASSERT_EQ(row.vm_pct.size(), 2u);
    EXPECT_NEAR(row.vm_pct[0], 100.0, 1.0);  // The hog owns one full CPU.
    EXPECT_NEAR(row.vm_pct[1], 0.0, 0.5);
  }
}

TEST(AllocTrackerTest, TracksDynamicChanges) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  PeriodicRta rta(g, "rta", RtaParams{Ms(50), Ms(100), false});
  rta.Start(Ms(500), Sec(1));  // Active only in the second half.
  AllocTracker tracker(&exp.machine(), Ms(100));
  tracker.Start(Sec(1));
  exp.Run(Sec(1) + Ms(1));
  const auto& rows = tracker.rows();
  ASSERT_GE(rows.size(), 9u);
  EXPECT_NEAR(rows[1].vm_pct[0], 0.0, 1.0);   // Idle early.
  EXPECT_NEAR(rows[7].vm_pct[0], 50.0, 5.0);  // ~50% once running.
}

TEST(TablePrinterTest, AlignsColumnsAndPadsRows) {
  TablePrinter t({"a", "long-header", "c"});
  t.AddRow({"x", "y"});  // Short row: padded.
  t.AddRow({"wide-cell", "z", "w"});
  std::ostringstream out;
  t.Print(out);
  std::string s = out.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
  // Header + separator + 2 rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Pct(0.5, 1), "50.0%");
}

TEST(ReportTest, PrintCdf) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  std::ostringstream out;
  PrintCdf(out, s, 4, "us");
  std::string text = out.str();
  EXPECT_NE(text.find("value(us)"), std::string::npos);
  EXPECT_NE(text.find("50.00  0.5000"), std::string::npos);
  EXPECT_NE(text.find("1.0000"), std::string::npos);  // CDF reaches 1.
}

// Every counter row holds a distinct value, row i = (i+1) * 10^6.
ResilienceCounters EveryRowDistinct() {
  ResilienceCounters c;
  uint64_t v = 0;
  for (const CounterRow& row : CounterRows()) {
    c.*row.field = (v += 1000000);
  }
  return c;
}

// The layers a report prints, in order of appearance.
std::vector<std::string> PrintedLayers(const ResilienceCounters& c) {
  std::ostringstream out;
  PrintResilience(out, c);
  std::istringstream in(out.str());
  std::vector<std::string> layers;
  std::string line;
  for (int n = 0; std::getline(in, line); ++n) {
    std::istringstream words(line);
    std::string layer;
    words >> layer;
    if (n >= 2 && (layers.empty() || layers.back() != layer)) {  // Past the header.
      layers.push_back(layer);
    }
  }
  return layers;
}

TEST(ResilienceReport, MatchesGoldenReport) {
  std::ifstream in(RTVIRT_GOLDEN_REPORT, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << RTVIRT_GOLDEN_REPORT;
  std::stringstream golden;
  golden << in.rdbuf();
  std::ostringstream out;
  PrintResilience(out, EveryRowDistinct());
  EXPECT_EQ(out.str(), golden.str());
}

TEST(ResilienceReport, OneNonzeroRowPrintsExactlyItsSection) {
  const std::vector<std::string> always = {"injected", "guest", "host"};
  EXPECT_EQ(PrintedLayers(ResilienceCounters()), always);
  for (const CounterRow& row : CounterRows()) {
    ResilienceCounters c;
    c.*row.field = 1;
    std::vector<std::string> want = always;
    if (std::find(want.begin(), want.end(), row.layer) == want.end()) {
      want.push_back(row.layer);
    }
    EXPECT_EQ(PrintedLayers(c), want) << row.layer << "." << row.name;
  }
}

TEST(ResilienceReport, AccumulateSumsEveryRow) {
  ResilienceCounters into;
  ResilienceCounters from;
  uint64_t i = 0;
  for (const CounterRow& row : CounterRows()) {
    ++i;
    into.*row.field = i;
    from.*row.field = 1000 * i;
  }
  AccumulateResilience(into, from);
  i = 0;
  for (const CounterRow& row : CounterRows()) {
    ++i;
    EXPECT_EQ(into.*row.field, 1001 * i) << row.layer << "." << row.name;
  }
}

TEST(DispatchTracerTest, ObservesEveryDispatch) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(1);
  Experiment exp(cfg);
  GuestOs* a = exp.AddGuest("a", 1);
  GuestOs* b = exp.AddGuest("b", 1);
  a->CreateBackgroundTask("bga");
  b->CreateBackgroundTask("bgb");
  int dispatches = 0;
  TimeNs last = -1;
  exp.machine().SetDispatchTracer(
      [&](TimeNs t, const Pcpu& p, const Vcpu& v, bool) {
        ++dispatches;
        EXPECT_GE(t, last);
        EXPECT_EQ(p.id(), 0);
        EXPECT_TRUE(v.vm()->name() == "a" || v.vm()->name() == "b");
        last = t;
      });
  exp.Run(Ms(100));
  // Two hogs round-robin at the 1ms best-effort quantum.
  EXPECT_GT(dispatches, 50);
}

}  // namespace
}  // namespace rtvirt
