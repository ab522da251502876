#include "src/metrics/deadline_monitor.h"

#include <algorithm>
#include <utility>

namespace rtvirt {

void DeadlineMonitor::OnJobCompleted(const Task& task, const Job& job, TimeNs completion) {
  TaskStats& ts = per_task_[task.name()];
  ++ts.completed;
  ++total_.completed;
  ts.max_response = std::max(ts.max_response, completion - job.release);
  total_.max_response = std::max(total_.max_response, completion - job.release);
  if (completion > job.deadline) {
    ++ts.misses;
    ++total_.misses;
    ts.max_tardiness = std::max(ts.max_tardiness, completion - job.deadline);
    total_.max_tardiness = std::max(total_.max_tardiness, completion - job.deadline);
  }
  response_us_.Add(ToUs(completion - job.release));
}

double DeadlineMonitor::WorstTaskMissRatio() const {
  double worst = 0.0;
  for (const auto& [name, ts] : per_task_) {
    worst = std::max(worst, ts.MissRatio());
  }
  return worst;
}

int DeadlineMonitor::TasksWithMisses() const {
  int n = 0;
  for (const auto& [name, ts] : per_task_) {
    if (ts.misses > 0) {
      ++n;
    }
  }
  return n;
}

namespace {

void SaveTaskStats(ckpt::Writer& w, const DeadlineMonitor::TaskStats& ts) {
  w.U64(ts.completed);
  w.U64(ts.misses);
  w.I64(ts.max_tardiness);
  w.I64(ts.max_response);
}

void RestoreTaskStats(ckpt::Reader& r, DeadlineMonitor::TaskStats* ts) {
  ts->completed = r.U64();
  ts->misses = r.U64();
  ts->max_tardiness = r.I64();
  ts->max_response = r.I64();
}

}  // namespace

void DeadlineMonitor::SaveState(ckpt::Writer& w) const {
  SaveTaskStats(w, total_);
  // std::map iterates in key order: deterministic across processes.
  w.U32(static_cast<uint32_t>(per_task_.size()));
  for (const auto& [name, ts] : per_task_) {
    w.Str(name);
    SaveTaskStats(w, ts);
  }
  const std::vector<double>& samples = response_us_.raw_values();
  w.U32(static_cast<uint32_t>(samples.size()));
  for (double v : samples) {
    w.F64(v);
  }
}

std::string DeadlineMonitor::RestoreState(ckpt::Reader& r) {
  RestoreTaskStats(r, &total_);
  per_task_.clear();
  uint32_t n_tasks = r.U32();
  for (uint32_t i = 0; i < n_tasks && r.ok(); ++i) {
    std::string name = r.Str();
    RestoreTaskStats(r, &per_task_[name]);
  }
  uint32_t n_samples = r.U32();
  std::vector<double> samples;
  // Reserve no more than the section can hold; a larger count fails as a
  // truncated section below.
  samples.reserve(std::min<size_t>(n_samples, r.remaining() / sizeof(double)));
  for (uint32_t i = 0; i < n_samples && r.ok(); ++i) {
    samples.push_back(r.F64());
  }
  response_us_.RestoreValues(std::move(samples));
  return r.ok() ? "" : "monitor: truncated section";
}

std::string DeadlineMonitor::RestoreEvent(uint32_t kind, uint64_t /*payload*/,
                                          TimeNs /*when*/) {
  return "monitor: owns no events but checkpoint carries event kind " +
         std::to_string(kind);
}

}  // namespace rtvirt
