#include "src/metrics/deadline_monitor.h"

#include <algorithm>
#include <utility>

namespace rtvirt {

void DeadlineMonitor::OnJobCompleted(const Task& task, const Job& job, TimeNs completion) {
  TaskStats& ts = per_task_[task.name()];
  ++ts.completed;
  ts.max_response = std::max(ts.max_response, completion - job.release);
  if (completion > job.deadline) {
    ++ts.misses;
    ts.max_tardiness = std::max(ts.max_tardiness, completion - job.deadline);
  }
  response_us_.Add(ToUs(completion - job.release));
}

DeadlineMonitor::TaskStats DeadlineMonitor::Total() const {
  TaskStats total;
  for (const auto& [name, ts] : per_task_) {
    total.completed += ts.completed;
    total.misses += ts.misses;
    total.max_tardiness = std::max(total.max_tardiness, ts.max_tardiness);
  }
  return total;
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

// One TaskStats record, in byte order; save and restore share it.
template <typename Stats, typename Io>
void TaskStatsFields(Stats& ts, Io& io) {
  ckpt::Fields(io, ts.completed, ts.misses, ts.max_tardiness, ts.max_response);
}

}  // namespace

void DeadlineMonitor::SaveState(ckpt::Writer& w) const {
  // std::map iterates in key order: deterministic across processes.
  w.U32(static_cast<uint32_t>(per_task_.size()));
  for (const auto& [name, ts] : per_task_) {
    w.Str(name);
    TaskStatsFields(ts, w);
  }
  const std::vector<double>& samples = response_us_.raw_values();
  w.U32(static_cast<uint32_t>(samples.size()));
  for (double v : samples) {
    ckpt::Field(w, v);
  }
}

std::string DeadlineMonitor::RestoreState(ckpt::Reader& r) {
  per_task_.clear();
  uint32_t n_tasks = r.U32();
  for (uint32_t i = 0; i < n_tasks && r.ok(); ++i) {
    std::string name = r.Str();
    TaskStatsFields(per_task_[name], r);
  }
  uint32_t n_samples = r.U32();
  std::vector<double> samples;
  // Reserve no more than the section can hold; a larger count fails as a
  // truncated section below.
  samples.reserve(std::min<size_t>(n_samples, r.remaining() / sizeof(double)));
  for (uint32_t i = 0; i < n_samples && r.ok(); ++i) {
    ckpt::Field(r, samples.emplace_back());
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
