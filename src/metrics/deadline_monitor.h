// Deadline-miss and response-time monitoring for RTAs.

#ifndef SRC_METRICS_DEADLINE_MONITOR_H_
#define SRC_METRICS_DEADLINE_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/guest/task.h"
#include "src/sim/stats.h"

namespace rtvirt {

class DeadlineMonitor : public JobObserver, public ckpt::Checkpointable {
 public:
  struct TaskStats {
    uint64_t completed = 0;
    uint64_t misses = 0;
    TimeNs max_tardiness = 0;
    TimeNs max_response = 0;  // Worst completion - release.

    double MissRatio() const {
      return completed == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(completed);
    }
  };

  // Convenience: sets this monitor as the task's observer.
  void Watch(Task* task) { task->set_observer(this); }

  void OnJobCompleted(const Task& task, const Job& job, TimeNs completion) override;

  // Totals over every task, summed from per_task() at each call (end-of-run
  // readers only).
  uint64_t total_completed() const { return Total().completed; }
  uint64_t total_misses() const { return Total().misses; }
  double TotalMissRatio() const { return Total().MissRatio(); }
  TimeNs max_tardiness() const { return Total().max_tardiness; }

  // Response times (completion - release) in microseconds, across all tasks.
  const Samples& response_times_us() const { return response_us_; }

  const std::map<std::string, TaskStats>& per_task() const { return per_task_; }
  // Worst per-task miss ratio (tasks with at least one completion).
  double WorstTaskMissRatio() const;
  // Number of watched tasks that missed at least one deadline.
  int TasksWithMisses() const;

  // ---- Checkpointing (src/checkpoint) ----
  // Section "monitor". Purely an accumulator: it schedules no simulator
  // events, so OnEvent is never called and RestoreEvent is always an error.
  static constexpr const char* kCkptSection = "monitor";
  void OnEvent(uint32_t /*kind*/, uint64_t /*payload*/) override {}
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

 private:
  // Sums of completed and misses and the worst tardiness over per_task_.
  TaskStats Total() const;

  std::map<std::string, TaskStats> per_task_;
  Samples response_us_;
};

}  // namespace rtvirt

#endif  // SRC_METRICS_DEADLINE_MONITOR_H_
