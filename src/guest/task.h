// Guest-level tasks and jobs.
//
// An RTA (real-time application, paper terminology) is a task with a (slice,
// period) reservation: each activation releases a job of `slice` CPU work due
// `period` after its release. Periodic RTAs are released every period;
// sporadic RTAs are released by external events at least `period` apart.
// Background tasks (BGAs) model non-time-sensitive CPU hogs.

#ifndef SRC_GUEST_TASK_H_
#define SRC_GUEST_TASK_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/bandwidth.h"
#include "src/common/time.h"

namespace rtvirt {

class Task;

// Mixed-criticality level of an RTA. Under overload the guest degrades
// strictly bottom-up: LOW reservations are compressed and shed before MED,
// and HIGH reservations are never sacrificed for a lower level.
enum class Criticality {
  kLow = 0,
  kMed = 1,
  kHigh = 2,
};

struct RtaParams {
  TimeNs slice = 0;
  TimeNs period = 0;
  bool sporadic = false;
  Criticality criticality = Criticality::kMed;
  // Elastic-task model: the smallest budget per period this RTA can tolerate.
  // 0 (the default) means inelastic — the reservation is never compressed.
  // Must be <= slice when set.
  TimeNs min_slice = 0;

  // The one validity rule for an RTA's parameters: period > 0,
  // 0 < slice <= period, 0 <= min_slice <= slice, and a criticality in
  // [kLow, kHigh]. GuestOs::SchedSetAttr refuses anything else, and a guest
  // restore rejects a registered task holding it.
  bool Valid() const {
    return period > 0 && slice > 0 && slice <= period && min_slice >= 0 &&
           min_slice <= slice && criticality >= Criticality::kLow &&
           criticality <= Criticality::kHigh;
  }
  Bandwidth bandwidth() const { return Bandwidth::FromSlicePeriod(slice, period); }
  bool elastic() const { return min_slice > 0 && min_slice < slice; }
  Bandwidth min_bandwidth() const {
    return Bandwidth::FromSlicePeriod(elastic() ? min_slice : slice, period);
  }
};

struct Job {
  TimeNs release = 0;
  TimeNs deadline = 0;
  TimeNs work = 0;
  TimeNs remaining = 0;
};

// Receives job completions (deadline-miss monitors, latency recorders).
class JobObserver {
 public:
  virtual ~JobObserver() = default;
  virtual void OnJobCompleted(const Task& task, const Job& job, TimeNs completion) = 0;
};

class Task {
 public:
  enum class Kind {
    kRta,
    kBackground,  // Infinite work, no deadlines, lowest priority.
  };

  Task(std::string name, Kind kind) : name_(std::move(name)), kind_(kind) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  bool is_rta() const { return kind_ == Kind::kRta; }

  const RtaParams& params() const { return params_; }
  bool registered() const { return registered_; }
  // VCPU this task is pinned to under pEDF; -1 if unassigned.
  int vcpu_index() const { return vcpu_index_; }

  // ---- Overload state (guest elastic compression / shedding) ----
  // Shed: registered but suspended by overload control — it holds no
  // reservation and its job releases are dropped until the guest resumes it.
  bool shed() const { return shed_; }
  // Compressed: the reservation was squeezed toward min_slice; the effective
  // slice is what the scheduler reserves (and what released jobs are clamped
  // to, modelling the elastic task adapting its per-period work).
  bool compressed() const { return compressed_slice_ > 0; }
  TimeNs EffectiveSlice() const {
    return compressed_slice_ > 0 ? compressed_slice_ : params_.slice;
  }
  Bandwidth EffectiveBandwidth() const {
    return Bandwidth::FromSlicePeriod(EffectiveSlice(), params_.period);
  }

  bool HasPendingJob() const { return !jobs_.empty(); }
  const Job& FrontJob() const { return jobs_.front(); }
  Job& MutableFrontJob() { return jobs_.front(); }
  size_t QueuedJobs() const { return jobs_.size(); }

  // Next known release time of a periodic RTA (kTimeNever if unknown); used
  // by the guest to publish upcoming deadlines to the host.
  TimeNs next_release() const { return next_release_; }
  void set_next_release(TimeNs t) { next_release_ = t; }

  void set_observer(JobObserver* observer) { observer_ = observer; }
  JobObserver* observer() const { return observer_; }

  uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  friend class GuestOs;

  std::string name_;
  Kind kind_;
  RtaParams params_;
  bool registered_ = false;
  int vcpu_index_ = -1;
  bool shed_ = false;
  TimeNs compressed_slice_ = 0;  // 0 = not compressed.
  std::deque<Job> jobs_;
  TimeNs next_release_ = kTimeNever;
  JobObserver* observer_ = nullptr;
  uint64_t jobs_completed_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_GUEST_TASK_H_
