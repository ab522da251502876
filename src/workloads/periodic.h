// Periodic RTA driver, modelling rt-app (paper 4.2): a task that consumes
// `slice` of CPU every `period`, with a deadline at the end of the period.

#ifndef SRC_WORKLOADS_PERIODIC_H_
#define SRC_WORKLOADS_PERIODIC_H_

#include <string>

#include "src/checkpoint/checkpoint.h"
#include "src/guest/guest_os.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class PeriodicRta : public ckpt::Checkpointable {
 public:
  // Creates the task in `guest`; it is registered and started by Start().
  PeriodicRta(GuestOs* guest, std::string name, RtaParams params);

  // Registers the RTA at `start` (sched_setattr) and releases jobs every
  // period until `stop`, then unregisters. Returns immediately; everything
  // is event-driven.
  void Start(TimeNs start, TimeNs stop);

  Task* task() const { return task_; }
  // kGuestOk once registration succeeded; meaningful after `start`.
  int admission_result() const { return admission_result_; }
  const RtaParams& params() const { return params_; }

  // When > 0, a failed registration is retried every `interval` until it
  // succeeds or `stop` passes (modelling an application that keeps knocking
  // under overload instead of giving up). Default 0: fail once, stay out.
  void set_admission_retry(TimeNs interval) { admission_retry_ = interval; }
  // Actual per-job execution demand, <= the reserved slice. Default 0: each
  // job consumes the full slice — a task provisioned at its exact WCET with
  // zero laxity, which turns any transient service shortfall into permanent
  // tardiness (a reservation can only serve at the release rate). Real RTAs
  // reserve WCET but usually run under it; setting work < slice models that
  // and gives the task per-period headroom to drain a backlog.
  void set_job_work(TimeNs work) { job_work_ = work; }
  // Registration attempts made (1 for an immediate success).
  int admission_attempts() const { return admission_attempts_; }
  // Time of the first successful registration; kTimeNever if never admitted.
  TimeNs admitted_at() const { return admitted_at_; }

  // ---- Checkpointing (src/checkpoint) ----
  // Section "wl.<task name>". The task's own fields live in the guest
  // section; this one carries the driver's release chain.
  const std::string& ckpt_section() const { return ckpt_section_; }
  enum EventKind : uint32_t {
    kEvRegister = 1,  // Initial or retried sched_setattr.
    kEvRelease = 2,   // Periodic job release.
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void SaveState(ckpt::Writer& w) const override;
  std::string RestoreState(ckpt::Reader& r) override;
  std::string RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) override;

 private:
  void Register();
  void ReleaseOne();
  Simulator* sim() const { return guest_->vm()->machine()->sim(); }

  GuestOs* guest_;
  Task* task_;
  RtaParams params_;
  TimeNs stop_ = 0;
  TimeNs job_work_ = 0;  // 0 = full slice.
  int admission_result_ = kGuestErrInvalid;
  TimeNs admission_retry_ = 0;
  int admission_attempts_ = 0;
  TimeNs admitted_at_ = kTimeNever;
  std::string ckpt_section_;
};

}  // namespace rtvirt

#endif  // SRC_WORKLOADS_PERIODIC_H_
