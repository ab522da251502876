#include "src/workloads/periodic.h"

#include <string>
#include <utility>

namespace rtvirt {

PeriodicRta::PeriodicRta(GuestOs* guest, std::string name, RtaParams params)
    : guest_(guest), task_(guest->CreateTask(std::move(name))), params_(params),
      ckpt_section_("wl." + task_->name()) {
  params_.sporadic = false;
}

void PeriodicRta::Start(TimeNs start, TimeNs stop) {
  stop_ = stop;
  if (start <= sim()->Now()) {
    Register();
  } else {
    sim()->At(start, this, kEvRegister);
  }
}

void PeriodicRta::OnEvent(uint32_t kind, uint64_t /*payload*/) {
  if (kind == kEvRegister) {
    Register();
  } else {
    ReleaseOne();
  }
}

void PeriodicRta::Register() {
  ++admission_attempts_;
  admission_result_ = guest_->SchedSetAttr(task_, params_);
  if (admission_result_ != kGuestOk) {
    if (admission_retry_ > 0 && sim()->Now() + admission_retry_ < stop_) {
      sim()->After(admission_retry_, this, kEvRegister);
    }
    return;
  }
  admitted_at_ = sim()->Now();
  task_->set_next_release(sim()->Now());
  ReleaseOne();
}

void PeriodicRta::ReleaseOne() {
  TimeNs now = sim()->Now();
  if (now >= stop_) {
    guest_->SchedUnregister(task_);
    return;
  }
  // Publish the next arrival before releasing so the guest's deadline
  // publication sees it.
  task_->set_next_release(now + params_.period);
  guest_->ReleaseJob(task_, job_work_ > 0 ? job_work_ : params_.slice, now + params_.period);
  sim()->After(params_.period, this, kEvRelease);
}

template <typename Self, typename Io>
void PeriodicRta::ScalarFields(Self& self, Io& io) {
  ckpt::Fields(io, self.stop_, self.job_work_, self.admission_retry_, self.admission_result_,
               self.admission_attempts_, self.admitted_at_);
}

void PeriodicRta::SaveState(ckpt::Writer& w) const { ScalarFields(*this, w); }

std::string PeriodicRta::RestoreState(ckpt::Reader& r) {
  ScalarFields(*this, r);
  return r.ok() ? "" : ckpt_section_ + ": truncated section";
}

std::string PeriodicRta::RestoreEvent(uint32_t kind, uint64_t payload, TimeNs when) {
  if ((kind != kEvRegister && kind != kEvRelease) || payload != 0) {
    return ckpt_section_ + ": unknown event kind " + std::to_string(kind) + " payload " +
           std::to_string(payload);
  }
  sim()->At(when, this, kind);
  return "";
}

}  // namespace rtvirt
