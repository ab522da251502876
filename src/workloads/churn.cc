#include "src/workloads/churn.h"

#include <string>

#include "src/workloads/vlc.h"

namespace rtvirt {

ChurnDriver::ChurnDriver(GuestOs* guest, ChurnConfig config, Rng rng, JobObserver* observer)
    : guest_(guest), config_(config), rng_(rng), observer_(observer) {}

void ChurnDriver::Start() {
  Simulator* sim = guest_->vm()->machine()->sim();
  for (int slot = 0; slot < guest_->num_vcpus(); ++slot) {
    // Stagger chain starts so registrations don't all land at t=0.
    sim->After(config_.start_at + rng_.UniformTime(0, config_.max_gap), this, kEvNextEpisode,
               static_cast<uint64_t>(slot));
  }
}

void ChurnDriver::OnEvent(uint32_t kind, uint64_t payload) {
  switch (kind) {
    case kEvNextEpisode:
      return NextEpisode(static_cast<int>(payload));
    case kEvEpisodeEnd:
      guest_->vm()->machine()->sim()->After(rng_.UniformTime(0, config_.max_gap), this,
                                             kEvNextEpisode, payload);
      return;
    case kEvIdleEnd:
      guest_->SchedUnregister(idle_tasks_[payload]);
      return;
  }
}

void ChurnDriver::NextEpisode(int slot) {
  Simulator* sim = guest_->vm()->machine()->sim();
  TimeNs now = sim->Now();
  if (now >= config_.experiment_len) {
    return;
  }
  TimeNs duration = rng_.UniformTime(config_.min_episode, config_.max_episode);
  TimeNs stop = std::min(now + duration, config_.experiment_len);
  std::string name =
      guest_->vm()->name() + ".churn" + std::to_string(slot) + "." + std::to_string(name_seq_++);

  if (rng_.Bernoulli(config_.idle_prob)) {
    // Idle interval with a 10% standing reservation and no job releases.
    Task* idle = guest_->CreateTask(name + ".idle");
    constexpr TimeNs kIdleSlice = Ms(1);  // 10% of a CPU.
    constexpr TimeNs kIdlePeriod = Ms(10);
    RtaParams params{kIdleSlice, kIdlePeriod, false};
    if (guest_->SchedSetAttr(idle, params) == kGuestOk) {
      sim->At(stop, this, kEvIdleEnd, idle_tasks_.size());
    }
    idle_tasks_.push_back(idle);
  } else {
    int fps = kVlcProfiles[rng_.UniformInt(0, kVlcProfiles.size() - 1)].fps;
    RtaParams params = config_.profile.has_value() ? *config_.profile : VlcParams(fps);
    params.criticality = config_.criticality;
    if (config_.elastic_min_fraction < 1.0) {
      params.min_slice = std::max<TimeNs>(
          1, static_cast<TimeNs>(static_cast<double>(params.slice) *
                                 config_.elastic_min_fraction));
    }
    auto rta = std::make_unique<PeriodicRta>(guest_, name, params);
    rta->task()->set_observer(observer_);
    rta->set_admission_retry(config_.admission_retry);
    rta->Start(now, stop);
    ++rtas_started_;
    // Admission happens synchronously for an immediate start.
    if (rta->admission_result() != kGuestOk) {
      ++rtas_rejected_;
      --rtas_started_;
    }
    rtas_.push_back(std::move(rta));
  }
  sim->At(stop, this, kEvEpisodeEnd, static_cast<uint64_t>(slot));
}

}  // namespace rtvirt
