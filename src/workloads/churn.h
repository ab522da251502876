// Dynamic RTA churn generator for the video-streaming experiment (paper 4.3,
// Figure 4): per VCPU, a chain of episodes is generated where each episode is
// either an RTA with one of the Table 3 streaming profiles or an idle
// reservation of 10% bandwidth, with durations uniform in [10 s, 6 min].
// RTAs dynamically register on episode start and unregister on episode end,
// exercising RTVirt's online admission and bandwidth adaptation.

#ifndef SRC_WORKLOADS_CHURN_H_
#define SRC_WORKLOADS_CHURN_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/guest/guest_os.h"
#include "src/workloads/periodic.h"

namespace rtvirt {

struct ChurnConfig {
  TimeNs experiment_len = Min(10);
  TimeNs min_episode = Sec(10);
  TimeNs max_episode = Sec(360);
  TimeNs max_gap = Sec(10);     // Random pause between episodes on a VCPU slot.
  double idle_prob = 0.2;       // Probability an episode is an idle reservation.
  TimeNs idle_slice = Ms(1);    // Idle reservation: 10% of a CPU.
  TimeNs idle_period = Ms(10);

  // ---- Overload-experiment knobs (defaults leave behavior unchanged) ----
  // Delay before the per-slot episode chains start (on top of the random
  // stagger); lets a bench ramp demand up in waves.
  TimeNs start_at = 0;
  // Criticality stamped onto every spawned RTA.
  Criticality criticality = Criticality::kMed;
  // < 1.0 makes spawned RTAs elastic: min_slice = slice * fraction.
  double elastic_min_fraction = 1.0;
  // Fixed RTA parameters instead of the randomized VLC profiles.
  std::optional<RtaParams> profile;
  // Passed through to PeriodicRta::set_admission_retry (0 = fail once).
  TimeNs admission_retry = 0;
};

class ChurnDriver : public EventTarget {
 public:
  // Drives one episode chain per VCPU of `guest`. All spawned RTA tasks get
  // `observer` attached (deadline monitoring).
  ChurnDriver(GuestOs* guest, ChurnConfig config, Rng rng, JobObserver* observer);

  void Start();

  int rtas_started() const { return rtas_started_; }
  int rtas_rejected() const { return rtas_rejected_; }
  const std::vector<std::unique_ptr<PeriodicRta>>& rtas() const { return rtas_; }

  void OnEvent(uint32_t kind, uint64_t payload) override;

 private:
  enum EventKind : uint32_t {
    kEvNextEpisode = 1,  // Payload = VCPU slot.
    kEvEpisodeEnd = 2,   // Payload = VCPU slot; draws the gap to the next one.
    kEvIdleEnd = 3,      // Payload = index into idle_tasks_.
  };
  void NextEpisode(int slot);

  GuestOs* guest_;
  ChurnConfig config_;
  Rng rng_;
  JobObserver* observer_;
  std::vector<std::unique_ptr<PeriodicRta>> rtas_;
  std::vector<Task*> idle_tasks_;
  int rtas_started_ = 0;
  int rtas_rejected_ = 0;
  int name_seq_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_WORKLOADS_CHURN_H_
