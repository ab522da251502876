#include "perfbench/workloads.h"

#include <algorithm>
#include <utility>

#include "src/rtvirt/guest_channel.h"
#include "src/workloads/groups.h"
#include "src/workloads/vlc.h"

namespace perfbench {

using namespace rtvirt;

namespace {

constexpr const char* kNames[] = {"video_churn", "mc_video", "vcpu_scale", "admission_churn"};

// Figure 5b's ten video VMs (Table 3 frame rates).
constexpr int kVideoFps[] = {24, 24, 24, 30, 30, 30, 48, 48, 60, 60};

// Per-VCPU channel slack: the paper's 500 us, and the microsecond analogue
// fig5b gives the memcached VMs (bench::SetMicroSlack).
constexpr TimeNs kPaperSlack = Us(500);
constexpr TimeNs kMemcachedSlack = Us(6);

ChurnConfig ChurnFor(Workload w, TimeNs horizon) {
  ChurnConfig c;  // Paper defaults: episodes U(10 s, 6 min), gaps <= 10 s.
  c.experiment_len = horizon;
  if (w == Workload::kAdmissionChurn) {
    c.min_episode = Ms(100);
    c.max_episode = Sec(2);
    c.max_gap = Ms(100);
  }
  return c;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (int i = 0; i < 4; ++i) {
    if (name == kNames[i]) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) { return kNames[static_cast<int>(w)]; }

TimeNs PaperHorizon(Workload w) {
  switch (w) {
    case Workload::kVideoChurn:
      return Min(10);
    case Workload::kMcVideo:
      return Sec(200);
    case Workload::kVcpuScale:
      return Sec(30);
    case Workload::kAdmissionChurn:
      return Sec(120);
  }
  return 0;
}

void Outcome::Merge(const Outcome& o) {
  jobs += o.jobs;
  misses += o.misses;
  primary_jobs += o.primary_jobs;
  for (double v : o.response_us.raw_values()) {
    response_us.Add(v);
  }
  registrations += o.registrations;
  refused += o.refused;
  rtas_started += o.rtas_started;
  requests_sent += o.requests_sent;
  rtas_with_misses += o.rtas_with_misses;
  worst_rta_miss_ratio = std::max(worst_rta_miss_ratio, o.worst_rta_miss_ratio);
  secondary_jobs += o.secondary_jobs;
  secondary_misses += o.secondary_misses;
  overhead.schedule_calls += o.overhead.schedule_calls;
  overhead.schedule_time += o.overhead.schedule_time;
  overhead.context_switches += o.overhead.context_switches;
  overhead.context_switch_time += o.overhead.context_switch_time;
  overhead.migrations += o.overhead.migrations;
  overhead.migration_time += o.overhead.migration_time;
  overhead.hypercalls += o.overhead.hypercalls;
  overhead.hypercall_time += o.overhead.hypercall_time;
  machine_ns += o.machine_ns;
  queue.schedules += o.queue.schedules;
  queue.cancels += o.queue.cancels;
  queue.pops += o.queue.pops;
  queue.node_allocs += o.queue.node_allocs;
  queue.calendar_resizes += o.queue.calendar_resizes;
  events += o.events;
  replans += o.replans;
}

bool Outcome::SameSimulation(const Outcome& o) const {
  const OverheadStats& a = overhead;
  const OverheadStats& b = o.overhead;
  return jobs == o.jobs && misses == o.misses && primary_jobs == o.primary_jobs &&
         response_us.raw_values() == o.response_us.raw_values() &&
         registrations == o.registrations && refused == o.refused &&
         rtas_started == o.rtas_started && requests_sent == o.requests_sent &&
         rtas_with_misses == o.rtas_with_misses &&
         worst_rta_miss_ratio == o.worst_rta_miss_ratio && secondary_jobs == o.secondary_jobs &&
         secondary_misses == o.secondary_misses && a.schedule_calls == b.schedule_calls &&
         a.schedule_time == b.schedule_time && a.context_switches == b.context_switches &&
         a.context_switch_time == b.context_switch_time && a.migrations == b.migrations &&
         a.migration_time == b.migration_time && a.hypercalls == b.hypercalls &&
         a.hypercall_time == b.hypercall_time && machine_ns == o.machine_ns &&
         queue.schedules == o.queue.schedules && queue.cancels == o.queue.cancels &&
         queue.pops == o.queue.pops && queue.calendar_resizes == o.queue.calendar_resizes &&
         events == o.events && replans == o.replans;
}

Instance::Instance(Workload workload, uint64_t seed, TimeNs horizon, SpanRecorder* rec)
    : workload_(workload), horizon_(horizon), rec_(rec), machine_(&sim_, MachineConfig{}),
      rng_(seed) {
  auto sched = std::make_unique<DpWrapScheduler>(DpWrapConfig{});
  dpwrap_ = sched.get();
  if (rec_ == nullptr) {
    machine_.SetScheduler(std::move(sched));
  } else {
    machine_.SetScheduler(std::make_unique<TracedScheduler>(
        std::move(sched), rec_, [](const HostScheduler* s) {
          return static_cast<const DpWrapScheduler*>(s)->replans();
        }));
    machine_.SetDispatchTracer(
        [rec](TimeNs, const Pcpu&, const Vcpu&, bool) { ++rec->dispatches; });
  }

  switch (workload_) {
    case Workload::kVideoChurn:
    case Workload::kAdmissionChurn: {
      // fig4_video_streaming's assembly; admission_churn doubles the VMs and
      // shortens the episodes so the reservation write path runs ~50x more.
      int vms = workload_ == Workload::kVideoChurn ? 4 : 8;
      ChurnConfig ccfg = ChurnFor(workload_, horizon_);
      for (int v = 0; v < vms; ++v) {
        GuestOs* g = AddGuest("VM" + std::to_string(v + 1), 4, kPaperSlack);
        churn_.push_back(std::make_unique<ChurnDriver>(g, ccfg, rng_.Fork(), Observe(&primary_)));
        churn_.back()->Start();
      }
      run_until_ = horizon_ + Sec(1);
      break;
    }
    case Workload::kMcVideo: {
      // fig5b_memcached_periodic's RTVirt row.
      for (int i = 0; i < 5; ++i) {
        std::string name = "mc" + std::to_string(i);
        GuestOs* mc = AddGuest(name, 1, kMemcachedSlack);
        MemcachedConfig mcfg;
        mcfg.slice = Us(58);
        servers_.push_back(std::make_unique<MemcachedServer>(mc, name, mcfg, rng_.Fork()));
        servers_.back()->task()->set_observer(Observe(&primary_));
        servers_.back()->Start(0, horizon_);
      }
      for (int i = 0; i < 10; ++i) {
        std::string name = "video" + std::to_string(i);
        GuestOs* g = AddGuest(name, 1, kPaperSlack);
        rtas_.push_back(std::make_unique<PeriodicRta>(g, name, VlcParams(kVideoFps[i])));
        rtas_.back()->task()->set_observer(Observe(&secondary_));
        rtas_.back()->Start(0, horizon_);
      }
      run_until_ = horizon_ + Ms(300);
      break;
    }
    case Workload::kVcpuScale: {
      // tab6_scalability's single-RTA RTVirt scenario; the seed draws each
      // RTA's first-release phase (the paper's run releases all at t=0).
      for (int copy = 0; copy < 10; ++copy) {
        for (size_t gi = 0; gi < kTable5Groups.size(); ++gi) {
          const RtaParams& params = kTable5Groups[gi];
          std::string name = "vm" + std::to_string(copy) + "." + std::to_string(gi);
          GuestOs* g = AddGuest(name, 1, kPaperSlack);
          rtas_.push_back(std::make_unique<PeriodicRta>(g, name + ".rta", params));
          rtas_.back()->task()->set_observer(Observe(&primary_));
          rtas_.back()->Start(rng_.UniformTime(0, params.period - 1), horizon_);
        }
      }
      run_until_ = horizon_ + Ms(500);
      break;
    }
  }
}

Instance::~Instance() = default;

GuestOs* Instance::AddGuest(const std::string& name, int vcpus, TimeNs slack) {
  Vm* vm = machine_.AddVm(name);
  auto guest = std::make_unique<GuestOs>(vm, GuestConfig{});
  for (int i = 0; i < vcpus; ++i) {
    guest->AddVcpu();
  }
  GuestChannelOptions opts;
  opts.budget_slack = slack;
  auto channel = std::make_unique<RtvirtGuestChannel>(&machine_, opts);
  channel->SetCkptSection("channel." + std::to_string(vm->id()));
  if (rec_ == nullptr) {
    guest->SetCrossLayer(std::move(channel));
  } else {
    guest->SetCrossLayer(std::make_unique<TracedChannel>(std::move(channel), rec_));
    for (int i = 0; i < vcpus; ++i) {
      Vcpu* v = vm->vcpu(i);
      clients_.push_back(std::make_unique<TracedClient>(v->client(), rec_));
      v->set_client(clients_.back().get());
    }
  }
  guests_.push_back(std::move(guest));
  return guests_.back().get();
}

JobObserver* Instance::Observe(DeadlineMonitor* monitor) {
  if (rec_ == nullptr) {
    return monitor;
  }
  std::unique_ptr<TracedObserver>& obs = monitor == &primary_ ? primary_obs_ : secondary_obs_;
  if (obs == nullptr) {
    obs = std::make_unique<TracedObserver>(monitor, rec_);
  }
  return obs.get();
}

void Instance::RunTo(TimeNs until) {
  if (!started_) {
    started_ = true;
    setup_replans_ = dpwrap_->replans();
    machine_.Start();
  }
  sim_.RunUntil(std::min(until, run_until_));
}

Outcome Instance::Collect() const {
  Outcome o;
  o.jobs = primary_.total_completed() + secondary_.total_completed();
  o.misses = primary_.total_misses() + secondary_.total_misses();
  o.primary_jobs = primary_.total_completed();
  o.response_us = primary_.response_times_us();
  o.rtas_with_misses = primary_.TasksWithMisses() + secondary_.TasksWithMisses();
  o.worst_rta_miss_ratio =
      std::max(primary_.WorstTaskMissRatio(), secondary_.WorstTaskMissRatio());
  o.secondary_jobs = secondary_.total_completed();
  o.secondary_misses = secondary_.total_misses();
  for (const auto& d : churn_) {
    o.registrations += static_cast<uint64_t>(d->rtas_started() + d->rtas_rejected());
    o.refused += static_cast<uint64_t>(d->rtas_rejected());
    o.rtas_started += static_cast<uint64_t>(d->rtas_started());
  }
  for (const auto& s : servers_) {
    ++o.registrations;
    o.refused += s->admission_result() == kGuestOk ? 0 : 1;
    o.rtas_started += s->admission_result() == kGuestOk ? 1 : 0;
    o.requests_sent += s->requests_sent();
  }
  for (const auto& r : rtas_) {
    ++o.registrations;
    o.refused += r->admission_result() == kGuestOk ? 0 : 1;
    o.rtas_started += r->admission_result() == kGuestOk ? 1 : 0;
  }
  o.overhead = machine_.overhead();
  o.machine_ns = run_until_ * machine_.num_pcpus();
  o.queue = sim_.queue_stats();
  o.events = sim_.events_processed();
  o.replans = dpwrap_->replans() - setup_replans_;
  return o;
}

}  // namespace perfbench
