#include "src/runner/experiment.h"

#include <cassert>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/metrics/report.h"

namespace rtvirt {

const char* FrameworkName(Framework framework) {
  switch (framework) {
    case Framework::kRtvirt:
      return "RTVirt";
    case Framework::kRtXen:
      return "RT-Xen";
    case Framework::kCredit:
      return "Credit";
    case Framework::kVanillaEdf:
      return "Vanilla-EDF";
  }
  return "?";
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  machine_ = std::make_unique<Machine>(&sim_, config_.machine);
  switch (config_.framework) {
    case Framework::kRtvirt: {
      auto sched = std::make_unique<DpWrapScheduler>(config_.dpwrap);
      dpwrap_ = sched.get();
      machine_->SetScheduler(std::move(sched));
      break;
    }
    case Framework::kRtXen:
    case Framework::kVanillaEdf: {
      auto sched = std::make_unique<ServerEdfScheduler>(config_.server_edf);
      server_edf_ = sched.get();
      machine_->SetScheduler(std::move(sched));
      break;
    }
    case Framework::kCredit: {
      auto sched = std::make_unique<CreditScheduler>(config_.credit);
      credit_ = sched.get();
      machine_->SetScheduler(std::move(sched));
      break;
    }
  }
  if (config_.faults.active()) {
    injector_ = std::make_unique<FaultInjector>(machine_.get(), config_.faults);
    // Guest-side crash semantics, registered before any bench-added handler:
    // the guest kernel's state dies with the VM, and the reborn kernel has
    // only runnable background work until workloads re-register their RTAs
    // through their own restart handlers.
    injector_->AddCrashHandler([this](Vm* vm) {
      if (GuestOs* g = GuestOf(vm)) {
        g->ResetAfterCrash();
      }
    });
    injector_->AddRestartHandler([this](Vm* vm) {
      if (GuestOs* g = GuestOf(vm)) {
        g->OnVmRestart();
      }
    });
  }
  if (config_.audit.enabled) {
    auditor_ = std::make_unique<InvariantAuditor>(machine_.get(), dpwrap_, config_.audit);
  }
  if (config_.control.enabled) {
    controller_ = std::make_unique<SloController>(&sim_, config_.control);
  }
  // Built-in checkpoint registry entries, in serialization order. Guests and
  // channels join in AddGuest; workloads/monitors via RegisterCheckpointable.
  RegisterCheckpointable(Machine::kCkptSection, machine_.get());
  if (dpwrap_ != nullptr) {
    RegisterCheckpointable(DpWrapScheduler::kCkptSection, dpwrap_);
  }
  if (injector_ != nullptr) {
    RegisterCheckpointable(FaultInjector::kCkptSection, injector_.get());
  }
}

Experiment::~Experiment() = default;

GuestOs* Experiment::AddGuest(const std::string& name, int vcpus, GuestConfig guest_config) {
  Vm* vm = machine_->AddVm(name);
  auto guest = std::make_unique<GuestOs>(vm, guest_config);
  for (int i = 0; i < vcpus; ++i) {
    guest->AddVcpu();
  }
  RtvirtGuestChannel* channel = nullptr;
  if (config_.framework == Framework::kRtvirt) {
    auto owned = std::make_unique<RtvirtGuestChannel>(machine_.get(), config_.channel);
    channel = owned.get();
    guest->SetCrossLayer(std::move(owned));
  }
  guests_.push_back(std::move(guest));
  channels_.push_back(channel);
  if (auditor_ != nullptr) {
    auditor_->WatchGuest(guests_.back().get(), channel);
  }
  GuestOs* added = guests_.back().get();
  RegisterCheckpointable(added->ckpt_section(), added);
  if (channel != nullptr) {
    // Named here (not in the channel constructor) because the channel learns
    // its VM id only through the guest.
    channel->SetCkptSection("channel." + std::to_string(vm->id()));
    RegisterCheckpointable(channel->ckpt_section(), channel);
  }
  return added;
}

GuestOs* Experiment::GuestOf(const Vm* vm) const {
  for (const auto& g : guests_) {
    if (g->vm() == vm) {
      return g.get();
    }
  }
  return nullptr;
}

void Experiment::CrashGuest(GuestOs* guest) {
  assert(guest != nullptr);
  Vm* vm = guest->vm();
  if (vm->crashed()) {
    return;
  }
  machine_->CrashVm(vm);
  guest->ResetAfterCrash();
}

RtvirtGuestChannel* Experiment::ChannelOf(const GuestOs* guest) const {
  for (size_t i = 0; i < guests_.size(); ++i) {
    if (guests_[i].get() == guest) {
      return channels_[i];
    }
  }
  return nullptr;
}

ResilienceCounters Experiment::resilience() const {
  ResilienceCounters c;
  static_cast<MachineStats&>(c) = machine_->stats();
  if (injector_ != nullptr) {
    static_cast<FaultStats&>(c) = injector_->stats();
  }
  if (dpwrap_ != nullptr) {
    static_cast<DpWrapStats&>(c) = dpwrap_->stats();
  }
  if (controller_ != nullptr) {
    static_cast<ControlStats&>(c) = controller_->stats();
  }
  if (auditor_ != nullptr) {
    static_cast<AuditStats&>(c) = auditor_->stats();
  }
  // One channel and one guest per VM: their counters add up.
  for (size_t i = 0; i < guests_.size(); ++i) {
    ResilienceCounters vm;
    static_cast<GuestOverloadStats&>(vm) = guests_[i]->overload_stats();
    if (channels_[i] != nullptr) {
      static_cast<ChannelStats&>(vm) = channels_[i]->stats();
    }
    AccumulateResilience(c, vm);
  }
  return c;
}

void Experiment::RegisterCheckpointable(const std::string& section,
                                        ckpt::Checkpointable* component) {
  RTVIRT_CHECK(component != nullptr, "checkpoint section '%s' registered with a null component",
               section.c_str());
  for (const auto& [name, c] : checkpointables_) {
    RTVIRT_CHECK(name != section, "duplicate checkpoint section name '%s'", section.c_str());
    RTVIRT_CHECK(c != component, "one component registered as both '%s' and '%s'",
                 name.c_str(), section.c_str());
  }
  checkpointables_.emplace_back(section, component);
}

namespace {

// Fixed sections every checkpoint carries besides the component registry:
// "sim" (clock), "rng" (experiment RNG), "events" (live event tags, last).
constexpr size_t kFixedSections = 3;

std::string HexOwner(uint64_t owner) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(owner));
  return buf;
}

}  // namespace

std::string Experiment::SaveCheckpoint(ckpt::Image* out) const {
  if (!restore_error_.empty()) {
    return restore_error_;
  }
  if (config_.framework != Framework::kRtvirt) {
    return std::string("checkpoint: framework ") + FrameworkName(config_.framework) +
           " is not checkpointable (RTVirt only)";
  }
  if (config_.audit.enabled) {
    return "checkpoint: audit.enabled is not checkpointable";
  }
  if (config_.control.enabled) {
    return "checkpoint: control.enabled is not checkpointable";
  }
  if (!started_) {
    return "checkpoint: experiment has not started (nothing to save)";
  }
  out->sections.clear();
  {
    ckpt::Writer w;
    w.I64(sim_.Now());
    w.U64(sim_.events_processed());
    out->sections.push_back({"sim", w.Take()});
  }
  {
    ckpt::Writer w;
    w.Str(rng_.SaveState());
    out->sections.push_back({"rng", w.Take()});
  }
  for (const auto& [name, component] : checkpointables_) {
    ckpt::Writer w;
    component->SaveState(w);
    out->sections.push_back({name, w.Take()});
  }
  // Live events go last: restore re-arms them only after every component has
  // its state back. Collected in seq order; re-arming in that order onto a
  // fresh queue assigns ascending sequence numbers, preserving the relative
  // order of same-instant events — the continuation stays byte-identical.
  std::vector<EventQueue::LiveEvent> live;
  sim_.CollectLiveEvents(&live);
  ckpt::Writer w;
  w.U32(static_cast<uint32_t>(live.size()));
  for (const auto& e : live) {
    const std::string* owner = nullptr;
    for (const auto& [name, component] : checkpointables_) {
      if (component == e.event.target) {
        owner = &name;
        break;
      }
    }
    if (owner == nullptr) {
      // A harness closure, or a component outside the checkpoint registry.
      return "checkpoint: untagged live event at t=" + std::to_string(e.time) +
             "ns (kind " + std::to_string(e.event.kind) +
             "): its target is not a registered component";
    }
    w.U64(ckpt::Fnv1a64(*owner));
    w.U32(e.event.kind);
    w.U64(e.event.payload);
    w.I64(e.time);
  }
  out->sections.push_back({"events", w.Take()});
  return "";
}

std::string Experiment::RestoreCheckpoint(const ckpt::Image& image) {
  if (!restore_error_.empty()) {
    return restore_error_;
  }
  if (config_.framework != Framework::kRtvirt) {
    return std::string("checkpoint: framework ") + FrameworkName(config_.framework) +
           " is not checkpointable (RTVirt only)";
  }
  if (config_.audit.enabled || config_.control.enabled) {
    return "checkpoint: restore target enables a non-checkpointable feature "
           "(audit/control)";
  }
  if (started_) {
    return "checkpoint: restore requires a freshly built experiment (already started)";
  }
  const size_t expected = checkpointables_.size() + kFixedSections;
  if (image.sections.size() != expected) {
    return "checkpoint: component count mismatch (image has " +
           std::to_string(image.sections.size()) + " sections, this experiment expects " +
           std::to_string(expected) + ")";
  }
  const ckpt::Section* sim_section = image.Find("sim");
  if (sim_section == nullptr) {
    return "checkpoint: missing section 'sim'";
  }
  const ckpt::Section* rng_section = image.Find("rng");
  if (rng_section == nullptr) {
    return "checkpoint: missing section 'rng'";
  }
  const ckpt::Section* events_section = image.Find("events");
  if (events_section == nullptr) {
    return "checkpoint: missing section 'events'";
  }
  // Point of no return: from here on state is overwritten, so a failure
  // leaves the experiment half-restored and unusable.
  std::string err = ApplyImage(image, *sim_section, *rng_section, *events_section);
  if (!err.empty()) {
    restore_error_ = "checkpoint: experiment unusable after a failed restore (" + err + ")";
    return err;
  }
  // The restored components re-created their armed/started flags themselves
  // (machine started, injector interceptor installed), so the next Run() must
  // skip Arm()/Start() and go straight to RunUntil.
  started_ = true;
  return "";
}

std::string Experiment::ApplyImage(const ckpt::Image& image, const ckpt::Section& sim_section,
                                   const ckpt::Section& rng_section,
                                   const ckpt::Section& events_section) {
  sim_.ClearEventsForRestore();
  {
    ckpt::Reader r(sim_section.bytes);
    TimeNs now = r.I64();
    uint64_t processed = r.U64();
    if (!r.ok() || !r.AtEnd()) {
      return "checkpoint: malformed section 'sim'";
    }
    sim_.RestoreClock(now, processed);
  }
  {
    ckpt::Reader r(rng_section.bytes);
    std::string state = r.Str();
    if (!r.ok() || !r.AtEnd() || !rng_.RestoreState(state)) {
      return "checkpoint: malformed section 'rng'";
    }
  }
  for (const auto& [name, component] : checkpointables_) {
    const ckpt::Section* section = image.Find(name);
    if (section == nullptr) {
      return "checkpoint: missing section '" + name + "'";
    }
    ckpt::Reader r(section->bytes);
    std::string err = component->RestoreState(r);
    if (!err.empty()) {
      return "checkpoint: " + err;
    }
    if (!r.AtEnd()) {
      return "checkpoint: section '" + name + "' has trailing bytes";
    }
  }
  {
    ckpt::Reader r(events_section.bytes);
    uint32_t count = r.U32();
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t owner = r.U64();
      uint32_t kind = r.U32();
      uint64_t payload = r.U64();
      TimeNs when = r.I64();
      if (!r.ok()) {
        return "checkpoint: truncated section 'events' at event " + std::to_string(i);
      }
      if (when < sim_.Now()) {
        return "checkpoint: events[" + std::to_string(i) + "] at t=" + std::to_string(when) +
               "ns precedes the checkpoint clock";
      }
      ckpt::Checkpointable* target = nullptr;
      for (const auto& [name, component] : checkpointables_) {
        if (ckpt::Fnv1a64(name) == owner) {
          target = component;
          break;
        }
      }
      if (target == nullptr) {
        return "checkpoint: events[" + std::to_string(i) + "] has unknown owner " +
               HexOwner(owner);
      }
      std::string err = target->RestoreEvent(kind, payload, when);
      if (!err.empty()) {
        return "checkpoint: " + err;
      }
    }
    if (!r.AtEnd()) {
      return "checkpoint: section 'events' has trailing bytes";
    }
  }
  return "";
}

void Experiment::PrintReport(std::ostream& out, const std::string& title) const {
  PrintExperimentReport(out, title, resilience());
}

void Experiment::SetVcpuServer(Vcpu* vcpu, ServerParams params) {
  RTVIRT_CHECK(server_edf_ != nullptr,
               "SetVcpuServer: a %s experiment has no server-EDF host (RT-Xen or vanilla EDF)",
               FrameworkName(config_.framework));
  server_edf_->SetServer(vcpu, params);
}

void Experiment::Run(TimeNs until) {
  RTVIRT_CHECK(restore_error_.empty(), "Run after a failed restore: %s",
               restore_error_.c_str());
  if (!started_) {
    if (injector_ != nullptr) {
      injector_->Arm();  // All VMs exist by now.
    }
    if (auditor_ != nullptr) {
      auditor_->Arm();
    }
    if (controller_ != nullptr) {
      controller_->Arm();
    }
    machine_->Start();
    started_ = true;
  }
  sim_.RunUntil(until);
}

}  // namespace rtvirt
