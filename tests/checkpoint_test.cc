// Checkpoint/restore (DESIGN.md §10): RNG state round-trip, corruption
// loudness (truncation / CRC / version / section count), byte-identical
// resumed continuation (canonical scenario, and every checkpointable event
// kind live across a split), the committed golden digest trail, sweep
// resumed-attempt reporting, federated snapshot round-trip, and the
// save-path and registry rejections.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/cluster/federation.h"
#include "src/common/rng.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/ckpt_scenario.h"
#include "src/sweep/sweep.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

// ---------------------------------------------------------------------------
// RNG save/restore accessors (the primitive everything else leans on).

TEST(CheckpointRngTest, SaveRestoreRoundTripsMidStream) {
  Rng a(42);
  for (int i = 0; i < 1000; ++i) {
    a.UniformInt(0, 1 << 20);
  }
  std::string state = a.SaveState();

  Rng b(7);  // Different seed, different position: restore must overwrite all.
  b.Uniform(0.0, 1.0);
  ASSERT_TRUE(b.RestoreState(state));
  EXPECT_TRUE(a == b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30)) << "draw " << i;
  }
  EXPECT_TRUE(a == b);
}

TEST(CheckpointRngTest, RestoredCopyIsIndependentAndSeedsStayDecorrelated) {
  Rng a(42);
  a.UniformInt(0, 100);
  Rng b(7);
  ASSERT_TRUE(b.RestoreState(a.SaveState()));
  // Advancing the copy must not drag the original along (no aliasing).
  b.UniformInt(0, 100);
  EXPECT_FALSE(a == b);
  // Different seeds are different streams (decorrelation regression: a
  // restore bug that reset engines to a common default would collapse them).
  Rng s1(1), s2(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    agree += s1.UniformInt(0, 1 << 30) == s2.UniformInt(0, 1 << 30) ? 1 : 0;
  }
  EXPECT_LT(agree, 4);
}

TEST(CheckpointRngTest, RestoreRejectsGarbageWithoutClobberingState) {
  Rng a(42);
  a.UniformInt(0, 100);
  Rng before(7);
  ASSERT_TRUE(before.RestoreState(a.SaveState()));
  EXPECT_FALSE(a.RestoreState("not a generator state"));
  EXPECT_FALSE(a.RestoreState(""));
  EXPECT_TRUE(a == before);  // Failed restore left the engine untouched.
}

// ---------------------------------------------------------------------------
// Container corruption: every failure is loud and names the offending part.

std::string SavedScenarioBytes(ckpt::Image* image_out = nullptr) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto s = BuildCkptScenario(opt);
  s->Start();
  s->exp->Run(Ms(100));
  ckpt::Image image;
  std::string err = s->exp->SaveCheckpoint(&image);
  EXPECT_EQ(err, "");
  if (image_out != nullptr) {
    *image_out = image;
  }
  return image.Serialize();
}

TEST(CheckpointCorruptionTest, TruncationFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes.substr(0, bytes.size() - 5), &out);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  err = ckpt::Image::Parse(bytes.substr(0, 10), &out);
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, CrcMismatchFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  ASSERT_GT(bytes.size(), 30u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, UnknownSchemaVersionFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  // u32 version sits right after the 8-byte magic (little-endian). Version 1
  // is the format before each fact was stored once, version 2 the one with
  // VCPU ids in the per-VCPU records, version 3 the one before the DP-WRAP
  // policies wrote records of their own.
  for (int version : {99, 1, 2, 3}) {
    bytes[8] = static_cast<char>(version);
    ckpt::Image out;
    std::string err = ckpt::Image::Parse(bytes, &out);
    EXPECT_NE(err.find("unknown schema version " + std::to_string(version) + " (supported: 4)"),
              std::string::npos)
        << err;
  }
}

TEST(CheckpointCorruptionTest, BadMagicFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  bytes[0] = 'X';
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, DroppedSectionFailsAsComponentCountMismatch) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  ASSERT_GT(image.sections.size(), 3u);
  image.sections.pop_back();
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("component count mismatch"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, TruncatedSectionNamesTheComponent) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  for (ckpt::Section& s : image.sections) {
    if (s.name == "rng") {
      ASSERT_GT(s.bytes.size(), 4u);
      s.bytes.resize(s.bytes.size() - 3);  // CRC is per-image, so this parses.
    }
  }
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("'rng'"), std::string::npos) << err;
}

// Cuts the last three bytes off the section `name` of `image`. Cut from
// "events", a restore fails part-way through the event list, after every
// component has restored.
void TruncateSection(ckpt::Image* image, const std::string& name) {
  for (ckpt::Section& s : image->sections) {
    if (s.name == name) {
      s.bytes.resize(s.bytes.size() - 3);
    }
  }
}

// A restore that fails part-way has already overwritten state, so the
// experiment refuses to run, save or restore that mix, naming the failure.
TEST(CheckpointRestoreDeathTest, FailedRestoreLeavesExperimentUnusable) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  TruncateSection(&image, "events");
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("truncated section 'events'"), std::string::npos) << err;
  ckpt::Image out;
  std::string unusable = fresh->exp->SaveCheckpoint(&out);
  EXPECT_EQ(unusable, "checkpoint: experiment unusable after a failed restore (" + err + ")");
  EXPECT_EQ(fresh->exp->RestoreCheckpoint(image), unusable);
  EXPECT_DEATH(fresh->exp->Run(Ms(200)),
               "Run after a failed restore: .*truncated section 'events'");
}

// ---------------------------------------------------------------------------
// Save-path rejections.

TEST(CheckpointRejectionTest, NonCheckpointableFeaturesAreRejectedAtSave) {
  ExperimentConfig cfg;
  cfg.audit.enabled = true;
  Experiment exp(std::move(cfg));
  exp.AddGuest("vm0", 1);
  exp.Run(Ms(1));
  ckpt::Image image;
  std::string err = exp.SaveCheckpoint(&image);
  EXPECT_NE(err.find("audit.enabled"), std::string::npos) << err;
}

TEST(CheckpointRejectionTest, UntaggedLiveEventIsRejectedAtSave) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto s = BuildCkptScenario(opt);
  s->Start();
  s->exp->Run(Ms(50));
  // A harness closure: its target is the simulator, not a registered component.
  s->exp->sim().After(Ms(10), [] {});
  ckpt::Image image;
  std::string err = s->exp->SaveCheckpoint(&image);
  EXPECT_NE(err.find("untagged live event"), std::string::npos) << err;
}

TEST(CheckpointRegistryDeathTest, DuplicateSectionNameIsFatal) {
  Experiment exp(ExperimentConfig{});
  GuestOs* g = exp.AddGuest("vm0", 1);
  PeriodicRta a(g, "a", RtaParams{Ms(1), Ms(10)});
  PeriodicRta b(g, "b", RtaParams{Ms(1), Ms(10)});
  exp.RegisterCheckpointable("wl.x", &a);
  EXPECT_DEATH(exp.RegisterCheckpointable("wl.x", &b),
               "duplicate checkpoint section name 'wl.x'");
  EXPECT_DEATH(exp.RegisterCheckpointable("machine", &b),
               "duplicate checkpoint section name 'machine'");
}

TEST(CheckpointRegistryDeathTest, ComponentUnderTwoNamesIsFatal) {
  Experiment exp(ExperimentConfig{});
  GuestOs* g = exp.AddGuest("vm0", 1);
  PeriodicRta a(g, "a", RtaParams{Ms(1), Ms(10)});
  exp.RegisterCheckpointable("wl.a", &a);
  EXPECT_DEATH(exp.RegisterCheckpointable("wl.a2", &a),
               "one component registered as both 'wl.a' and 'wl.a2'");
  EXPECT_DEATH(exp.RegisterCheckpointable("wl.null", nullptr), "null component");
}

// ---------------------------------------------------------------------------
// Byte-identical continuation: run->save->continue vs restore->continue must
// serialize to the same bytes at the horizon.

// The monitor's four totals, which it sums from its per-task records.
std::tuple<uint64_t, uint64_t, double, TimeNs> MonitorTotals(const DeadlineMonitor& m) {
  return {m.total_completed(), m.total_misses(), m.TotalMissRatio(), m.max_tardiness()};
}

TEST(CheckpointRoundTripTest, CalendarBackendContinuesByteIdentical) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(600);

  auto a = BuildCkptScenario(opt);
  a->Start();
  a->exp->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(a->exp->SaveCheckpoint(&mid), "");
  const auto mid_totals = MonitorTotals(a->monitor);
  a->exp->Run(Ms(600));
  ckpt::Image end_a;
  ASSERT_EQ(a->exp->SaveCheckpoint(&end_a), "");

  auto b = BuildCkptScenario(opt);  // NOT started: restore rebuilds the chains.
  ASSERT_EQ(b->exp->RestoreCheckpoint(mid), "");
  EXPECT_EQ(b->exp->sim().Now(), Ms(300));
  EXPECT_EQ(MonitorTotals(b->monitor), mid_totals);
  b->exp->Run(Ms(600));
  ckpt::Image end_b;
  ASSERT_EQ(b->exp->SaveCheckpoint(&end_b), "");

  EXPECT_EQ(end_a.Serialize(), end_b.Serialize());
  EXPECT_EQ(a->monitor.total_completed(), b->monitor.total_completed());
  EXPECT_EQ(a->monitor.total_misses(), b->monitor.total_misses());
  EXPECT_GT(a->monitor.total_completed(), 0u);
}

// Every opt-in layer that schedules checkpointable events, at once: all four
// DP-WRAP policy scans, the guest pressure poll, channel repair, and every
// FaultPlan event kind. 2 PCPUs, 4 VMs x 2 VCPUs. With `all_layers`, VM 0's
// first VCPU is also pinned to PCPU 0, VM 1's tasks are sheddable, and a
// fifth, gEDF guest loads the host until the PCPU 1 outage (50-70 ms) sheds
// VM 1 and rejects the gEDF guest's third registration, so the pin list,
// shed tasks, the gEDF list and held demand are in the sections too.
struct EveryKindRig {
  std::unique_ptr<Experiment> exp;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;

  static constexpr TimeNs kHorizon = Ms(160);

  explicit EveryKindRig(bool all_layers = false) {
    ExperimentConfig cfg;
    cfg.machine.num_pcpus = 2;
    cfg.dpwrap.idle_tax.enabled = true;
    cfg.dpwrap.idle_tax.window = Ms(20);
    cfg.dpwrap.watchdog.reclaim_crashed = true;
    cfg.dpwrap.overload.enabled = true;
    cfg.dpwrap.guest_trust.enabled = true;
    cfg.dpwrap.pcpu_recovery.enabled = true;
    cfg.channel.max_retries = 2;
    cfg.channel.degraded_fallback = true;
    FaultPlan& f = cfg.faults;
    f.seed = 11;
    f.hypercall_fail_prob = 0.02;
    f.hypercall_outages = {{Ms(30), Ms(45)}};
    f.vm_failures = {{3, Ms(60), Ms(90)}};
    f.pcpu_faults = {{FaultPlan::PcpuFault::Kind::kTransientOffline, 1, Ms(50), Ms(70), 1.0},
                     {FaultPlan::PcpuFault::Kind::kDegrade, 0, Ms(80), Ms(110), 0.5}};
    f.adversarial_guests = {{FaultPlan::AdversarialGuest::Kind::kDeadlineLies, 2, Ms(20), Ms(120)}};
    f.control_faults = {{FaultPlan::ControlFault::Kind::kStalePage, 1, Ms(40), Ms(100)}};
    exp = std::make_unique<Experiment>(std::move(cfg));
    GuestConfig gcfg;
    gcfg.overload.enabled = true;
    for (int vm = 0; vm < 4; ++vm) {
      GuestOs* g = exp->AddGuest("vm" + std::to_string(vm), 2, gcfg);
      for (int k = 0; k < 2; ++k) {
        RtaParams params{Ms(1 + k), Ms(10 + 4 * vm + 2 * k)};
        params.min_slice = Us(500);
        if (all_layers && vm == 1) {
          params.criticality = Criticality::kLow;  // Sheddable.
        }
        rtas.push_back(std::make_unique<PeriodicRta>(
            g, "vm" + std::to_string(vm) + ".rta" + std::to_string(k), params));
        rtas.back()->set_admission_retry(Ms(3));
        exp->RegisterCheckpointable(rtas.back()->ckpt_section(), rtas.back().get());
      }
    }
    if (!all_layers) {
      return;
    }
    exp->dpwrap()->SetAffinity(exp->guests()[0]->vm()->vcpu(0), 0);
    GuestConfig gedf;
    gedf.sched_class = GuestSchedClass::kGlobalEdf;
    GuestOs* g = exp->AddGuest("vm4", 2, gedf);
    for (int k = 0; k < 3; ++k) {
      rtas.push_back(std::make_unique<PeriodicRta>(g, "vm4.rta" + std::to_string(k),
                                                   RtaParams{Ms(5 - k), Ms(10)}));
      rtas.back()->set_admission_retry(Ms(3));
      exp->RegisterCheckpointable(rtas.back()->ckpt_section(), rtas.back().get());
    }
  }

  // What restore rebuilds instead of reading, one line per value: DP-WRAP's
  // total and capacity, each VCPU's guest-side reserved bandwidth and
  // minimum period and DP-WRAP reservation, and each task's VCPU index. The
  // per-VCPU pins and channel records are read by position, so each VCPU's
  // pin, granted bandwidth and degraded flag are here too, and the policy
  // records follow the planner's, so each VCPU's tax factor, the pressure
  // level, each VM's quarantine and every DP-WRAP counter. The machine's
  // runnable index ends it, one hex word per 64 global ids.
  std::string DerivedState() const {
    const DpWrapScheduler* dp = exp->dpwrap();
    std::string out = "dpwrap total=" + std::to_string(dp->total_reserved().ppb()) +
                      " capacity=" + std::to_string(dp->capacity().ppb()) +
                      " pressure=" + std::to_string(dp->pressure()) + " stats=";
    std::array<uint64_t, sizeof(DpWrapStats) / sizeof(uint64_t)> counters;
    static_assert(sizeof(counters) == sizeof(DpWrapStats));
    std::memcpy(counters.data(), &dp->stats(), sizeof(counters));
    for (uint64_t c : counters) {
      out += " " + std::to_string(c);
    }
    out += "\n";
    for (const auto& g : exp->guests()) {
      const RtvirtGuestChannel* ch = exp->ChannelOf(g.get());
      out += g->vm()->name() + " quarantined=" + std::to_string(dp->Quarantined(g->vm())) + "\n";
      for (int k = 0; k < g->num_vcpus(); ++k) {
        const Vcpu* v = g->vm()->vcpu(k);
        char tax[32];
        std::snprintf(tax, sizeof(tax), "%a", dp->TaxFactor(v));
        out += v->name() + " reserved=" + std::to_string(g->VcpuReservedBw(k).ppb()) +
               " min_period=" + std::to_string(g->VcpuMinPeriod(k)) +
               " dpwrap=" + std::to_string(dp->ReservedBw(v).ppb()) +
               " pin=" + std::to_string(dp->Affinity(v)) + " tax=" + tax +
               " granted=" + std::to_string(ch->GrantedBw(v).ppb()) +
               " degraded=" + std::to_string(ch->degraded(v)) + "\n";
      }
    }
    for (const auto& rta : rtas) {
      out += rta->task()->name() + " vcpu=" + std::to_string(rta->task()->vcpu_index()) + "\n";
    }
    out += "runnable index";
    for (uint64_t word : exp->machine().runnable_index()) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), " %016llx", static_cast<unsigned long long>(word));
      out += hex;
    }
    return out;
  }

  // DP-WRAP's plan audit and every guest's invariant audit.
  std::vector<std::string> Audits() const {
    std::vector<std::string> violations = exp->dpwrap()->AuditPlan();
    for (const auto& g : exp->guests()) {
      for (const std::string& v : g->AuditInvariants()) {
        violations.push_back(g->ckpt_section() + ": " + v);
      }
    }
    return violations;
  }

  // Fresh path only. Registrations start after Run() has armed the injector
  // (one lands inside the hypercall outage, driving a channel into repair,
  // and the all-layers rig's last one inside the PCPU 1 outage).
  void Start() {
    for (size_t i = 0; i < rtas.size(); ++i) {
      TimeNs at = i == 5 ? Ms(35) : i == 10 ? Ms(55) : Ms(1 + static_cast<int64_t>(i));
      rtas[i]->Start(at, kHorizon);
    }
  }
};

TEST(CheckpointRoundTripTest, EveryEventKindSurvivesASplit) {
  EveryKindRig a;
  a.Start();
  std::set<std::pair<const EventTarget*, uint32_t>> live_kinds;
  std::vector<ckpt::Image> splits;
  for (TimeNs t = Ms(3); t < Ms(140); t += Ms(7)) {
    a.exp->Run(t);
    splits.emplace_back();
    ASSERT_EQ(a.exp->SaveCheckpoint(&splits.back()), "") << "t=" << t;
    std::vector<EventQueue::LiveEvent> live;
    a.exp->sim().CollectLiveEvents(&live);
    for (const auto& e : live) {
      live_kinds.insert({e.event.target, e.event.kind});
    }
  }
  a.exp->Run(EveryKindRig::kHorizon);
  ckpt::Image end_a;
  ASSERT_EQ(a.exp->SaveCheckpoint(&end_a), "");

  // The split points kept every kind below live at least once.
  auto live = [&](const EventTarget* target, uint32_t kind) {
    return live_kinds.count({target, kind}) > 0;
  };
  const DpWrapScheduler* dp = a.exp->dpwrap();
  for (uint32_t k : {DpWrapScheduler::kEvTax, DpWrapScheduler::kEvWatchdog,
                     DpWrapScheduler::kEvOverload, DpWrapScheduler::kEvTrust}) {
    EXPECT_TRUE(live(dp, k)) << "dpwrap kind " << k;
  }
  EXPECT_TRUE(live(a.exp->guests()[0].get(), GuestOs::kEvPressure));
  bool repair = false;
  for (const auto& g : a.exp->guests()) {
    repair = repair || live(a.exp->ChannelOf(g.get()), RtvirtGuestChannel::kEvRepair);
  }
  EXPECT_TRUE(repair);
  const FaultInjector* fi = a.exp->fault_injector();
  for (uint32_t k = FaultInjector::kEvVmCrash; k <= FaultInjector::kEvControlStaleEnd; ++k) {
    EXPECT_TRUE(live(fi, k)) << "faults kind " << k;
  }
  ResilienceCounters c = a.exp->resilience();
  EXPECT_GT(c.degraded_entries, 0u);
  EXPECT_GT(c.repair_attempts, 0u);
  EXPECT_GT(c.vm_crashes, 0u);
  EXPECT_GT(c.adversarial_deadline_lies, 0u);

  // Every split restores into a fresh experiment and ends byte-identical.
  const std::string expected = end_a.Serialize();
  for (size_t i = 0; i < splits.size(); ++i) {
    EveryKindRig b;
    ASSERT_EQ(b.exp->RestoreCheckpoint(splits[i]), "") << "split " << i;
    b.exp->Run(EveryKindRig::kHorizon);
    ckpt::Image end_b;
    ASSERT_EQ(b.exp->SaveCheckpoint(&end_b), "");
    EXPECT_EQ(end_b.Serialize(), expected) << "split " << i;
  }
}

// A saved event whose (kind, payload) this build cannot re-arm fails the
// restore with a named error instead of aborting when it would fire.
TEST(CheckpointRoundTripTest, BadEventPayloadFailsRestoreLoudly) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  for (ckpt::Section& s : image.sections) {
    if (s.name != "events") {
      continue;
    }
    ckpt::Writer w;
    w.U32(1);
    w.U64(ckpt::Fnv1a64(Machine::kCkptSection));
    w.U32(Machine::kEvSliceEnd);
    w.U64(99);  // No such PCPU.
    w.I64(Ms(150));
    s.bytes = w.Take();
  }
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("machine: event references invalid pcpu 99"), std::string::npos) << err;
}

// A channel's repair event may only name a VCPU of the channel's own VM
// (its state is indexed by VCPU index, so another VM's VCPU would alias one
// of its own). The canonical scenario's VM 0 has global ids 0 and 1, VM 1
// has 2 and 3.
TEST(CheckpointRoundTripTest, ChannelRepairEventOfAnotherVmFailsRestoreLoudly) {
  auto restore_with_repair_of = [](uint32_t gid) {
    ckpt::Image image;
    SavedScenarioBytes(&image);
    for (ckpt::Section& s : image.sections) {
      if (s.name == "events") {
        ckpt::Writer w;
        w.U32(1);
        w.U64(ckpt::Fnv1a64("channel.0"));
        w.U32(RtvirtGuestChannel::kEvRepair);
        w.U64(uint64_t{gid} << 32);
        w.I64(Ms(150));
        s.bytes = w.Take();
      }
    }
    return BuildCkptScenario(CkptScenarioOptions{})->exp->RestoreCheckpoint(image);
  };
  EXPECT_EQ(restore_with_repair_of(1), "");
  std::string err = restore_with_repair_of(2);
  EXPECT_NE(err.find("channel.0: repair event references VCPU global id 2 of VM 1"),
            std::string::npos)
      << err;
}

// PCPU numbers and VCPU ids in the dpwrap section index the scheduler's
// tables once restored, so restore checks each one. These tests patch a
// saved section at offsets that follow DpWrapScheduler::SaveState's layout.
uint32_t U32At(const std::string& bytes, size_t at) {
  ckpt::Reader r(std::string_view(bytes).substr(at));
  return r.U32();
}

void PutU32(std::string* bytes, size_t at, uint32_t v) {
  ckpt::Writer w;
  w.U32(v);
  bytes->replace(at, 4, w.data());
}

int64_t I64At(const std::string& bytes, size_t at) {
  ckpt::Reader r(std::string_view(bytes).substr(at));
  return r.I64();
}

void PutI64(std::string* bytes, size_t at, int64_t v) {
  ckpt::Writer w;
  w.I64(v);
  bytes->replace(at, 8, w.data());
}

// A count read from the payload must not size an allocation before the bytes
// behind it are read: a valid 28-byte file claiming 2^32-1 sections fails as
// a truncated section instead of reserving for them.
TEST(CheckpointRoundTripTest, HugeSectionCountFailsAsTruncatedSection) {
  ckpt::Writer payload;
  payload.U32(0xFFFFFFFFu);
  ckpt::Writer file;
  for (char c : ckpt::kMagic) {
    file.U8(static_cast<uint8_t>(c));
  }
  file.U32(ckpt::kVersion);
  file.U32(ckpt::Crc32(payload.data()));
  file.U64(payload.data().size());
  std::string bytes = file.Take() + payload.data();
  ASSERT_EQ(bytes.size(), 28u);
  ckpt::Image out;
  EXPECT_EQ(ckpt::Image::Parse(bytes, &out), "checkpoint: truncated section[0]");
}

// The same for the monitor's response-time sample count, the last field of
// its section.
TEST(CheckpointRoundTripTest, HugeMonitorSampleCountFailsAsTruncatedSection) {
  ckpt::Writer w;
  DeadlineMonitor().SaveState(w);
  std::string bytes = w.Take();
  ASSERT_EQ(U32At(bytes, bytes.size() - 4), 0u);  // No samples saved.
  PutU32(&bytes, bytes.size() - 4, 0xFFFFFFFFu);
  ckpt::Reader r(bytes);
  DeadlineMonitor restored;
  EXPECT_EQ(restored.RestoreState(r), "monitor: truncated section");
}

// Saves the canonical scenario at t=100 ms, lets `patch` edit the section
// named `name`, and returns the error of restoring the result.
template <typename Patch>
std::string RestoreWithPatchedSection(const std::string& name, Patch&& patch) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  for (ckpt::Section& s : image.sections) {
    if (s.name == name) {
      patch(&s.bytes);
    }
  }
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  return fresh->exp->RestoreCheckpoint(image);
}

// Byte offsets of the dpwrap section's lists.
struct DpwrapLists {
  size_t pins = 0;          // One u32 pcpu (-1: none) per VCPU, after their count.
  size_t reservations = 0;  // u32 count, then kReservationBytes records.
  size_t plan = 0;          // u32 count, then kSegmentBytes segments.
  size_t policies = 0;      // One presence flag per opt-in policy, then their records.
  static constexpr size_t kReservationBytes = 28;  // u32 gid, three 8-byte fields.
  static constexpr size_t kSegmentBytes = 24;      // u32 gid, u32 pcpu, i64 x2.
};

DpwrapLists LocateDpwrapLists(const std::string& bytes) {
  // 19 eight-byte scalars and counters, the replan-pending flag and the
  // tickle cursor come before the VCPU count.
  constexpr size_t kVcpuCount = 19 * 8 + 1 + 4;
  DpwrapLists at;
  at.pins = kVcpuCount + 4;
  at.reservations = at.pins + 4 * size_t{U32At(bytes, kVcpuCount)};
  at.plan = at.reservations + 4 + DpwrapLists::kReservationBytes * U32At(bytes, at.reservations);
  at.policies = at.plan + 4 + DpwrapLists::kSegmentBytes * U32At(bytes, at.plan);
  return at;
}

// RestoreWithPatchedSection on the dpwrap section, with its list offsets.
template <typename Patch>
std::string RestoreWithPatchedDpwrap(Patch&& patch) {
  return RestoreWithPatchedSection(DpWrapScheduler::kCkptSection, [&](std::string* bytes) {
    patch(bytes, LocateDpwrapLists(*bytes));
  });
}

TEST(CheckpointRoundTripTest, DpwrapPatchOffsetsFollowTheSavedLayout) {
  EXPECT_EQ(RestoreWithPatchedDpwrap([](std::string* bytes, const DpwrapLists& at) {
              // The offsets land where the lists are: 4 VCPUs, none pinned,
              // two reservations, a plan whose first segment is on one of
              // the 4 PCPUs, and four absent policies.
              ASSERT_EQ(U32At(*bytes, at.pins - 4), 4u);
              for (size_t gid = 0; gid < 4; ++gid) {
                ASSERT_EQ(U32At(*bytes, at.pins + 4 * gid), static_cast<uint32_t>(-1));
              }
              ASSERT_EQ(U32At(*bytes, at.reservations), 2u);
              ASSERT_GT(U32At(*bytes, at.plan), 0u);
              ASSERT_LT(U32At(*bytes, at.plan + 4 + 4), 4u);
              ASSERT_EQ(bytes->substr(at.policies), std::string(4, '\0'));
            }),
            "");
}

TEST(CheckpointRoundTripTest, DpwrapPendingPinOutOfRangeFailsRestoreLoudly) {
  auto pin_vcpu1 = [](int pcpu) {
    return [pcpu](std::string* bytes, const DpwrapLists& at) {
      PutU32(bytes, at.pins + 4, static_cast<uint32_t>(pcpu));
    };
  };
  // -1 (no pin) and any of the 4 PCPUs are valid pins; -2 and 4 are not.
  EXPECT_EQ(RestoreWithPatchedDpwrap(pin_vcpu1(-1)), "");
  EXPECT_EQ(RestoreWithPatchedDpwrap(pin_vcpu1(3)), "");
  for (int pcpu : {-2, 4}) {
    std::string err = RestoreWithPatchedDpwrap(pin_vcpu1(pcpu));
    EXPECT_NE(err.find("dpwrap: affinity of VCPU 1 names invalid pcpu " + std::to_string(pcpu)),
              std::string::npos)
        << err;
  }
}

TEST(CheckpointRoundTripTest, DpwrapSegmentPcpuOutOfRangeFailsRestoreLoudly) {
  // The first segment of the plan.
  std::string err = RestoreWithPatchedDpwrap([](std::string* bytes, const DpwrapLists& at) {
    PutU32(bytes, at.plan + 4 + 4, 9);
  });
  EXPECT_NE(err.find("dpwrap: plan segment of VCPU"), std::string::npos) << err;
  EXPECT_NE(err.find("names invalid pcpu 9"), std::string::npos) << err;
}

TEST(CheckpointRoundTripTest, DpwrapCursorOutOfRangeFailsRestoreLoudly) {
  // The best-effort cursor (u64) and the wake-tickle cursor (u32) follow the
  // slice bounds and the replan-pending flag.
  constexpr size_t kBeCursor = 2 * 8 + 1;
  std::string err = RestoreWithPatchedDpwrap([](std::string* bytes, const DpwrapLists&) {
    PutU32(bytes, kBeCursor, 4);  // 4 VCPUs: valid cursors are 0..3.
  });
  EXPECT_NE(err.find("dpwrap: round-robin cursors (4, "), std::string::npos) << err;
  err = RestoreWithPatchedDpwrap([](std::string* bytes, const DpwrapLists&) {
    PutU32(bytes, kBeCursor + 8, 4);  // 4 PCPUs.
  });
  EXPECT_NE(err.find(", 4) out of range for 4 VCPUs and 4 PCPUs"), std::string::npos) << err;
}

TEST(CheckpointRoundTripTest, DpwrapDuplicateReservationFailsRestoreLoudly) {
  std::string err = RestoreWithPatchedDpwrap([](std::string* bytes, const DpwrapLists& at) {
    uint32_t first = U32At(*bytes, at.reservations + 4);
    PutU32(bytes, at.reservations + 4 + DpwrapLists::kReservationBytes, first);
  });
  EXPECT_NE(err.find("dpwrap: reservation[1] repeats VCPU global id 0"), std::string::npos)
      << err;
}

// The policy records are read by the restoring scheduler's policies, so an
// image whose policy set differs from the scheduler's config is refused by
// name, either way round.
TEST(CheckpointRoundTripTest, DpwrapPolicySetMismatchFailsRestoreLoudly) {
  const char* names[] = {"idle_tax", "watchdog", "overload", "guest_trust"};
  for (size_t i = 0; i < 4; ++i) {
    std::string err = RestoreWithPatchedDpwrap(
        [i](std::string* bytes, const DpwrapLists& at) { (*bytes)[at.policies + i] = 1; });
    EXPECT_NE(err.find(std::string("dpwrap: the image has the ") + names[i] +
                       " policy record, but this scheduler's config has it off"),
              std::string::npos)
        << err;
  }
  EveryKindRig a;
  a.Start();
  a.exp->Run(Ms(30));
  ckpt::Image image;
  ASSERT_EQ(a.exp->SaveCheckpoint(&image), "");
  for (ckpt::Section& s : image.sections) {
    if (s.name == DpWrapScheduler::kCkptSection) {
      size_t guest_trust = LocateDpwrapLists(s.bytes).policies + 3;
      ASSERT_EQ(s.bytes[guest_trust], 1);
      s.bytes[guest_trust] = 0;
    }
  }
  EveryKindRig b;
  std::string err = b.exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("dpwrap: the image lacks the guest_trust policy record, but this "
                     "scheduler's config has it on"),
            std::string::npos)
      << err;
}

// The policy records follow the flags in order: the idle tax's (use, factor)
// per reservation, overload's (pressure, rejections, held count, holds), then
// guest trust's two publish stamps per reservation and the VM count, which
// restore checks against the machine before sizing anything by it.
TEST(CheckpointRoundTripTest, DpwrapTrustVmCountAboveMachineFailsRestoreLoudly) {
  EveryKindRig a;
  a.Start();
  a.exp->Run(Ms(30));
  ckpt::Image image;
  ASSERT_EQ(a.exp->SaveCheckpoint(&image), "");
  for (ckpt::Section& s : image.sections) {
    if (s.name == DpWrapScheduler::kCkptSection) {
      DpwrapLists at = LocateDpwrapLists(s.bytes);
      size_t per_reservation = 16 * size_t{U32At(s.bytes, at.reservations)};
      size_t overload = at.policies + 4 + per_reservation;
      size_t vm_count = overload + 1 + 8 + 4 + 16 * size_t{U32At(s.bytes, overload + 9)} +
                        per_reservation;
      ASSERT_EQ(U32At(s.bytes, vm_count), 4u);  // VMs 0-3 have touched the trust boundary.
      PutU32(&s.bytes, vm_count, 99);
    }
  }
  EveryKindRig b;
  std::string err = b.exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("dpwrap: trust record covers 99 VMs, the machine has 4"), std::string::npos)
      << err;
}

// The channel section's VCPU count is checked before any record is read: no
// VM has more VCPUs than its shared page has slots.
TEST(CheckpointRoundTripTest, ChannelCountAboveSlotLimitFailsRestoreLoudly) {
  constexpr size_t kCount = 8 * 8;  // After the generation and seven counters.
  constexpr size_t kRecordBytes = 5 * 8 + 2;
  std::string err = RestoreWithPatchedSection("channel.0", [](std::string* bytes) {
    ASSERT_EQ(bytes->size(), kCount + 4 + kRecordBytes * U32At(*bytes, kCount));
    PutU32(bytes, kCount, SharedSchedPage::kMaxSlots + 1);
  });
  EXPECT_NE(err.find("channel.0: 4097 VCPU records exceed the 4096 shared-page slots"),
            std::string::npos)
      << err;
}

// A channel's records are read back by position, one per VCPU slot. The
// golden scenarios' guests reserve on one VCPU each; here two RTAs that do
// not fit on one VCPU give the guest a different reservation on each, and
// each must come back to its own VCPU.
TEST(CheckpointRoundTripTest, ChannelRecordsRestoreToTheirOwnVcpus) {
  struct Rig {
    std::unique_ptr<Experiment> exp;
    std::vector<std::unique_ptr<PeriodicRta>> rtas;
    GuestOs* g = nullptr;

    Rig() {
      ExperimentConfig cfg;
      cfg.machine.num_pcpus = 2;
      exp = std::make_unique<Experiment>(std::move(cfg));
      g = exp->AddGuest("vm", 2);
      for (TimeNs slice : {Ms(6), Ms(5)}) {
        rtas.push_back(std::make_unique<PeriodicRta>(
            g, "rta" + std::to_string(rtas.size()), RtaParams{slice, Ms(10)}));
        exp->RegisterCheckpointable(rtas.back()->ckpt_section(), rtas.back().get());
      }
    }
    std::pair<Bandwidth, Bandwidth> Granted() const {
      const RtvirtGuestChannel* ch = exp->ChannelOf(g);
      return {ch->GrantedBw(g->vm()->vcpu(0)), ch->GrantedBw(g->vm()->vcpu(1))};
    }
  };
  Rig a;
  for (const auto& rta : a.rtas) {
    rta->Start(0, Ms(100));
  }
  a.exp->Run(Ms(50));
  ckpt::Image mid;
  ASSERT_EQ(a.exp->SaveCheckpoint(&mid), "");
  const auto granted = a.Granted();
  ASSERT_GT(granted.second, Bandwidth::Zero());
  ASSERT_GT(granted.first, granted.second);
  a.exp->Run(Ms(100));
  ckpt::Image end_a;
  ASSERT_EQ(a.exp->SaveCheckpoint(&end_a), "");

  Rig b;
  ASSERT_EQ(b.exp->RestoreCheckpoint(mid), "");
  EXPECT_EQ(b.Granted(), granted);
  b.exp->Run(Ms(100));
  ckpt::Image end_b;
  ASSERT_EQ(b.exp->SaveCheckpoint(&end_b), "");
  EXPECT_EQ(end_b.Serialize(), end_a.Serialize());
}

// Machine section offsets: nine counters and two counts, then 31-byte PCPU
// records (online flag, i64 speed, u32 current VCPU global id or -1, ...).
constexpr size_t kPcpuRecords = 9 * 8 + 2 * 4;
constexpr size_t kPcpuRecordBytes = 31;

// Speeds divide guest work into wall time, so the machine and guest restores
// check them.
TEST(CheckpointRoundTripTest, MachinePcpuSpeedOutOfRangeFailsRestoreLoudly) {
  constexpr size_t kPcpu2Speed = kPcpuRecords + 2 * kPcpuRecordBytes + 1;
  for (int64_t speed : {int64_t{0}, Bandwidth::kUnit + 1}) {
    std::string err =
        RestoreWithPatchedSection(Machine::kCkptSection, [speed](std::string* bytes) {
          ASSERT_EQ(I64At(*bytes, kPcpu2Speed), Bandwidth::kUnit);
          PutI64(bytes, kPcpu2Speed, speed);
        });
    EXPECT_NE(err.find("machine: pcpu 2 speed " + std::to_string(speed) +
                       " ppb outside [1, 1000000000]"),
              std::string::npos)
        << err;
  }
}

// Byte offsets of fields in a guest section, found by walking it the way
// GuestOs::SaveState writes it.
struct GuestFields {
  size_t task0_slice = 0;       // i64 slice of task[0]; i64 period, bool sporadic,
                                // u8 criticality and i64 min_slice follow.
  size_t task0_registered = 0;  // bool registered of task[0]; bool shed follows.
  size_t vcpu0_pins = 0;        // u32 pin-set count of VCPU 0, then u32 task indices.
  size_t vcpu1_pins = 0;
  size_t vcpu0_speed = 0;       // i64 run speed of VCPU 0.
};

GuestFields LocateGuestFields(const std::string& bytes) {
  // The background cursor, two tick counters and six overload stats come
  // before the task list.
  constexpr size_t kHeaderBytes = 8 + 2 * 4 + 6 * 8;
  GuestFields at;
  size_t pos = kHeaderBytes + 4;
  for (uint32_t t = U32At(bytes, kHeaderBytes); t > 0; --t) {
    pos += 4 + U32At(bytes, pos);  // The name.
    if (at.task0_slice == 0) {
      // After kind, then slice, period, sporadic, criticality and min_slice.
      at.task0_slice = pos + 1;
      at.task0_registered = pos + 27;
    }
    // The fixed fields, then the jobs (32 bytes each) counted at +53.
    pos += 57 + 32 * size_t{U32At(bytes, pos + 53)};
  }
  // Each VCPU: its pin set, then capacity, on_cpu, running, run_start and
  // run speed (29 bytes).
  at.vcpu0_pins = pos + 4;
  at.vcpu0_speed = at.vcpu0_pins + 4 + 4 * size_t{U32At(bytes, at.vcpu0_pins)} + 21;
  at.vcpu1_pins = at.vcpu0_speed + 8;
  return at;
}

TEST(CheckpointRoundTripTest, GuestRunSpeedOutOfRangeFailsRestoreLoudly) {
  for (int64_t speed : {int64_t{0}, int64_t{-3}, Bandwidth::kUnit + 1}) {
    std::string err = RestoreWithPatchedSection("guest.0", [speed](std::string* bytes) {
      size_t at = LocateGuestFields(*bytes).vcpu0_speed;
      ASSERT_EQ(I64At(*bytes, at), Bandwidth::kUnit);
      PutI64(bytes, at, speed);
    });
    EXPECT_NE(err.find("guest.0: vcpu 0 run speed " + std::to_string(speed) +
                       " ppb outside [1, 1000000000]"),
              std::string::npos)
        << err;
  }
}

// The pin sets are the one record of where a task runs, so restore rejects
// pin sets the live code cannot produce: a task in two of them, and a pinned
// task that is not registered or is shed.
TEST(CheckpointRoundTripTest, GuestTaskInTwoPinSetsFailsRestoreLoudly) {
  std::string err = RestoreWithPatchedSection("guest.0", [](std::string* bytes) {
    GuestFields at = LocateGuestFields(*bytes);
    ASSERT_GT(U32At(*bytes, at.vcpu0_pins), 0u);
    uint32_t task = U32At(*bytes, at.vcpu0_pins + 4);
    ASSERT_EQ(task, 0u);  // vm0.cam is pinned to VCPU 0.
    ckpt::Writer pin;
    pin.U32(task);
    bytes->insert(at.vcpu1_pins + 4, pin.data());
    PutU32(bytes, at.vcpu1_pins, U32At(*bytes, at.vcpu1_pins) + 1);
  });
  EXPECT_NE(err.find("guest.0: task 'vm0.cam' is in the pin sets of vcpu 0 and vcpu 1"),
            std::string::npos)
      << err;
}

TEST(CheckpointRoundTripTest, GuestPinnedTaskNotRegisteredFailsRestoreLoudly) {
  struct Patch {
    size_t offset;  // From task[0]'s registered flag.
    uint8_t value;
    const char* state;  // As the error names it.
  };
  for (const Patch& patch : {Patch{0, 0, "not registered"}, Patch{1, 1, "marked shed"}}) {
    std::string err = RestoreWithPatchedSection("guest.0", [&patch](std::string* bytes) {
      size_t at = LocateGuestFields(*bytes).task0_registered;
      ASSERT_EQ((*bytes)[at], 1);      // vm0.cam: registered,
      ASSERT_EQ((*bytes)[at + 1], 0);  // not shed.
      (*bytes)[at + patch.offset] = static_cast<char>(patch.value);
    });
    EXPECT_NE(err.find(std::string("guest.0: task 'vm0.cam' is in the pin set of vcpu 0 but ") +
                       patch.state),
              std::string::npos)
        << err;
  }
}

// A registered task's parameters divide into its bandwidth and budgets, so
// restore admits only what SchedSetAttr would (and a criticality and elastic
// floor the overload ladder can use).
TEST(CheckpointRoundTripTest, GuestTaskParamsOutOfRangeFailRestoreLoudly) {
  struct Patch {
    size_t offset;  // From task[0]'s slice.
    int64_t value;
    const char* params;  // As the error prints them.
  };
  const Patch patches[] = {
      {8, 0, "slice 2000000, period 0, min_slice 0, criticality 1"},
      {0, 0, "slice 0, period 10000000, min_slice 0, criticality 1"},
      {0, Ms(10) + 1, "slice 10000001, period 10000000, min_slice 0, criticality 1"},
      {18, -1, "slice 2000000, period 10000000, min_slice -1, criticality 1"},
      {18, Ms(2) + 1, "slice 2000000, period 10000000, min_slice 2000001, criticality 1"},
  };
  for (const Patch& patch : patches) {
    std::string err = RestoreWithPatchedSection("guest.0", [&patch](std::string* bytes) {
      size_t at = LocateGuestFields(*bytes).task0_slice;
      ASSERT_EQ(I64At(*bytes, at), Ms(2));      // vm0.cam: 2 ms every 10 ms.
      ASSERT_EQ(I64At(*bytes, at + 8), Ms(10));
      PutI64(bytes, at + patch.offset, patch.value);
    });
    EXPECT_NE(err.find(std::string("guest.0: task 'vm0.cam' has invalid parameters (") +
                       patch.params + ")"),
              std::string::npos)
        << err;
  }
  std::string err = RestoreWithPatchedSection("guest.0", [](std::string* bytes) {
    size_t criticality = LocateGuestFields(*bytes).task0_slice + 17;
    ASSERT_EQ((*bytes)[criticality], 1);  // kMed.
    (*bytes)[criticality] = 3;
  });
  EXPECT_NE(err.find("guest.0: task 'vm0.cam' has invalid parameters (slice 2000000, "
                     "period 10000000, min_slice 0, criticality 3)"),
            std::string::npos)
      << err;
}

// Each dispatch is saved once, as the PCPU's current VCPU, and the VCPU's
// PCPU derives from it; restore rejects a VCPU on two PCPUs, a current VCPU
// that is not running, and a running VCPU that no PCPU runs.
TEST(CheckpointRoundTripTest, MachineDispatchDisagreementFailsRestoreLoudly) {
  // The current VCPU (u32 global id, -1 for none) follows the online flag
  // and the speed.
  auto current_at = [](int pcpu) { return kPcpuRecords + 9 + kPcpuRecordBytes * pcpu; };
  constexpr uint32_t kNone = 0xFFFFFFFFu;
  int busy = -1;
  int idle = -1;
  uint32_t not_running = 0;  // A VCPU no PCPU runs (4 VCPUs, some PCPU idle).
  auto find_pcpus = [&](const std::string& bytes) {
    std::set<uint32_t> running;
    for (int p = 0; p < 4; ++p) {
      uint32_t current = U32At(bytes, current_at(p));
      (current == kNone ? idle : busy) = p;
      running.insert(current);
    }
    ASSERT_GE(busy, 0);
    ASSERT_GE(idle, 0);
    while (running.count(not_running) > 0) {
      ++not_running;
    }
  };
  // A busy PCPU's VCPU listed as current on an idle PCPU too.
  std::string err = RestoreWithPatchedSection(Machine::kCkptSection, [&](std::string* bytes) {
    find_pcpus(*bytes);
    PutU32(bytes, current_at(idle), U32At(*bytes, current_at(busy)));
  });
  EXPECT_NE(err.find(" runs on pcpu " + std::to_string(std::min(busy, idle)) + " and pcpu " +
                     std::to_string(std::max(busy, idle))),
            std::string::npos)
      << err;
  // An idle PCPU listing a VCPU that is not running.
  err = RestoreWithPatchedSection(Machine::kCkptSection, [&](std::string* bytes) {
    find_pcpus(*bytes);
    PutU32(bytes, current_at(idle), not_running);
  });
  EXPECT_NE(err.find("machine: pcpu " + std::to_string(idle) + " runs VCPU "), std::string::npos)
      << err;
  EXPECT_NE(err.find(", which is not running"), std::string::npos) << err;
  // A busy PCPU listed idle while its VCPU is still running.
  err = RestoreWithPatchedSection(Machine::kCkptSection, [&](std::string* bytes) {
    find_pcpus(*bytes);
    PutU32(bytes, current_at(busy), kNone);
  });
  EXPECT_NE(err.find(" is running but no pcpu runs it"), std::string::npos) << err;
}

// The canonical scenario's committed digest trail (rtvirt_runner --seed=7
// --horizon-ms=1000 --record-digests=...). Any change to simulated state or
// schedule shows up as the first divergent interval and component; an
// intentional change re-records the file (DESIGN.md §10).
TEST(CheckpointGoldenTrailTest, CanonicalScenarioMatchesRecordedTrail) {
  std::string text;
  ASSERT_TRUE(ckpt::ReadFileToString(RTVIRT_GOLDEN_TRAIL, &text)) << RTVIRT_GOLDEN_TRAIL;
  std::vector<IntervalDigest> expected;
  ASSERT_EQ(ParseTrail(text, &expected), "");
  ASSERT_EQ(expected.size(), 20u);

  CkptScenarioOptions opt;
  opt.seed = 7;
  opt.horizon = Ms(1000);
  auto s = BuildCkptScenario(opt);
  s->Start();
  std::vector<IntervalDigest> actual;
  ASSERT_EQ(RecordDigestTrail(*s, Ms(50), 20, &actual), "");
  DivergenceReport report = CompareTrails(expected, actual);
  EXPECT_FALSE(report.diverged) << report.summary;
}

// The all-layers rig's committed trail, one boundary every 10 ms. Round trips
// compare a build against itself, so only recorded bytes catch a field that
// moved within a section; this rig fills the sections the canonical scenario
// leaves empty or at defaults (trust, idle tax, held demand, pins, gEDF,
// shed tasks, PCPU speeds, every fault counter). Each boundary's image also
// restores and continues to the same final bytes.
TEST(CheckpointGoldenTrailTest, AllLayersRigMatchesRecordedTrail) {
  std::string text;
  ASSERT_TRUE(ckpt::ReadFileToString(RTVIRT_GOLDEN_ALL_LAYERS_TRAIL, &text))
      << RTVIRT_GOLDEN_ALL_LAYERS_TRAIL;
  std::vector<IntervalDigest> expected;
  ASSERT_EQ(ParseTrail(text, &expected), "");
  ASSERT_EQ(expected.size(), 16u);

  EveryKindRig rig(/*all_layers=*/true);
  rig.Start();
  std::vector<IntervalDigest> actual;
  std::vector<ckpt::Image> images(16);
  std::vector<std::string> derived(16);  // What each image leaves to restore.
  bool gedf_registered = false;  // Registered and unpinned.
  for (int i = 0; i < 16; ++i) {
    TimeNs t = Ms(10) * (i + 1);
    rig.exp->Run(t);
    ASSERT_EQ(rig.exp->SaveCheckpoint(&images[i]), "") << "t=" << t;
    actual.push_back(IntervalDigest{i, t, ckpt::DigestOf(images[i])});
    derived[i] = rig.DerivedState();
    const Task* gedf = rig.rtas[8]->task();
    gedf_registered = gedf_registered || (gedf->registered() && gedf->vcpu_index() == -1);
  }
  const DpWrapScheduler* dp = rig.exp->dpwrap();
  EXPECT_EQ(dp->Affinity(rig.exp->guests()[0]->vm()->vcpu(0)), 0);
  EXPECT_GT(dp->stats().admission_rejections, 0u);
  EXPECT_GT(rig.exp->guests()[1]->overload_stats().sheds, 0u);
  EXPECT_TRUE(gedf_registered);
  DivergenceReport report = CompareTrails(expected, actual);
  EXPECT_FALSE(report.diverged) << report.summary << "\nthis build's trail:\n"
                                << TrailToText(actual);

  // The digests do not cover derived values, so each restore's rebuilt
  // values are compared with the saving run's, and the restored state
  // passes the plan and guest audits.
  const std::string end = images.back().Serialize();
  for (size_t i = 0; i + 1 < images.size(); ++i) {
    EveryKindRig b(/*all_layers=*/true);
    ASSERT_EQ(b.exp->RestoreCheckpoint(images[i]), "") << "split " << i;
    EXPECT_EQ(b.DerivedState(), derived[i]) << "split " << i;
    EXPECT_EQ(b.Audits(), std::vector<std::string>{}) << "split " << i;
    b.exp->Run(EveryKindRig::kHorizon);
    ckpt::Image end_b;
    ASSERT_EQ(b.exp->SaveCheckpoint(&end_b), "");
    EXPECT_EQ(end_b.Serialize(), end) << "split " << i;
  }
}

// ParseTrail's refusals, each naming the line: a good first line, then
// `second_line`.
std::string TrailError(const std::string& second_line) {
  std::vector<IntervalDigest> out;
  return ParseTrail("digest interval=0 t=50 combined=00ff sim=0a\n" + second_line + "\n", &out);
}

TEST(DigestTrailParseTest, IntervalMustBeAWholeNumber) {
  EXPECT_EQ(TrailError("digest interval=abc t=100 combined=01"),
            "trail line 2: interval= needs a whole number, got 'abc'");
  EXPECT_EQ(TrailError("digest interval=-1 t=100 combined=01"),
            "trail line 2: interval= needs a whole number, got '-1'");
}

TEST(DigestTrailParseTest, TimeMustBeAWholeNumber) {
  EXPECT_EQ(TrailError("digest interval=1 t=12x combined=01"),
            "trail line 2: t= needs a whole number, got '12x'");
}

TEST(DigestTrailParseTest, CombinedMustBeAHexDigest) {
  EXPECT_EQ(TrailError("digest interval=1 t=100 combined=xyz"),
            "trail line 2: bad combined digest 'xyz'");
}

TEST(DigestTrailParseTest, EveryLineNeedsIntervalTimeAndCombined) {
  EXPECT_EQ(TrailError("digest interval=1 combined=01"),
            "trail line 2: missing interval=/t=/combined= field");
}

TEST(CheckpointRoundTripTest, RestoreRequiresFreshExperiment) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto a = BuildCkptScenario(opt);
  a->Start();
  a->exp->Run(Ms(100));
  ckpt::Image image;
  ASSERT_EQ(a->exp->SaveCheckpoint(&image), "");
  std::string err = a->exp->RestoreCheckpoint(image);  // Already started.
  EXPECT_NE(err.find("freshly built"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Sweep resumed-attempt reporting.

TEST(CheckpointSweepTest, ResumedAttemptsAreDistinguishedFromColdRestarts) {
  char tmpl[] = "/tmp/rtvirt_ckpt_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  sweep::SweepConfig cfg;
  cfg.jobs = 1;
  cfg.max_attempts = 2;
  cfg.backoff_initial_ms = 1;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every_ms = 50;
  sweep::SweepReport rep =
      sweep::RunSweep(cfg, 1, [](const sweep::ShardContext& ctx) {
        CkptScenarioOptions opt;
        opt.seed = ctx.seed;
        opt.horizon = Ms(200);
        auto s = BuildCkptScenario(opt);
        sweep::ShardResult r;
        TimeNs start_t = 0;
        std::string bytes;
        if (ckpt::ReadFileToString(ctx.checkpoint_path, &bytes)) {
          ckpt::Image image;
          std::string err = ckpt::Image::Parse(bytes, &image);
          if (err.empty()) {
            err = s->exp->RestoreCheckpoint(image);
          }
          if (!err.empty()) {
            r.ok = false;
            r.reason = err;
            return r;
          }
          start_t = s->exp->sim().Now();
          r.resumed = true;
          r.resume_point_ns = start_t;
        } else {
          s->Start();
        }
        for (TimeNs b = Ms(50); b <= Ms(200); b += Ms(50)) {
          if (b <= start_t) {
            continue;
          }
          s->exp->Run(b);
          if (ctx.attempt == 1 && b == Ms(150)) {
            r.ok = false;
            r.reason = "injected failure";
            return r;  // Fails before persisting this boundary.
          }
          ckpt::Image image;
          std::string err = s->exp->SaveCheckpoint(&image);
          if (err.empty()) {
            err = ckpt::WriteFileAtomic(ctx.checkpoint_path, image.Serialize());
          }
          if (!err.empty()) {
            r.ok = false;
            r.reason = err;
            return r;
          }
        }
        r.report = "done t=" + std::to_string(s->exp->sim().Now()) + "\n";
        return r;
      });

  std::remove((std::string(dir) + "/shard.0.ckpt").c_str());
  ::rmdir(dir);

  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.recovered, 1);
  EXPECT_EQ(rep.resumed, 1);
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_TRUE(rep.shards[0].resumed);
  EXPECT_EQ(rep.shards[0].resume_point_ns, Ms(100));  // Last persisted boundary.
  std::string merged = rep.Merged();
  EXPECT_NE(merged.find("resumed@100000000ns"), std::string::npos) << merged;
  EXPECT_NE(merged.find("resumed=1"), std::string::npos) << merged;
}

// ---------------------------------------------------------------------------
// Federated snapshots: per-host checkpoints taken at the lock-step barrier
// restore into a rebuilt federation and continue byte-identically.

struct FedFixture {
  std::unique_ptr<Federation> fed;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
};

std::unique_ptr<FedFixture> BuildFed() {
  auto f = std::make_unique<FedFixture>();
  FederationConfig config;
  config.num_hosts = 2;
  config.pcpus_per_host = 2;
  config.policy = PlacementPolicy::kFirstFit;
  ExperimentConfig tmpl;
  f->fed = std::make_unique<Federation>(config, tmpl);
  auto* rtas = &f->rtas;
  f->fed->SetLauncher([rtas](Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec,
                             int /*host*/, int /*generation*/) {
    RtaParams params;
    params.slice = Ms(2);
    params.period = Ms(10);
    auto rta = std::make_unique<PeriodicRta>(guest, spec.name + ".rta", params);
    rta->Start(0, Sec(1));
    exp.RegisterCheckpointable(rta->ckpt_section(), rta.get());
    rtas->push_back(std::move(rta));
  });
  ClusterVmSpec a;
  a.name = "vma";
  a.vcpus = 1;
  a.bandwidth = Bandwidth::FromDouble(0.5);
  ClusterVmSpec b = a;
  b.name = "vmb";
  EXPECT_TRUE(f->fed->AdmitVm(a).has_value());
  EXPECT_TRUE(f->fed->AdmitVm(b).has_value());
  return f;
}

TEST(CheckpointFederationTest, BarrierSnapshotRestoresAndContinuesByteIdentical) {
  auto live = BuildFed();
  live->fed->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(live->fed->SaveCheckpoint(&mid), "");
  live->fed->Run(Ms(600));
  ckpt::Image end_live;
  ASSERT_EQ(live->fed->SaveCheckpoint(&end_live), "");

  auto restored = BuildFed();  // Identical construction, never Run.
  ASSERT_EQ(restored->fed->RestoreCheckpoint(mid), "");
  EXPECT_EQ(restored->fed->now(), Ms(300));
  restored->fed->Run(Ms(600));
  ckpt::Image end_restored;
  ASSERT_EQ(restored->fed->SaveCheckpoint(&end_restored), "");

  EXPECT_EQ(end_live.Serialize(), end_restored.Serialize());
}

TEST(CheckpointFederationDeathTest, FailedHostRestoreLeavesFederationUnusable) {
  auto live = BuildFed();
  live->fed->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(live->fed->SaveCheckpoint(&mid), "");
  for (ckpt::Section& s : mid.sections) {
    if (s.name == "host.0") {
      ckpt::Image host;
      ASSERT_EQ(ckpt::Image::Parse(s.bytes, &host), "");
      TruncateSection(&host, "events");
      s.bytes = host.Serialize();
    }
  }
  auto restored = BuildFed();
  std::string err = restored->fed->RestoreCheckpoint(mid);
  EXPECT_NE(err.find("host 0: checkpoint: truncated section 'events'"), std::string::npos)
      << err;
  ckpt::Image out;
  std::string unusable = restored->fed->SaveCheckpoint(&out);
  EXPECT_EQ(unusable, "federation: unusable after a failed restore (" + err + ")");
  EXPECT_EQ(restored->fed->RestoreCheckpoint(mid), unusable);
  EXPECT_DEATH(restored->fed->Run(Ms(600)), "Run after a failed restore: federation");
}

TEST(CheckpointFederationTest, RestoreRejectsMismatchedCluster) {
  auto live = BuildFed();
  live->fed->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(live->fed->SaveCheckpoint(&mid), "");

  // A cluster with a different host count must refuse the image loudly.
  FederationConfig config;
  config.num_hosts = 3;
  config.pcpus_per_host = 2;
  ExperimentConfig tmpl;
  Federation other(config, tmpl);
  std::string err = other.RestoreCheckpoint(mid);
  EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

}  // namespace
}  // namespace rtvirt
