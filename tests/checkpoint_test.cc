// Checkpoint/restore (DESIGN.md §10): RNG state round-trip, corruption
// loudness (truncation / CRC / version / section count), byte-identical
// resumed continuation (canonical scenario, and every checkpointable event
// kind live across a split), the committed golden digest trail, sweep
// resumed-attempt reporting, federated snapshot round-trip, and the
// save-path and registry rejections.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/cluster/federation.h"
#include "src/common/rng.h"
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
  // u32 version sits right after the 8-byte magic (little-endian).
  bytes[8] = 99;
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("unknown schema version 99"), std::string::npos) << err;
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

TEST(CheckpointRoundTripTest, CalendarBackendContinuesByteIdentical) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(600);

  auto a = BuildCkptScenario(opt);
  a->Start();
  a->exp->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(a->exp->SaveCheckpoint(&mid), "");
  a->exp->Run(Ms(600));
  ckpt::Image end_a;
  ASSERT_EQ(a->exp->SaveCheckpoint(&end_a), "");

  auto b = BuildCkptScenario(opt);  // NOT started: restore rebuilds the chains.
  ASSERT_EQ(b->exp->RestoreCheckpoint(mid), "");
  EXPECT_EQ(b->exp->sim().Now(), Ms(300));
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
// FaultPlan event kind. 2 PCPUs, 4 VMs x 2 VCPUs.
struct EveryKindRig {
  std::unique_ptr<Experiment> exp;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;

  static constexpr TimeNs kHorizon = Ms(160);

  EveryKindRig() {
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
        rtas.push_back(std::make_unique<PeriodicRta>(
            g, "vm" + std::to_string(vm) + ".rta" + std::to_string(k), params));
        rtas.back()->set_admission_retry(Ms(3));
        exp->RegisterCheckpointable(rtas.back()->ckpt_section(), rtas.back().get());
      }
    }
  }

  // Fresh path only. Registrations start after Run() has armed the injector
  // (one lands inside the hypercall outage, driving a channel into repair).
  void Start() {
    for (size_t i = 0; i < rtas.size(); ++i) {
      rtas[i]->Start(i == 5 ? Ms(35) : Ms(1 + static_cast<int64_t>(i)), kHorizon);
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
  cfg.isolation = sweep::Isolation::kThread;
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
