// Differential test of DP-WRAP's planner against the reference model in
// tests/dpwrap_reference.h. Each seed drives a DpWrapScheduler on a bare
// machine (no guests, so no VCPU ever wakes) with a random sequence of
// INC/DEC/INC_DEC hypercalls, deadline publications, affinity pins, PCPU
// capacity changes and time steps, mirrors every accepted change into the
// reference, and compares every replan:
//   - on pin-free, full-speed machines, the global deadline and every
//     emitted segment exactly;
//   - with pins, and on pcpu_recovery machines with an offline or throttled
//     core, the global deadline, each VCPU's allocation in effective ns, and
//     the layout's properties: per-PCPU segments disjoint and inside the
//     slice, a split VCPU's pieces disjoint in time, at most m-1 split VCPUs
//     when nothing is pinned, each pinned VCPU at the head of its PCPU's
//     chunk, and no segment on an offline core.
// Reservation changes keep the reserved total (and each PCPU's pinned total)
// below the planning capacity by kMarginPpb, the domain in which a share
// always fits its slice; requests beyond capacity are made too, and must be
// rejected as the reference predicts.

#include "tests/dpwrap_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

enum class Mode { kPinFree, kPinned, kDegraded };

// Headroom every accepted reservation change leaves below capacity: more
// than the one ns per reservation that flooring can add to a slice's shares
// (the shortest slice is 250 us, so 4000 ppb per reservation).
constexpr int64_t kMarginPpb = 2'000'000;
constexpr int64_t kUnit = ReferencePlanner::kUnit;
constexpr int kSteps = 400;

std::string Str(TimeNs t) { return std::to_string(t); }

class Differential {
 public:
  Differential(Mode mode, uint64_t seed) : mode_(mode), rng_(seed) {
    int m = mode == Mode::kDegraded ? 2 + Uniform(3) : 1 + Uniform(4);
    machine_ = std::make_unique<Machine>(&sim_, ZeroCostMachine(m));
    DpWrapConfig cfg;
    cfg.pcpu_recovery.enabled = mode == Mode::kDegraded;
    auto dp = std::make_unique<DpWrapScheduler>(cfg);
    dp_ = dp.get();
    machine_->SetScheduler(std::move(dp));
    for (int vm = 1 + Uniform(3); vm > 0; --vm) {
      Vm* v = machine_->AddVm("vm" + std::to_string(vm));
      for (int k = 1 + Uniform(3); k > 0; --k) {
        vcpus_.push_back(v->AddVcpu());
      }
    }
    published_.assign(vcpus_.size(), kTimeNever);
    pins_.assign(vcpus_.size(), -1);
    ref_ = std::make_unique<ReferencePlanner>(m, cfg.min_global_slice);
  }

  // Runs the sequence; returns the first disagreement, or "".
  std::string Run() {
    machine_->Start();
    std::string err = Settle(0);
    for (int step = 0; step < kSteps && err.empty(); ++step) {
      Act();
      err = Settle(sim_.Now());
      if (err.empty()) {
        err = Advance();
      }
    }
    if (err.empty() && compared_ < kSteps / 2) {
      err = "only " + std::to_string(compared_) + " replans compared";
    }
    return err;
  }

 private:
  int Uniform(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }
  int64_t UniformPpb(double lo, double hi) {
    return static_cast<int64_t>(std::uniform_real_distribution<double>(lo, hi)(rng_) *
                                static_cast<double>(kUnit));
  }
  int m() const { return machine_->num_pcpus(); }
  int n() const { return static_cast<int>(vcpus_.size()); }

  // The speed the planner plans PCPU k at: its real speed (0 offline) with
  // pcpu_recovery, full speed without.
  int64_t Speed(int k) const {
    const Pcpu* p = machine_->pcpu(k);
    if (mode_ != Mode::kDegraded) {
      return kUnit;
    }
    return p->online() ? p->speed_ppb() : 0;
  }
  int64_t Capacity() const {
    return mode_ == Mode::kDegraded ? machine_->EffectiveCapacity().ppb() : m() * kUnit;
  }
  // The PCPU a reservation is laid on first; a pin to a dead core wraps.
  int PinOf(int gid) const {
    int pin = pins_[gid];
    return pin >= 0 && Speed(pin) > 0 ? pin : -1;
  }
  int64_t PinnedPpb(int pcpu, int except_gid) const {
    int64_t sum = 0;
    for (int gid = 0; gid < n(); ++gid) {
      if (gid != except_gid && pins_[gid] == pcpu) {
        sum += ref_->bw(gid);
      }
    }
    return sum;
  }
  // Whether `gid` holding `bw` (the rest unchanged) stays in the domain.
  bool Fits(int gid, int64_t bw, int64_t total) const {
    if (total > Capacity() - kMarginPpb) {
      return false;
    }
    int pin = pins_[gid];
    return pin < 0 || bw == 0 || PinnedPpb(pin, gid) + bw <= Speed(pin) - kMarginPpb;
  }
  TimeNs RandomPeriod() {
    static constexpr TimeNs kPeriods[] = {Ms(1), Ms(2), Ms(5), Ms(10), Ms(20), Ms(50), Ms(150)};
    return kPeriods[Uniform(7)];
  }

  int64_t Call(SchedOp op, int a, int64_t bw_a, TimeNs period_a, int b = -1, int64_t bw_b = 0,
               TimeNs period_b = 0) {
    HypercallArgs args;
    args.op = op;
    args.vcpu_a = vcpus_[a];
    args.bw_a = Bandwidth::FromPpb(bw_a);
    args.period_a = period_a;
    if (b >= 0) {
      args.vcpu_b = vcpus_[b];
      args.bw_b = Bandwidth::FromPpb(bw_b);
      args.period_b = period_b;
    }
    return machine_->Hypercall(vcpus_[a], args);
  }

  void Expect(int64_t rc, int64_t want, const char* what) {
    if (rc != want && error_.empty()) {
      error_ = std::string(what) + " returned " + std::to_string(rc) + ", reference expects " +
               std::to_string(want);
    }
  }

  // One random action, mirrored into the reference.
  void Act() {
    TimeNs now = sim_.Now();
    int gid = Uniform(n());
    int64_t cur = ref_->bw(gid);
    int64_t total = ref_->total_ppb();
    int roll = Uniform(100);
    if (roll < 30) {  // INC_BW: a new or raised reservation.
      int64_t bw = std::min(kUnit, cur + UniformPpb(0.01, 0.5));
      TimeNs period = RandomPeriod();
      int64_t after = total - cur + bw;
      if (after > Capacity() + 64) {
        Expect(Call(SchedOp::kIncBw, gid, bw, period), kHypercallNoBandwidth, "INC_BW");
      } else if (Fits(gid, bw, after)) {
        Expect(Call(SchedOp::kIncBw, gid, bw, period), kHypercallOk, "INC_BW");
        ref_->Set(gid, bw, period);
      }
    } else if (roll < 50) {  // DEC_BW: shrink or release.
      if (cur > 0) {
        int64_t bw = Uniform(3) == 0
                         ? 0
                         : std::min(cur, std::max(kUnit / 100, cur * (1 + Uniform(9)) / 10));
        TimeNs period = bw == 0 ? ref_->period(gid) : RandomPeriod();
        Expect(Call(SchedOp::kDecBw, gid, bw, period), kHypercallOk, "DEC_BW");
        ref_->Set(gid, bw, period);
      }
    } else if (roll < 65) {  // INC_DEC_BW: move bandwidth from donor b to a.
      int b = Uniform(n());
      int64_t cur_b = ref_->bw(b);
      if (b == gid || cur_b == 0) {
        return;
      }
      int64_t delta =
          Uniform(3) == 0 ? cur_b : std::max(int64_t{1}, cur_b * (1 + Uniform(9)) / 10);
      bool overask = Uniform(5) == 0;  // Ask for more than the donor frees.
      int64_t bw_a = std::min(kUnit, cur + delta + (overask ? UniformPpb(0.3, 1.0) : 0));
      TimeNs period_a = RandomPeriod();
      TimeNs period_b = ref_->period(b);
      int64_t after = total - delta - cur + bw_a;
      if (after > Capacity() + 64) {
        Expect(Call(SchedOp::kIncDecBw, gid, bw_a, period_a, b, cur_b - delta, period_b),
               kHypercallNoBandwidth, "INC_DEC_BW");
        // The donor is rolled back; a released donor is created anew.
        ref_->Set(b, cur_b - delta, period_b);
        ref_->Set(b, cur_b, period_b);
      } else if (Fits(gid, bw_a, after)) {
        Expect(Call(SchedOp::kIncDecBw, gid, bw_a, period_a, b, cur_b - delta, period_b),
               kHypercallOk, "INC_DEC_BW");
        ref_->Set(b, cur_b - delta, period_b);
        ref_->Set(gid, bw_a, period_a);
      }
    } else if (roll < 85) {  // A deadline publication: none, stale or future.
      int kind = Uniform(10);
      TimeNs d = kind == 0   ? kTimeNever
                 : kind < 3 ? now - Uniform(5000) * Us(1)
                            : now + Uniform(40000) * Us(1);
      vcpus_[gid]->vm()->shared_page().PublishNextDeadline(vcpus_[gid]->index(), d);
      published_[gid] = d;
    } else if (roll < 93) {  // An affinity pin.
      if (mode_ == Mode::kPinFree) {
        return;
      }
      int pcpu = Uniform(m() + 1) - 1;
      if (pcpu >= 0 && cur > 0 && PinnedPpb(pcpu, gid) + cur > Speed(pcpu) - kMarginPpb) {
        return;
      }
      pins_[gid] = pcpu;
      dp_->SetAffinity(vcpus_[gid], pcpu);
    } else {  // A capacity change.
      if (mode_ != Mode::kDegraded) {
        return;
      }
      int k = Uniform(m());
      Pcpu* p = machine_->pcpu(k);
      bool online = Uniform(3) == 0 ? !p->online() : p->online();
      static constexpr double kSpeeds[] = {0.5, 0.75, 1.0};
      double speed = kSpeeds[Uniform(3)];
      int64_t speed_ppb = static_cast<int64_t>(speed * static_cast<double>(kUnit));
      int64_t capacity = Capacity() - Speed(k) + (online ? speed_ppb : 0);
      if (machine_->num_online_pcpus() - (p->online() && !online ? 1 : 0) == 0 ||
          total > capacity - kMarginPpb ||
          (online && PinnedPpb(k, -1) > speed_ppb - kMarginPpb)) {
        return;
      }
      machine_->SetPcpuSpeed(k, speed);
      machine_->SetPcpuOnline(k, online);
    }
  }

  // Runs the events due at `until` (and before); compares the replan they
  // made, if any.
  std::string Settle(TimeNs until) {
    sim_.RunUntil(until);
    if (!error_.empty()) {
      return error_;
    }
    uint64_t replans = dp_->replans();
    if (replans == replans_) {
      return "";
    }
    if (replans != replans_ + 1) {
      return std::to_string(replans - replans_) + " replans between two looks at t=" + Str(until);
    }
    replans_ = replans;
    ++compared_;
    ref_->Replan(
        sim_.Now(), [this](int gid) { return published_[gid]; },
        [this](int gid) { return PinOf(gid); });
    std::string err = Compare();
    return err.empty() ? "" : "replan " + std::to_string(replans) + " at t=" + Str(sim_.Now()) +
                                  ": " + err;
  }

  // Moves time on by a random step, stopping at every slice end on the way.
  std::string Advance() {
    TimeNs next = sim_.Now() + (Uniform(10) == 0 ? 0 : 1 + Uniform(8000) * Us(1));
    while (dp_->plan().end <= next) {
      std::string err = Settle(dp_->plan().end);
      if (!err.empty()) {
        return err;
      }
    }
    return Settle(next);
  }

  std::string Compare() const {
    DpWrapScheduler::PlanView plan = dp_->plan();
    if (plan.start != ref_->slice_start() || plan.end != ref_->slice_end()) {
      return "global deadline: slice [" + Str(plan.start) + ", " + Str(plan.end) +
             "), reference [" + Str(ref_->slice_start()) + ", " + Str(ref_->slice_end()) + ")";
    }
    std::vector<ReferencePlanner::Segment> segs;
    for (const DpWrapScheduler::PlanSegment& s : plan.segments) {
      segs.push_back({s.vcpu->global_id(), s.pcpu, s.start, s.end});
    }
    if (mode_ == Mode::kPinFree) {
      if (segs != ref_->segments()) {
        return "segments differ: " + Dump(segs) + " reference " + Dump(ref_->segments());
      }
      return "";
    }

    // Each VCPU's allocation, in effective ns.
    std::vector<TimeNs> alloc(n(), 0);
    std::vector<int> pieces(n(), 0);
    for (const auto& s : segs) {
      alloc[s.gid] += SpeedWallToWork(s.end - s.start, Speed(s.pcpu));
      ++pieces[s.gid];
    }
    for (int gid = 0; gid < n(); ++gid) {
      if (alloc[gid] != ref_->share(gid)) {
        return "allocation of VCPU " + std::to_string(gid) + ": " + Str(alloc[gid]) +
               " ns, reference " + Str(ref_->share(gid)) + " ns";
      }
    }
    // Per PCPU: inside the slice and disjoint; nothing on an offline core.
    for (int k = 0; k < m(); ++k) {
      std::vector<ReferencePlanner::Segment> on;
      for (const auto& s : segs) {
        if (s.pcpu == k) {
          on.push_back(s);
        }
      }
      std::sort(on.begin(), on.end(),
                [](const auto& a, const auto& b) { return a.start < b.start; });
      if (!on.empty() && Speed(k) == 0) {
        return "segment on offline pcpu " + std::to_string(k) + ": " + Dump(on);
      }
      for (size_t i = 0; i < on.size(); ++i) {
        if (on[i].start < plan.start || on[i].end > plan.end || on[i].start >= on[i].end) {
          return "segment outside the slice on pcpu " + std::to_string(k) + ": " + Dump(on);
        }
        if (i > 0 && on[i].start < on[i - 1].end) {
          return "segments overlap on pcpu " + std::to_string(k) + ": " + Dump(on);
        }
      }
      // The pinned reservations lead the chunk, in layout order.
      TimeNs head = plan.start;
      size_t i = 0;
      for (int gid : ref_->layout()) {
        if (PinOf(gid) != k || ref_->share(gid) == 0) {
          continue;
        }
        TimeNs wall = SpeedWorkToWall(ref_->share(gid), Speed(k));
        if (i >= on.size() || on[i] != ReferencePlanner::Segment{gid, k, head, head + wall} ||
            pieces[gid] != 1) {
          return "pinned VCPU " + std::to_string(gid) + " not at the head of pcpu " +
                 std::to_string(k) + ": " + Dump(on);
        }
        head += wall;
        ++i;
      }
    }
    // A VCPU the wrap splits across two neighboring chunks runs its two
    // pieces at different times. src/rtvirt/wrap_layout.h promises no more:
    // the leftover pass, which starts again at chunk 0 once the wrap has
    // passed every chunk, may overlap a sibling piece (the dispatcher
    // serializes those); on a throttled core straddle safety is best effort;
    // and the straddle check measures the continuation against the next
    // chunk only, so one that skips an offline or full chunk is unchecked.
    size_t wrap = 0;  // The pinned pieces come first, one per VCPU.
    bool pinned = false;
    int split = 0;
    for (int gid = 0; gid < n(); ++gid) {
      bool pins = PinOf(gid) >= 0 && ref_->share(gid) > 0;
      pinned = pinned || pins;
      wrap += pins ? 1 : 0;
      split += pieces[gid] > 1 ? 1 : 0;
    }
    size_t leftover = wrap;  // The first piece the leftover pass placed.
    while (leftover < segs.size() &&
           (leftover == wrap || segs[leftover].pcpu >= segs[leftover - 1].pcpu)) {
      ++leftover;
    }
    for (int gid = 0; gid < n(); ++gid) {
      std::vector<ReferencePlanner::Segment> mine;
      for (size_t i = wrap; i < leftover; ++i) {
        if (segs[i].gid == gid) {
          mine.push_back(segs[i]);
        }
      }
      if (mine.size() == 2 && pieces[gid] == 2 && mine[1].pcpu == mine[0].pcpu + 1 &&
          Speed(mine[0].pcpu) == kUnit && Speed(mine[1].pcpu) == kUnit &&
          mine[1].end > mine[0].start) {
        return "pieces of VCPU " + std::to_string(gid) + " overlap in time: " + Dump(mine);
      }
    }
    if (!pinned && split > m() - 1) {
      return std::to_string(split) + " VCPUs split on " + std::to_string(m()) +
             " PCPUs: " + Dump(segs);
    }
    return "";
  }

  static std::string Dump(const std::vector<ReferencePlanner::Segment>& segs) {
    std::string out = "{";
    for (const auto& s : segs) {
      out += " v" + std::to_string(s.gid) + "@p" + std::to_string(s.pcpu) + "[" + Str(s.start) +
             "," + Str(s.end) + ")";
    }
    return out + " }";
  }

  Mode mode_;
  std::mt19937_64 rng_;
  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  DpWrapScheduler* dp_ = nullptr;
  std::vector<Vcpu*> vcpus_;        // By global id.
  std::vector<TimeNs> published_;  // By global id.
  std::vector<int> pins_;          // By global id; -1 = none.
  std::unique_ptr<ReferencePlanner> ref_;
  uint64_t replans_ = 0;
  int compared_ = 0;
  std::string error_;
};

class DpWrapReferenceTest : public ::testing::TestWithParam<std::tuple<Mode, int>> {};

TEST_P(DpWrapReferenceTest, EveryReplanMatchesTheReference) {
  auto [mode, seed] = GetParam();
  EXPECT_EQ(Differential(mode, static_cast<uint64_t>(seed)).Run(), "");
}

std::string ParamName(const ::testing::TestParamInfo<std::tuple<Mode, int>>& info) {
  static constexpr const char* kModes[] = {"PinFree", "Pinned", "Degraded"};
  return std::string(kModes[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpWrapReferenceTest,
                         ::testing::Combine(::testing::Values(Mode::kPinFree, Mode::kPinned,
                                                              Mode::kDegraded),
                                            ::testing::Range(1, 25)),
                         ParamName);

}  // namespace
}  // namespace rtvirt
