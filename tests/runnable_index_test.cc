// The machine's runnable-VCPU index and its dispatchable walk, checked
// against the linear scans the host schedulers' picks ran before the index.
// Each seed drives a DP-WRAP, a Credit or a server-EDF machine through a
// random sequence of VCPU wakes and blocks (some from inside the revoke
// callback), tickles, PCPU offline/online and speed changes, VM crashes and
// restarts, injected overhead, deadline publications and VCPU hotplug past
// the 64-VCPU word boundary. After every dispatch and every step it checks
// that
//   - the index holds exactly the runnable VCPUs, and
//   - for every PCPU and every start cursor, Machine::FindDispatchable
//     visits exactly the VCPUs the old predicate accepts, in the old cyclic
//     order, and stops at the first one its visitor accepts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/credit.h"
#include "src/baselines/server_edf.h"
#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"

namespace rtvirt {
namespace {

enum class Host { kDpWrap, kCredit, kServerEdf };

constexpr int kSteps = 600;
constexpr int kVms = 6;
constexpr int kVcpusPerVm = 10;
constexpr size_t kMaxVcpus = 72;  // Hotplug grows the machine past one index word.

// The candidate test of every pick before the index: runnable, or running on
// this PCPU.
bool OldPredicate(const Vcpu* v, const Pcpu* p) {
  return v->runnable() || (v->running() && v->pcpu() == p);
}

// Runs whatever it is granted; on a revoke it sometimes blocks at once, as a
// guest whose last job completed at that instant does.
class RevokeBlockingClient : public VcpuClient {
 public:
  explicit RevokeBlockingClient(std::mt19937_64* rng) : rng_(rng) {}
  void OnVcpuGranted(Vcpu* /*vcpu*/) override {}
  void OnVcpuRevoked(Vcpu* vcpu) override {
    if ((*rng_)() % 8 == 0) {
      vcpu->Block();
    }
  }

 private:
  std::mt19937_64* rng_;
};

class Driver {
 public:
  Driver(Host host, uint64_t seed) : rng_(seed), client_(&rng_) {
    MachineConfig mc;
    mc.num_pcpus = 2 + Uniform(3);
    machine_ = std::make_unique<Machine>(&sim_, mc);
    if (host == Host::kDpWrap) {
      DpWrapConfig cfg;
      cfg.pcpu_recovery.enabled = seed % 2 == 0;
      auto dp = std::make_unique<DpWrapScheduler>(cfg);
      dpwrap_ = dp.get();
      machine_->SetScheduler(std::move(dp));
    } else if (host == Host::kCredit) {
      CreditConfig cfg;
      cfg.timeslice = Ms(5);
      auto credit = std::make_unique<CreditScheduler>(cfg);
      credit_ = credit.get();
      machine_->SetScheduler(std::move(credit));
    } else {
      ServerEdfConfig cfg;
      cfg.quantum = seed % 2 == 0 ? Us(500) : 0;
      auto edf = std::make_unique<ServerEdfScheduler>(cfg);
      server_edf_ = edf.get();
      machine_->SetScheduler(std::move(edf));
    }
    for (int vm = 0; vm < kVms; ++vm) {
      machine_->AddVm("vm" + std::to_string(vm));
      for (int k = 0; k < kVcpusPerVm; ++k) {
        AddVcpu(vm);
      }
    }
    machine_->SetDispatchTracer([this](TimeNs, const Pcpu&, const Vcpu&, bool) {
      ++dispatches_;
      Check("dispatch");
    });
  }

  // Runs the sequence; returns the first disagreement, or "".
  std::string Run() {
    ReserveSome();
    machine_->Start();
    for (int step = 0; step < kSteps && error_.empty(); ++step) {
      Act();
      Check("step " + std::to_string(step));
      sim_.RunUntil(sim_.Now() + Us(Uniform(400)));
      Check("after step " + std::to_string(step));
    }
    if (error_.empty() && dispatches_ < 100) {
      error_ = "only " + std::to_string(dispatches_) + " dispatches";
    }
    if (error_.empty() && vcpus_.size() <= 64) {
      error_ = "hotplug never crossed the index's first word";
    }
    return error_;
  }

 private:
  int Uniform(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }
  int m() const { return machine_->num_pcpus(); }

  void AddVcpu(int vm) {
    Vcpu* v = machine_->vm(vm)->AddVcpu();
    v->set_client(&client_);
    vcpus_.push_back(v);
  }

  // Gives about a third of the VCPUs a host-level share, so the picks see
  // reserved and best-effort VCPUs side by side.
  void ReserveSome() {
    static constexpr TimeNs kPeriods[] = {Ms(1), Ms(2), Ms(5), Ms(10)};
    for (size_t g = 0; g < vcpus_.size(); g += 3) {
      Vcpu* v = vcpus_[g];
      TimeNs period = kPeriods[Uniform(4)];
      double share = 0.02 + 0.01 * Uniform(6);
      if (dpwrap_ != nullptr) {
        HypercallArgs args;
        args.op = SchedOp::kIncBw;
        args.vcpu_a = v;
        args.bw_a = Bandwidth::FromDouble(share);
        args.period_a = period;
        ASSERT_EQ(machine_->Hypercall(v, args), kHypercallOk) << v->name();
      } else if (server_edf_ != nullptr) {
        server_edf_->SetServer(v, ServerParams{static_cast<TimeNs>(share * period), period});
      } else {
        credit_->SetCap(v, Bandwidth::FromDouble(0.2 + share));
      }
    }
  }

  // One random action.
  void Act() {
    Vcpu* v = vcpus_[Uniform(static_cast<int>(vcpus_.size()))];
    Pcpu* p = machine_->pcpu(Uniform(m()));
    int roll = Uniform(100);
    if (roll < 30) {
      v->Wake();
    } else if (roll < 52) {
      v->Block();
    } else if (roll < 60) {
      p->RequestReschedule();
    } else if (roll < 66) {
      if (!p->online() || machine_->num_online_pcpus() > 1) {
        machine_->SetPcpuOnline(p->id(), !p->online());
      }
    } else if (roll < 72) {
      static constexpr double kSpeeds[] = {0.5, 0.75, 1.0};
      machine_->SetPcpuSpeed(p->id(), kSpeeds[Uniform(3)]);
    } else if (roll < 76) {
      machine_->CrashVm(v->vm());
    } else if (roll < 82) {
      machine_->RestartVm(v->vm());
    } else if (roll < 90) {
      p->InjectOverhead(Us(1 + Uniform(50)));
    } else if (roll < 94) {
      if (vcpus_.size() < kMaxVcpus) {
        AddVcpu(Uniform(kVms));
      }
    } else {
      // A deadline publication: a DP-WRAP replan input, ignored elsewhere.
      v->vm()->shared_page().PublishNextDeadline(v->index(),
                                                 sim_.Now() + Us(250 + Uniform(20000)));
    }
  }

  // Records the first disagreement between the index, the walk and the old
  // linear scan.
  void Check(const std::string& where) {
    if (!error_.empty()) {
      return;
    }
    const size_t n = vcpus_.size();
    std::span<const uint64_t> index = machine_->runnable_index();
    if (index.size() != (n + 63) / 64) {
      error_ = where + ": index has " + std::to_string(index.size()) + " words for " +
               std::to_string(n) + " VCPUs";
      return;
    }
    for (size_t g = 0; g < index.size() * 64; ++g) {
      bool indexed = (index[g / 64] >> (g % 64)) & 1;
      if (indexed != (g < n && vcpus_[g]->runnable())) {
        error_ = where + ": index bit " + std::to_string(g) + " reads " +
                 std::to_string(indexed) + " against the VCPU state";
        return;
      }
    }
    for (int k = 0; k < m(); ++k) {
      const Pcpu* p = machine_->pcpu(k);
      for (size_t from = 0; from < n; ++from) {
        want_.clear();
        for (size_t i = 0; i < n; ++i) {
          Vcpu* v = vcpus_[(from + i) % n];
          if (OldPredicate(v, p)) {
            want_.push_back(v);
          }
        }
        // A visitor that never accepts sees every candidate.
        seen_.clear();
        Vcpu* got = machine_->FindDispatchable(p, from, [&](Vcpu* v) {
          seen_.push_back(v);
          return false;
        });
        if (got != nullptr || seen_ != want_) {
          error_ = where + ": pcpu " + std::to_string(k) + " from " + std::to_string(from) +
                   " walks " + Names(seen_) + ", the old scan " + Names(want_);
          return;
        }
        // One that accepts candidate number `stop` (none when it is
        // want_.size()) ends the walk there.
        size_t stop = from % (want_.size() + 1);
        size_t visits = 0;
        got = machine_->FindDispatchable(p, from, [&](Vcpu*) { return visits++ == stop; });
        Vcpu* expected = stop < want_.size() ? want_[stop] : nullptr;
        if (got != expected || visits != std::min(stop + 1, want_.size())) {
          error_ = where + ": pcpu " + std::to_string(k) + " from " + std::to_string(from) +
                   " stopping at candidate " + std::to_string(stop) + " returned " +
                   (got != nullptr ? got->name() : "none") + " after " +
                   std::to_string(visits) + " visits";
          return;
        }
      }
    }
  }

  static std::string Names(const std::vector<Vcpu*>& vcpus) {
    std::string out = "[";
    for (const Vcpu* v : vcpus) {
      out += " " + std::to_string(v->global_id());
    }
    return out + " ]";
  }

  std::mt19937_64 rng_;
  RevokeBlockingClient client_;
  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  DpWrapScheduler* dpwrap_ = nullptr;
  CreditScheduler* credit_ = nullptr;
  ServerEdfScheduler* server_edf_ = nullptr;
  std::vector<Vcpu*> vcpus_;
  std::vector<Vcpu*> want_;  // Check's scratch.
  std::vector<Vcpu*> seen_;
  uint64_t dispatches_ = 0;
  std::string error_;
};

class RunnableIndexTest : public ::testing::TestWithParam<std::tuple<Host, int>> {};

TEST_P(RunnableIndexTest, WalkMatchesOldScan) {
  auto [host, seed] = GetParam();
  Driver driver(host, static_cast<uint64_t>(seed));
  EXPECT_EQ(driver.Run(), "");
}

std::string ParamName(const ::testing::TestParamInfo<std::tuple<Host, int>>& info) {
  static constexpr const char* kHosts[] = {"DpWrap", "Credit", "ServerEdf"};
  return std::string(kHosts[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunnableIndexTest,
                         ::testing::Combine(::testing::Values(Host::kDpWrap, Host::kCredit,
                                                              Host::kServerEdf),
                                            ::testing::Range(1, 4)),
                         ParamName);

TEST(RunnableIndex, EmptyMachineFindsNothing) {
  Simulator sim;
  Machine machine(&sim, MachineConfig{});
  machine.SetScheduler(std::make_unique<DpWrapScheduler>());
  EXPECT_TRUE(machine.runnable_index().empty());
  EXPECT_EQ(machine.FindDispatchable(machine.pcpu(0), 0, [](Vcpu*) { return true; }), nullptr);
}

}  // namespace
}  // namespace rtvirt
