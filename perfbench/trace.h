// Boundary tracing for the benchmark's traced run.
//
// The simulator has four virtual boundaries between its layers: the host
// scheduler (hv -> DP-WRAP), the guest cross-layer policy (guest -> channel ->
// hypercall), the VCPU client (hv -> guest) and the job observer (guest ->
// metrics). The decorators below wrap the real objects at those boundaries and
// forward every hook unchanged; around each forwarded call they open a span in
// a SpanRecorder, which keeps per-boundary aggregates in memory: call count,
// inclusive time, the part of it covered by nested spans, and operator-new
// counts from src/perf/alloc_hooks. Nothing inside src/ is modified, so the
// untraced run executes exactly the code users run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/guest/cross_layer.h"
#include "src/guest/task.h"
#include "src/hv/host_scheduler.h"
#include "src/hv/vcpu.h"
#include "src/perf/alloc_hooks.h"

namespace perfbench {

enum Span : int {
  kPick,       // HostScheduler::PickNext
  kWake,       // HostScheduler::VcpuWake
  kBlock,      // HostScheduler::VcpuBlock
  kAccount,    // HostScheduler::AccountRun
  kHypercall,  // HostScheduler::Hypercall
  kRequest,    // CrossLayerPolicy::RequestBandwidth
  kRelease,    // CrossLayerPolicy::ReleaseBandwidth
  kMove,       // CrossLayerPolicy::MoveBandwidth
  kPublish,    // CrossLayerPolicy::PublishNextDeadline
  kGrant,      // VcpuClient::OnVcpuGranted
  kRevoke,     // VcpuClient::OnVcpuRevoked
  kObserve,    // JobObserver::OnJobCompleted
  kNumSpans,
};

struct SpanStats {
  uint64_t calls = 0;
  int64_t total_ns = 0;  // Inclusive of nested spans.
  int64_t child_ns = 0;  // Covered by spans nested inside this one.
  uint64_t allocs = 0;   // Inclusive operator-new calls.
  uint64_t child_allocs = 0;

  int64_t self_ns() const { return total_ns - child_ns; }
  uint64_t self_allocs() const { return allocs - child_allocs; }
};

class SpanRecorder {
 public:
  SpanRecorder() { stack_.reserve(64); }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope(SpanRecorder* rec, Span span) : rec_(rec) { rec_->Push(span); }
    ~Scope() { rec_->Pop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

  const SpanStats& stats(Span span) const { return stats_[span]; }

  // Forgets everything recorded so far (spans made while setting up).
  void Clear() {
    stats_ = {};
    top_level_ns_ = 0;
    top_level_allocs_ = 0;
    pick_idle = replans_in_calls = channel_rejects = dispatches = 0;
  }

  // Adds another recorder's aggregates (one per simulated instance).
  void Add(const SpanRecorder& o) {
    for (int i = 0; i < kNumSpans; ++i) {
      stats_[i].calls += o.stats_[i].calls;
      stats_[i].total_ns += o.stats_[i].total_ns;
      stats_[i].child_ns += o.stats_[i].child_ns;
      stats_[i].allocs += o.stats_[i].allocs;
      stats_[i].child_allocs += o.stats_[i].child_allocs;
    }
    top_level_ns_ += o.top_level_ns_;
    top_level_allocs_ += o.top_level_allocs_;
    pick_idle += o.pick_idle;
    replans_in_calls += o.replans_in_calls;
    channel_rejects += o.channel_rejects;
    dispatches += o.dispatches;
  }
  // Time and allocations inside outermost spans: everything the boundary
  // calls account for. The rest of a traced run is core time.
  int64_t top_level_ns() const { return top_level_ns_; }
  uint64_t top_level_allocs() const { return top_level_allocs_; }

  // Counters recorded by the decorators beside the spans.
  uint64_t pick_idle = 0;          // PickNext returned no VCPU.
  uint64_t replans_in_calls = 0;   // DP-WRAP replans made inside a boundary call.
  uint64_t channel_rejects = 0;    // Request/Move calls that did not return kHypercallOk.
  uint64_t dispatches = 0;         // Machine dispatch-tracer callbacks.

 private:
  struct Frame {
    Span span;
    int64_t start_ns;
    uint64_t start_allocs;
    int64_t child_ns;
    uint64_t child_allocs;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Push(Span span) {
    stack_.push_back(Frame{span, NowNs(), rtvirt::perf::AllocNow().allocs, 0, 0});
  }

  void Pop() {
    int64_t now = NowNs();
    uint64_t allocs = rtvirt::perf::AllocNow().allocs;
    Frame f = stack_.back();
    stack_.pop_back();
    int64_t elapsed = now - f.start_ns;
    uint64_t made = allocs - f.start_allocs;
    SpanStats& s = stats_[f.span];
    ++s.calls;
    s.total_ns += elapsed;
    s.child_ns += f.child_ns;
    s.allocs += made;
    s.child_allocs += f.child_allocs;
    if (stack_.empty()) {
      top_level_ns_ += elapsed;
      top_level_allocs_ += made;
    } else {
      stack_.back().child_ns += elapsed;
      stack_.back().child_allocs += made;
    }
  }

  std::vector<Frame> stack_;
  std::array<SpanStats, kNumSpans> stats_{};
  int64_t top_level_ns_ = 0;
  uint64_t top_level_allocs_ = 0;
};

// HostScheduler decorator. `replans`, when non-null, reads the inner
// scheduler's replan counter so replans made inside a boundary call can be
// told apart from those DP-WRAP makes from its own timer events.
class TracedScheduler final : public rtvirt::HostScheduler {
 public:
  using ReplanCounter = uint64_t (*)(const rtvirt::HostScheduler*);

  TracedScheduler(std::unique_ptr<rtvirt::HostScheduler> inner, SpanRecorder* rec,
                  ReplanCounter replans = nullptr)
      : inner_(std::move(inner)), rec_(rec), replans_(replans) {}

  std::string_view name() const override { return inner_->name(); }
  void Attach(rtvirt::Machine* machine) override {
    HostScheduler::Attach(machine);
    inner_->Attach(machine);
  }
  void VcpuInserted(rtvirt::Vcpu* vcpu) override { inner_->VcpuInserted(vcpu); }
  void VcpuRemoved(rtvirt::Vcpu* vcpu) override { inner_->VcpuRemoved(vcpu); }
  void VcpuWake(rtvirt::Vcpu* vcpu) override {
    Counted c(this, kWake);
    inner_->VcpuWake(vcpu);
  }
  void VcpuBlock(rtvirt::Vcpu* vcpu) override {
    Counted c(this, kBlock);
    inner_->VcpuBlock(vcpu);
  }
  rtvirt::ScheduleDecision PickNext(rtvirt::Pcpu* pcpu) override {
    Counted c(this, kPick);
    rtvirt::ScheduleDecision d = inner_->PickNext(pcpu);
    rec_->pick_idle += d.next == nullptr ? 1 : 0;
    return d;
  }
  void PcpuCapacityChanged(rtvirt::Pcpu* pcpu) override { inner_->PcpuCapacityChanged(pcpu); }
  void AccountRun(rtvirt::Vcpu* vcpu, rtvirt::TimeNs ran) override {
    Counted c(this, kAccount);
    inner_->AccountRun(vcpu, ran);
  }
  int64_t Hypercall(rtvirt::Vcpu* caller, const rtvirt::HypercallArgs& args) override {
    Counted c(this, kHypercall);
    return inner_->Hypercall(caller, args);
  }
  rtvirt::TimeNs ScheduleCost(const rtvirt::Pcpu* pcpu) const override {
    return inner_->ScheduleCost(pcpu);
  }
  rtvirt::TimeNs DispatchCost(const rtvirt::Vcpu* next) const override {
    return inner_->DispatchCost(next);
  }

 private:
  // A span plus the inner scheduler's replans made while it is open.
  class Counted {
   public:
    Counted(TracedScheduler* s, Span span)
        : s_(s), before_(s->Replans()), scope_(s->rec_, span) {}
    ~Counted() { s_->rec_->replans_in_calls += s_->Replans() - before_; }
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;

   private:
    TracedScheduler* s_;
    uint64_t before_;
    SpanRecorder::Scope scope_;
  };

  uint64_t Replans() const { return replans_ == nullptr ? 0 : replans_(inner_.get()); }

  std::unique_ptr<rtvirt::HostScheduler> inner_;
  SpanRecorder* rec_;
  ReplanCounter replans_;
};

// CrossLayerPolicy decorator (guest -> RTVirt channel -> hypercall).
class TracedChannel final : public rtvirt::CrossLayerPolicy {
 public:
  TracedChannel(std::unique_ptr<rtvirt::CrossLayerPolicy> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  int64_t RequestBandwidth(rtvirt::Vcpu* vcpu, rtvirt::Bandwidth rta_bw, rtvirt::TimeNs period,
                           int64_t reason) override {
    SpanRecorder::Scope s(rec_, kRequest);
    return Checked(inner_->RequestBandwidth(vcpu, rta_bw, period, reason));
  }
  int64_t MoveBandwidth(rtvirt::Vcpu* to, rtvirt::Bandwidth to_bw, rtvirt::TimeNs to_period,
                        rtvirt::Vcpu* from, rtvirt::Bandwidth from_bw,
                        rtvirt::TimeNs from_period) override {
    SpanRecorder::Scope s(rec_, kMove);
    return Checked(inner_->MoveBandwidth(to, to_bw, to_period, from, from_bw, from_period));
  }
  void ReleaseBandwidth(rtvirt::Vcpu* vcpu, rtvirt::Bandwidth rta_bw, rtvirt::TimeNs period,
                        int64_t reason) override {
    SpanRecorder::Scope s(rec_, kRelease);
    inner_->ReleaseBandwidth(vcpu, rta_bw, period, reason);
  }
  void PublishNextDeadline(rtvirt::Vcpu* vcpu, rtvirt::TimeNs deadline) override {
    SpanRecorder::Scope s(rec_, kPublish);
    inner_->PublishNextDeadline(vcpu, deadline);
  }
  void Reset() override { inner_->Reset(); }

 private:
  int64_t Checked(int64_t rc) {
    rec_->channel_rejects += rc != rtvirt::kHypercallOk ? 1 : 0;
    return rc;
  }

  std::unique_ptr<rtvirt::CrossLayerPolicy> inner_;
  SpanRecorder* rec_;
};

// VcpuClient decorator (hv -> guest OS), installed with Vcpu::set_client.
class TracedClient final : public rtvirt::VcpuClient {
 public:
  TracedClient(rtvirt::VcpuClient* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  void OnVcpuGranted(rtvirt::Vcpu* vcpu) override {
    SpanRecorder::Scope s(rec_, kGrant);
    inner_->OnVcpuGranted(vcpu);
  }
  void OnVcpuRevoked(rtvirt::Vcpu* vcpu) override {
    SpanRecorder::Scope s(rec_, kRevoke);
    inner_->OnVcpuRevoked(vcpu);
  }

 private:
  rtvirt::VcpuClient* inner_;
  SpanRecorder* rec_;
};

// JobObserver decorator (guest -> DeadlineMonitor).
class TracedObserver final : public rtvirt::JobObserver {
 public:
  TracedObserver(rtvirt::JobObserver* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  void OnJobCompleted(const rtvirt::Task& task, const rtvirt::Job& job,
                      rtvirt::TimeNs completion) override {
    SpanRecorder::Scope s(rec_, kObserve);
    inner_->OnJobCompleted(task, job, completion);
  }

 private:
  rtvirt::JobObserver* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
