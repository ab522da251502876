// Per-VM shared scheduling page (paper sections 3.1/3.3).
//
// The guest publishes, for each of its VCPUs, the next earliest deadline of
// the RTAs assigned to that VCPU (8 bytes per VCPU, as the paper notes). The
// host scheduler reads these slots when computing the next global deadline,
// and writes back one overload-pressure word per page. On real hardware this
// is a granted memory page read via cache coherence with no explicit
// synchronization; in the
// simulator it is plain shared state, optionally with a configurable
// guest->host visibility delay that models the coherence window (fault
// injection: a write becomes host-visible only `visibility_delay` ns after it
// was issued; until then the host reads the previous value). Each slot also
// records when its visible deadline was published, so the host can apply a
// freshness horizon and distrust slots a crashed or wedged guest stopped
// updating.

#ifndef SRC_HV_SHARED_MEM_H_
#define SRC_HV_SHARED_MEM_H_

#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class SharedSchedPage {
 public:
  // A real granted page is one page: 8 bytes per VCPU bounds the slot count
  // far below this. The cap keeps a corrupted or malicious index from turning
  // the backing vector into an allocation attack (the negative-index guard's
  // mirror image; see tests/shared_mem_test.cc).
  static constexpr int kMaxSlots = 4096;

  // Wires the simulator clock used for publish timestamps and the staleness
  // model. Without a clock every write is timestamped 0 and immediately
  // visible (standalone unit tests).
  void AttachClock(const Simulator* sim) { sim_ = sim; }

  // Fault injection: guest-side deadline writes become host-visible only
  // `delay` ns after they are issued (0 restores instant visibility).
  void SetVisibilityDelay(TimeNs delay) { visibility_delay_ = delay; }
  TimeNs visibility_delay() const { return visibility_delay_; }

  // Guest side: publish the next earliest deadline among the RTAs pinned to
  // VCPU `vcpu_index`. kTimeNever means "no time-sensitive work". Negative
  // and beyond-page indices are ignored (a buggy or malicious guest must not
  // corrupt the page or grow it without bound; see the regression tests in
  // tests/shared_mem_test.cc).
  void PublishNextDeadline(int vcpu_index, TimeNs deadline) {
    if (vcpu_index < 0 || vcpu_index >= kMaxSlots) {
      return;
    }
    Ensure(vcpu_index);
    Slot& s = slots_[vcpu_index];
    TimeNs now = Now();
    Promote(s, now);
    if (visibility_delay_ > 0) {
      // The write sits in the coherence window; the previously visible value
      // keeps being served until `visible_at`. A newer write supersedes a
      // still-pending one (last write wins, as on real shared memory).
      s.pending_deadline = deadline;
      s.pending_published_at = now;
      s.pending_visible_at = now + visibility_delay_;
      s.has_pending = true;
    } else {
      s.next_deadline = deadline;
      s.published_at = now;
    }
  }

  // Host side: read the guest-published deadline (promotes any pending write
  // whose coherence window has elapsed).
  TimeNs next_deadline(int vcpu_index) const {
    if (!Valid(vcpu_index)) {
      return kTimeNever;
    }
    Slot& s = slots_[vcpu_index];
    Promote(s, Now());
    return s.next_deadline;
  }

  // Host side: when the visible deadline of `vcpu_index` was published by the
  // guest; -1 if the slot was never written. The host watchdog compares this
  // against its freshness horizon.
  TimeNs last_publish_time(int vcpu_index) const {
    if (!Valid(vcpu_index)) {
      return -1;
    }
    Slot& s = slots_[vcpu_index];
    Promote(s, Now());
    return s.published_at;
  }

  // Host side: publish overload-pressure state for the whole VM (one word per
  // page, not per VCPU — pressure is a property of the host scheduler). Level
  // 0 means no pressure; higher levels ask the guest to compress / shed
  // elastic reservations. `headroom_ppb` is the host's remaining admittable
  // bandwidth: guests gate re-inflation on it so recovery probes do not turn
  // into admission rejections (which would read as fresh pressure and
  // oscillate). It is advisory — the host still enforces admission; a stale
  // value merely costs one rejected hypercall. Host->guest writes are not
  // subject to the staleness model.
  void PublishPressure(int level, int64_t headroom_ppb) {
    pressure_level_ = level;
    pressure_headroom_ppb_ = headroom_ppb;
    pressure_published_at_ = Now();
  }

  // Guest side: poll the host's pressure signal.
  int pressure_level() const { return pressure_level_; }
  int64_t pressure_headroom_ppb() const { return pressure_headroom_ppb_; }
  TimeNs pressure_published_at() const { return pressure_published_at_; }

  // Checkpoint support: the page is plain data, serialized inside the
  // machine section (src/checkpoint).
  void SaveState(ckpt::Writer& w) const {
    ScalarFields(*this, w);
    w.U32(static_cast<uint32_t>(slots_.size()));
    for (const Slot& s : slots_) {
      SlotFields(s, w);
    }
  }
  std::string RestoreState(ckpt::Reader& r) {
    ScalarFields(*this, r);
    uint32_t n = r.U32();
    if (!r.ok() || n > kMaxSlots) {
      return "shared page: bad slot count";
    }
    slots_.assign(n, Slot{});
    for (Slot& s : slots_) {
      SlotFields(s, r);
    }
    return r.ok() ? "" : "shared page: truncated slots";
  }

 private:
  struct Slot {
    TimeNs next_deadline = kTimeNever;
    TimeNs published_at = -1;  // When `next_deadline` was written; -1 = never.
    // In-flight guest write not yet host-visible (staleness model).
    bool has_pending = false;
    TimeNs pending_deadline = kTimeNever;
    TimeNs pending_published_at = -1;
    TimeNs pending_visible_at = 0;
  };

  // Checkpoint field lists in byte order, each run by both SaveState and
  // RestoreState: the page's scalars and one slot.
  template <typename Self, typename Io>
  static void ScalarFields(Self& self, Io& io) {
    ckpt::Fields(io, self.visibility_delay_, self.pressure_level_, self.pressure_headroom_ppb_,
                 self.pressure_published_at_);
  }
  template <typename S, typename Io>
  static void SlotFields(S& s, Io& io) {
    ckpt::Fields(io, s.next_deadline, s.published_at, s.has_pending, s.pending_deadline,
                 s.pending_published_at, s.pending_visible_at);
  }

  TimeNs Now() const { return sim_ != nullptr ? sim_->Now() : 0; }

  static void Promote(Slot& s, TimeNs now) {
    if (s.has_pending && now >= s.pending_visible_at) {
      s.next_deadline = s.pending_deadline;
      s.published_at = s.pending_published_at;
      s.has_pending = false;
    }
  }

  bool Valid(int vcpu_index) const {
    return vcpu_index >= 0 && static_cast<size_t>(vcpu_index) < slots_.size();
  }
  void Ensure(int vcpu_index) {
    if (static_cast<size_t>(vcpu_index) >= slots_.size()) {
      slots_.resize(vcpu_index + 1);
    }
  }

  const Simulator* sim_ = nullptr;
  TimeNs visibility_delay_ = 0;
  int pressure_level_ = 0;
  int64_t pressure_headroom_ppb_ = 0;
  TimeNs pressure_published_at_ = -1;  // -1 = never published.
  // Mutable: host-side reads promote pending writes in place (the page is
  // shared memory; reads observing time passing is not logical mutation).
  mutable std::vector<Slot> slots_;
};

}  // namespace rtvirt

#endif  // SRC_HV_SHARED_MEM_H_
