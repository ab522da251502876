#include <algorithm>

#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap_policies.h"

namespace rtvirt {
namespace {

// Pressure rises at utilization >= this; re-inflation is capped here too.
constexpr double kHighWatermark = 0.98;
// How long a rejected increment stays withheld from the published headroom,
// earmarked for the retrying newcomer instead of being re-absorbed by guests
// re-inflating compressed reservations. Must exceed the application's
// admission-retry interval.
constexpr TimeNs kAdmissionHold = Ms(200);

// One held demand's record, in byte order; save and restore share it.
template <typename H, typename Io>
void HeldFields(H& h, Io& io) {
  ckpt::Fields(io, h.expires, h.bw);
}

Bandwidth Watermark(Bandwidth cap) {
  return Bandwidth::FromPpb(
      static_cast<int64_t>(kHighWatermark * static_cast<double>(cap.ppb())));
}

}  // namespace

Bandwidth OverloadPressure::AdmissionLimit(Bandwidth limit, Bandwidth cap,
                                           int64_t reason) const {
  // New demand may use the full capacity. Two guests polling in one scan
  // window can both claim the same advertised headroom; capping re-inflation
  // and SLO-controller raises at the watermark turns that race into a clean
  // rejection instead of a watermark-pressure/shed cycle.
  bool raise = reason == kBwReasonReinflate || reason == kBwReasonSloControl;
  return raise ? std::min(limit, Watermark(cap)) : limit;
}

void OverloadPressure::ExpireHolds(TimeNs now) {
  while (!held_.empty() && held_.front().expires <= now) {
    held_.pop_front();
  }
}

void OverloadPressure::Rejected(Bandwidth old, Bandwidth bw, int64_t reason, TimeNs now) {
  // Only new RTA demand counts, and the reason code says which it is: guests
  // pack several RTAs per VCPU, so a fresh admission usually arrives as a
  // raise of an existing reservation. A refused re-inflation probe must not
  // raise pressure, or probes and pressure would chase each other.
  if (reason != kBwReasonAdmission && (reason != kBwReasonNone || old != Bandwidth::Zero())) {
    return;
  }
  ++rejections_;
  // Withhold the refused increment from the headroom, so re-inflation cannot
  // swallow what guests are about to shed for the newcomer (retries stack
  // holds: conservative, and they expire).
  ExpireHolds(now);
  if (bw > old) {
    held_.push_back(HeldDemand{now + kAdmissionHold, bw - old});
  }
}

void OverloadPressure::Scan(Machine* machine, Bandwidth cap, Bandwidth total, Bandwidth limit) {
  double util = cap.ppb() > 0
                    ? static_cast<double>(total.ppb()) / static_cast<double>(cap.ppb())
                    : 0.0;
  // A rejection is the sharpest overload signal; the watermark catches the
  // creeping case where everything was admitted but nothing is left.
  if (!pressure_ && (rejections_ > 0 || util >= kHighWatermark)) {
    pressure_ = true;
    ++stats_->pressure_raises;
  } else if (pressure_ && util <= low_watermark_ && rejections_ == 0) {
    pressure_ = false;
    ++stats_->pressure_clears;
  }
  rejections_ = 0;
  // The headroom lets re-inflation stay below the limit instead of probing
  // by hypercall (a refused probe would re-raise pressure). It is measured
  // against the watermark, not the admission limit, or resume -> watermark
  // pressure -> shed becomes a limit cycle, and it withholds the held
  // demand, or re-inflating guests polling every scan would always outrace
  // a newcomer's retry loop.
  ExpireHolds(machine->sim()->Now());
  Bandwidth eff = total;
  for (const HeldDemand& h : held_) {
    eff += h.bw;
  }
  limit = std::min(limit, Watermark(cap));
  int64_t headroom_ppb = eff < limit ? (limit - eff).ppb() : 0;
  for (int i = 0; i < machine->num_vms(); ++i) {
    machine->vm(i)->shared_page().PublishPressure(pressure_ ? 1 : 0, headroom_ppb);
  }
}

template <typename Self, typename Io>
void OverloadPressure::ScalarFields(Self& self, Io& io) {
  ckpt::Fields(io, self.pressure_, self.rejections_);
}

void OverloadPressure::SaveState(ckpt::Writer& w) const {
  ScalarFields(*this, w);
  w.U32(static_cast<uint32_t>(held_.size()));
  for (const HeldDemand& h : held_) {
    HeldFields(h, w);
  }
}

void OverloadPressure::RestoreState(ckpt::Reader& r) {
  ScalarFields(*this, r);
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    HeldFields(held_.emplace_back(), r);
  }
}

}  // namespace rtvirt
