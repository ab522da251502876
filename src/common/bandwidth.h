// Exact fixed-point CPU bandwidth arithmetic.
//
// A Bandwidth is a fraction of one processor expressed in parts-per-billion
// (ppb). DP-WRAP splits every global slice among VCPUs proportionally to
// their bandwidths; doing that with floating point would accumulate drift
// that eventually shows up as spurious deadline misses in long runs, so all
// splits here are integer math with explicit rounding direction.

#ifndef SRC_COMMON_BANDWIDTH_H_
#define SRC_COMMON_BANDWIDTH_H_

#include <cassert>
#include <compare>
#include <cstdint>

#include "src/common/time.h"

namespace rtvirt {

class Bandwidth {
 public:
  static constexpr int64_t kUnit = 1000 * 1000 * 1000;  // 1.0 CPU in ppb.

  constexpr Bandwidth() = default;
  static constexpr Bandwidth FromPpb(int64_t ppb) { return Bandwidth(ppb); }
  // One full CPU.
  static constexpr Bandwidth One() { return Bandwidth(kUnit); }
  static constexpr Bandwidth Zero() { return Bandwidth(0); }
  // `cpus` whole CPUs (used for machine capacity).
  static constexpr Bandwidth Cpus(int64_t cpus) { return Bandwidth(cpus * kUnit); }

  // slice/period, rounded up so that a reservation derived from a task is
  // never smaller than what the task demands.
  static constexpr Bandwidth FromSlicePeriod(TimeNs slice, TimeNs period) {
    assert(period > 0 && slice >= 0);
    using Wide = __int128;
    Wide ppb = (static_cast<Wide>(slice) * kUnit + period - 1) / period;
    return Bandwidth(static_cast<int64_t>(ppb));
  }

  static constexpr Bandwidth FromDouble(double fraction) {
    return Bandwidth(static_cast<int64_t>(fraction * kUnit + 0.5));
  }

  constexpr int64_t ppb() const { return ppb_; }
  constexpr double ToDouble() const { return static_cast<double>(ppb_) / kUnit; }

  // Share of a duration proportional to this bandwidth, rounded down.
  constexpr TimeNs SliceOf(TimeNs duration) const {
    using Wide = __int128;
    return static_cast<TimeNs>(static_cast<Wide>(duration) * ppb_ / kUnit);
  }

  // Share of a duration, rounded up.
  constexpr TimeNs SliceOfCeil(TimeNs duration) const {
    using Wide = __int128;
    return static_cast<TimeNs>((static_cast<Wide>(duration) * ppb_ + kUnit - 1) / kUnit);
  }

  constexpr Bandwidth operator+(Bandwidth o) const { return Bandwidth(ppb_ + o.ppb_); }
  constexpr Bandwidth operator-(Bandwidth o) const { return Bandwidth(ppb_ - o.ppb_); }
  constexpr Bandwidth& operator+=(Bandwidth o) {
    ppb_ += o.ppb_;
    return *this;
  }
  constexpr Bandwidth& operator-=(Bandwidth o) {
    ppb_ -= o.ppb_;
    return *this;
  }
  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  explicit constexpr Bandwidth(int64_t ppb) : ppb_(ppb) {}

  int64_t ppb_ = 0;
};

// Capacity-degradation conversions (PCPU fault model): a core running at
// `speed_ppb` (Bandwidth::kUnit = full speed) makes speed_ppb/kUnit useful ns
// of progress per wall-clock ns. Work→wall rounds up (never under-schedule a
// job), wall→work rounds down (never over-credit progress); both are exact
// identities at full speed, keeping healthy-machine arithmetic bit-for-bit
// unchanged; full speed is also the hot case (every healthy core, and every
// core DP-WRAP plans without pcpu_recovery). floor(ceil(w*K/s)*s/K) == w
// for 0 < s <= K, so a completion timer set via SpeedWorkToWall banks
// exactly `work` via SpeedWallToWork.
constexpr TimeNs SpeedWorkToWall(TimeNs work, int64_t speed_ppb) {
  assert(speed_ppb > 0);
  if (speed_ppb == Bandwidth::kUnit) [[likely]] {
    return work;
  }
  using Wide = __int128;
  return static_cast<TimeNs>(
      (static_cast<Wide>(work) * Bandwidth::kUnit + speed_ppb - 1) / speed_ppb);
}

constexpr TimeNs SpeedWallToWork(TimeNs wall, int64_t speed_ppb) {
  if (speed_ppb == Bandwidth::kUnit) [[likely]] {
    return wall;
  }
  using Wide = __int128;
  return static_cast<TimeNs>(static_cast<Wide>(wall) * speed_ppb / Bandwidth::kUnit);
}

}  // namespace rtvirt

#endif  // SRC_COMMON_BANDWIDTH_H_
