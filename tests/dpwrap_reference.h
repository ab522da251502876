// Reference model of DP-WRAP's planner (paper section 3.3) for differential
// tests, in exact integer arithmetic. It keeps the reservation table and
// plans one global slice at a time by the paper's rule and nothing else:
//   - the global deadline is the earliest deadline a reserved VCPU
//     publishes, or the sporadic worst case now + period for a slot that is
//     already stale, clamped to [now + min_global_slice, now + 100 ms];
//   - a reservation's share of a slice is floor(F_after / 1e9) -
//     floor(F_before / 1e9), where F sums bw_ppb x slice length over every
//     slice since the reservation was created;
//   - pinned reservations go first, at the head of their PCPU's chunk, and
//     the rest are laid end to end on a line of m chunks (McNaughton).
// It has none of the planner's machinery — no carries, caps, buffers,
// speeds or overlap fallback — so a disagreement is a planner bug, as long
// as the shares fit the slice (the test keeps the reserved total below
// capacity by a margin, so the planner never trims a share).

#ifndef TESTS_DPWRAP_REFERENCE_H_
#define TESTS_DPWRAP_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/time.h"

namespace rtvirt {

class ReferencePlanner {
 public:
  static constexpr int64_t kUnit = 1'000'000'000;  // ppb of one CPU.
  static constexpr TimeNs kMaxGlobalSlice = Ms(100);

  struct Segment {
    int gid = 0;
    int pcpu = 0;
    TimeNs start = 0;  // Absolute.
    TimeNs end = 0;    // Absolute.
    bool operator==(const Segment&) const = default;
  };

  ReferencePlanner(int num_pcpus, TimeNs min_global_slice)
      : m_(num_pcpus), min_global_slice_(min_global_slice) {}

  // An accepted reservation change: bw 0 drops the reservation; a new one
  // joins the end of the layout order with F = 0.
  void Set(int gid, int64_t bw_ppb, TimeNs period) {
    auto it = Find(gid);
    if (bw_ppb == 0) {
      if (it != table_.end()) {
        table_.erase(it);
      }
      return;
    }
    if (it == table_.end()) {
      table_.push_back(Entry{gid, bw_ppb, period});
      return;
    }
    it->bw_ppb = bw_ppb;
    it->period = period;
  }
  int64_t bw(int gid) const {
    auto it = Find(gid);
    return it == table_.end() ? 0 : it->bw_ppb;
  }
  TimeNs period(int gid) const {
    auto it = Find(gid);
    return it == table_.end() ? 0 : it->period;
  }
  int64_t total_ppb() const {
    int64_t total = 0;
    for (const Entry& e : table_) {
      total += e.bw_ppb;
    }
    return total;
  }
  // The reserved global ids in layout order.
  std::vector<int> layout() const {
    std::vector<int> gids;
    for (const Entry& e : table_) {
      gids.push_back(e.gid);
    }
    return gids;
  }

  // Plans the slice that starts at `now`. deadline_of(gid) is the deadline
  // the VCPU last published (kTimeNever if none); pin_of(gid) is the PCPU a
  // reservation is laid on first, or -1 to wrap it.
  template <typename DeadlineOf, typename PinOf>
  void Replan(TimeNs now, DeadlineOf deadline_of, PinOf pin_of) {
    slice_start_ = now;
    slice_end_ = now + kMaxGlobalSlice;
    for (const Entry& e : table_) {
      TimeNs d = deadline_of(e.gid);
      slice_end_ = std::min(slice_end_, d > now ? d : now + e.period);
    }
    slice_end_ = std::max(slice_end_, now + min_global_slice_);
    TimeNs len = slice_end_ - slice_start_;

    shares_.assign(table_.size(), 0);
    for (size_t i = 0; i < table_.size(); ++i) {
      Entry& e = table_[i];
      unsigned __int128 before = e.f;
      e.f += static_cast<unsigned __int128>(e.bw_ppb) * static_cast<uint64_t>(len);
      shares_[i] = static_cast<TimeNs>(e.f / kUnit - before / kUnit);
    }

    segments_.clear();
    std::vector<TimeNs> head(m_, 0);  // Per PCPU: the pinned prefix.
    for (size_t i = 0; i < table_.size(); ++i) {
      int pin = pin_of(table_[i].gid);
      if (pin >= 0 && shares_[i] > 0) {
        segments_.push_back(Segment{table_[i].gid, pin, now + head[pin],
                                    now + head[pin] + shares_[i]});
        head[pin] += shares_[i];
      }
    }
    TimeNs line = 0;  // Position on the line of m chunks of `len`.
    for (size_t i = 0; i < table_.size(); ++i) {
      if (pin_of(table_[i].gid) >= 0) {
        continue;
      }
      for (TimeNs left = shares_[i]; left > 0;) {
        TimeNs offset = line % len;
        TimeNs piece = std::min(left, len - offset);
        segments_.push_back(Segment{table_[i].gid, static_cast<int>(line / len), now + offset,
                                    now + offset + piece});
        line += piece;
        left -= piece;
      }
    }
  }

  TimeNs slice_start() const { return slice_start_; }
  TimeNs slice_end() const { return slice_end_; }
  // The last slice's share of `gid` in effective ns (0 if unreserved).
  TimeNs share(int gid) const {
    for (size_t i = 0; i < table_.size() && i < shares_.size(); ++i) {
      if (table_[i].gid == gid) {
        return shares_[i];
      }
    }
    return 0;
  }
  // The last slice's pieces: pinned first, then the wrap, in layout order.
  // Exact only when nothing is pinned and every PCPU runs at full speed; with
  // pins, the planner may start a straddling piece on the next chunk instead.
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  struct Entry {
    int gid = 0;
    int64_t bw_ppb = 0;
    TimeNs period = 0;
    unsigned __int128 f = 0;  // bw_ppb x ns since creation.
  };

  std::vector<Entry>::iterator Find(int gid) {
    return std::find_if(table_.begin(), table_.end(),
                        [gid](const Entry& e) { return e.gid == gid; });
  }
  std::vector<Entry>::const_iterator Find(int gid) const {
    return std::find_if(table_.begin(), table_.end(),
                        [gid](const Entry& e) { return e.gid == gid; });
  }

  int m_;
  TimeNs min_global_slice_;
  std::vector<Entry> table_;  // Layout order.
  TimeNs slice_start_ = 0;
  TimeNs slice_end_ = 0;
  std::vector<TimeNs> shares_;  // By table_ position.
  std::vector<Segment> segments_;
};

}  // namespace rtvirt

#endif  // TESTS_DPWRAP_REFERENCE_H_
