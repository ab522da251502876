// McNaughton wrap-around layout used by DP-WRAP (Levin et al., DP-FAIR).
//
// Given per-item allocations within a global slice of length L and m
// processors, the allocations are laid end-to-end on a line of length m*L and
// cut every L: chunk k becomes processor k's schedule. An item straddling a
// cut is split across two processors; because each allocation is at most L,
// its two pieces never overlap in wall-clock time, and at most m-1 items are
// split — DP-WRAP's bound on migrations per global slice.
//
// The layout writes into caller-owned buffers, so a planner that keeps them
// across slices lays out every slice without allocating.

#ifndef SRC_RTVIRT_WRAP_LAYOUT_H_
#define SRC_RTVIRT_WRAP_LAYOUT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/time.h"

namespace rtvirt {

struct WrapItem {
  int id = 0;          // Caller-defined identity (e.g., VCPU index).
  TimeNs alloc = 0;    // Allocation within the slice; 0 <= alloc <= slice_len.
};

struct WrapSegment {
  int item_id = 0;
  int pcpu = 0;
  TimeNs start = 0;  // Offset within the slice, [0, slice_len).
  TimeNs end = 0;    // Offset within the slice, (start, slice_len].
};

// Lays `items` out over fill.size() chunks of `slice_len`. Chunk k runs at
// speed_ppb[k] (Bandwidth::kUnit = full speed, <= 0 = offline) and is
// occupied up to fill[k] wall ns on entry (e.g., by affinity-pinned
// allocations that must not migrate); on return fill[k] is its final fill.
// Allocations are in effective (full-speed-equivalent) ns: a piece of E ns on
// a chunk at speed s occupies ceil(E/s) wall ns there. `out` receives the
// wall-clock segments, none for a zero allocation. Precondition: the
// allocations fit the chunks' effective free space.
//
// At full speed from empty chunks this is exactly McNaughton's wrap-around
// (enforced by the property tests): per item, the segment lengths sum to its
// allocation; per processor, segments are disjoint and within [0, slice_len];
// a split item's two segments do not overlap in wall-clock time; at most
// pcpus - 1 items are split. Pre-occupied chunks keep the first three: a
// straddle whose pieces would overlap in time starts on the next chunk
// instead, and only allocation left over once every chunk was passed is
// placed into remaining gaps regardless (the dispatcher serializes such
// pieces at runtime). On throttled chunks straddle safety is best-effort and
// floor rounding may strand < 1 effective ns per chunk visit, which the
// caller's admission epsilon absorbs.
void WrapAround(std::span<const WrapItem> items, TimeNs slice_len, std::span<TimeNs> fill,
                std::span<const int64_t> speed_ppb, std::vector<WrapSegment>* out);

}  // namespace rtvirt

#endif  // SRC_RTVIRT_WRAP_LAYOUT_H_
