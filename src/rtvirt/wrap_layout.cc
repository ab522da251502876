#include "src/rtvirt/wrap_layout.h"

#include <algorithm>
#include <cassert>

#include "src/common/bandwidth.h"

namespace rtvirt {

void WrapAround(std::span<const WrapItem> items, TimeNs slice_len, std::span<TimeNs> fill,
                std::span<const int64_t> speed_ppb, std::vector<WrapSegment>* out) {
  assert(slice_len > 0);
  assert(fill.size() == speed_ppb.size());
  int pcpus = static_cast<int>(fill.size());
  out->clear();

  // Effective capacity left on chunk k, floored: flooring under-counts by
  // < 1 effective ns, so a piece sized from it always fits back in wall time
  // (ceil(E * kUnit / s) <= free wall whenever E <= floor(free wall * s / kUnit)).
  auto eff_free = [&](int k) -> TimeNs {
    if (speed_ppb[k] <= 0 || fill[k] >= slice_len) {
      return 0;
    }
    return SpeedWallToWork(slice_len - fill[k], speed_ppb[k]);
  };

  // First pass: wrap greedily, walking in effective ns and emitting wall ns.
  // A straddle whose two pieces would overlap in wall-clock time (the item
  // running on two PCPUs at once) starts the item on the next chunk instead;
  // the fragmentation this leaves can pass the last chunk early, and the
  // rest of that item, and every later item, is then left over.
  size_t left = items.size();  // First item with a leftover.
  TimeNs left_alloc = 0;       // Its unplaced remainder, effective ns.
  int chunk = 0;
  for (size_t i = 0; i < items.size() && left == items.size(); ++i) {
    TimeNs remaining = items[i].alloc;
    while (remaining > 0) {
      if (chunk >= pcpus) {
        left = i;
        left_alloc = remaining;
        break;
      }
      TimeNs free_here = eff_free(chunk);
      if (free_here <= 0) {
        ++chunk;
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      if (piece < remaining && chunk + 1 < pcpus) {
        // The continuation on the next chunk must end before this piece
        // starts (measured against the next chunk only).
        TimeNs rest_eff = std::min(remaining - piece, eff_free(chunk + 1));
        TimeNs rest_wall = speed_ppb[chunk + 1] > 0
                               ? SpeedWorkToWall(rest_eff, speed_ppb[chunk + 1])
                               : 0;
        if (fill[chunk + 1] + rest_wall > fill[chunk]) {
          ++chunk;
          continue;
        }
      }
      TimeNs wall_piece = SpeedWorkToWall(piece, speed_ppb[chunk]);
      out->push_back(WrapSegment{items[i].id, chunk, fill[chunk], fill[chunk] + wall_piece});
      fill[chunk] += wall_piece;
      remaining -= piece;
    }
  }
  // Second pass (rare: heavy pinning near full utilization, or degraded
  // cores): place leftovers into any remaining gaps even if a piece overlaps
  // a sibling piece in time; the dispatcher serializes such pieces, so this
  // degrades (bounded) rather than drops the allocation.
  for (size_t i = left; i < items.size(); ++i) {
    TimeNs remaining = i == left ? left_alloc : items[i].alloc;
    for (int k = 0; k < pcpus && remaining > 0; ++k) {
      TimeNs free_here = eff_free(k);
      if (free_here <= 0) {
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      TimeNs wall_piece = SpeedWorkToWall(piece, speed_ppb[k]);
      out->push_back(WrapSegment{items[i].id, k, fill[k], fill[k] + wall_piece});
      fill[k] += wall_piece;
      remaining -= piece;
    }
    // Only floor rounding on a throttled chunk strands allocation.
    assert((remaining == 0 || (remaining <= 2 * static_cast<TimeNs>(pcpus) + 2 &&
                               std::any_of(speed_ppb.begin(), speed_ppb.end(), [](int64_t s) {
                                 return s > 0 && s < Bandwidth::kUnit;
                               }))) &&
           "allocations exceed the free space");
  }
}

}  // namespace rtvirt
