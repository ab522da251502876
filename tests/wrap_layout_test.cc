#include "src/rtvirt/wrap_layout.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/common/bandwidth.h"
#include "src/common/rng.h"

namespace rtvirt {
namespace {

// McNaughton's wrap-around: WrapAround over `pcpus` empty full-speed chunks.
std::vector<WrapSegment> McNaughton(const std::vector<WrapItem>& items, TimeNs slice_len,
                                    int pcpus) {
  std::vector<TimeNs> fill(static_cast<size_t>(pcpus), 0);
  const std::vector<int64_t> speeds(fill.size(), Bandwidth::kUnit);
  std::vector<WrapSegment> segments;
  WrapAround(items, slice_len, fill, speeds, &segments);
  return segments;
}

// Checks all DP-WRAP layout invariants for a given item set.
void CheckInvariants(const std::vector<WrapItem>& items, TimeNs slice_len, int pcpus) {
  auto segments = McNaughton(items, slice_len, pcpus);

  // Per-item totals match allocations.
  std::map<int, TimeNs> per_item;
  std::map<int, std::vector<WrapSegment>> item_segments;
  for (const WrapSegment& s : segments) {
    EXPECT_LT(s.start, s.end);
    EXPECT_GE(s.start, 0);
    EXPECT_LE(s.end, slice_len);
    EXPECT_GE(s.pcpu, 0);
    EXPECT_LT(s.pcpu, pcpus);
    per_item[s.item_id] += s.end - s.start;
    item_segments[s.item_id].push_back(s);
  }
  for (const WrapItem& item : items) {
    EXPECT_EQ(per_item[item.id], item.alloc) << "item " << item.id;
  }

  // Per-PCPU segments are disjoint.
  std::map<int, std::vector<WrapSegment>> per_pcpu;
  for (const WrapSegment& s : segments) {
    per_pcpu[s.pcpu].push_back(s);
  }
  for (auto& [pcpu, segs] : per_pcpu) {
    std::sort(segs.begin(), segs.end(),
              [](const WrapSegment& a, const WrapSegment& b) { return a.start < b.start; });
    for (size_t i = 1; i < segs.size(); ++i) {
      EXPECT_LE(segs[i - 1].end, segs[i].start) << "overlap on pcpu " << pcpu;
    }
  }

  // Split items: at most pcpus-1, pieces on distinct PCPUs with no
  // wall-clock overlap.
  int splits = 0;
  for (auto& [id, segs] : item_segments) {
    if (segs.size() > 1) {
      ++splits;
      ASSERT_EQ(segs.size(), 2u) << "an item can straddle at most one cut";
      EXPECT_NE(segs[0].pcpu, segs[1].pcpu);
      const WrapSegment& a = segs[0].start <= segs[1].start ? segs[0] : segs[1];
      const WrapSegment& b = segs[0].start <= segs[1].start ? segs[1] : segs[0];
      EXPECT_LE(a.end, b.start) << "split pieces of item " << id << " overlap in time";
    }
  }
  EXPECT_LE(splits, pcpus - 1);
}

TEST(WrapLayout, EmptyItems) {
  EXPECT_TRUE(McNaughton(std::vector<WrapItem>{}, Us(250), 4).empty());
}

TEST(WrapLayout, ZeroAllocationProducesNoSegments) {
  std::vector<WrapItem> items{{0, 0}, {1, Us(100)}, {2, 0}};
  auto segs = McNaughton(items, Us(250), 2);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].item_id, 1);
}

TEST(WrapLayout, SingleItemFullSlice) {
  std::vector<WrapItem> items{{7, Us(250)}};
  auto segs = McNaughton(items, Us(250), 3);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].pcpu, 0);
  EXPECT_EQ(segs[0].start, 0);
  EXPECT_EQ(segs[0].end, Us(250));
}

TEST(WrapLayout, ExactPackNoSplits) {
  // Items exactly filling each chunk never split.
  std::vector<WrapItem> items{{0, 100}, {1, 100}, {2, 100}};
  auto segs = McNaughton(items, 100, 3);
  ASSERT_EQ(segs.size(), 3u);
  for (const auto& s : segs) {
    EXPECT_EQ(s.end - s.start, 100);
  }
  CheckInvariants(items, 100, 3);
}

TEST(WrapLayout, StraddlingItemSplitsWithoutTimeOverlap) {
  std::vector<WrapItem> items{{0, 70}, {1, 60}, {2, 40}};
  CheckInvariants(items, 100, 2);
  auto segs = McNaughton(items, 100, 2);
  // Item 1 straddles the cut: [70,100) on pcpu0 and [0,30) on pcpu1.
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[1].item_id, 1);
  EXPECT_EQ(segs[1].pcpu, 0);
  EXPECT_EQ(segs[1].start, 70);
  EXPECT_EQ(segs[2].item_id, 1);
  EXPECT_EQ(segs[2].pcpu, 1);
  EXPECT_EQ(segs[2].end, 30);
}

TEST(WrapLayout, FullUtilizationManyItems) {
  // 15 PCPUs fully utilized by 45 equal items.
  std::vector<WrapItem> items;
  for (int i = 0; i < 45; ++i) {
    items.push_back({i, 100});
  }
  CheckInvariants(items, 300, 15);
}

class WrapLayoutRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WrapLayoutRandomTest, InvariantsHoldOnRandomItemSets) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    int pcpus = static_cast<int>(rng.UniformInt(1, 16));
    TimeNs slice = rng.UniformInt(1000, 1000000);
    int n = static_cast<int>(rng.UniformInt(0, 40));
    std::vector<WrapItem> items;
    TimeNs budget = slice * pcpus;
    for (int i = 0; i < n && budget > 0; ++i) {
      TimeNs alloc = rng.UniformInt(0, std::min(slice, budget));
      items.push_back({i, alloc});
      budget -= alloc;
    }
    CheckInvariants(items, slice, pcpus);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrapLayoutRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace rtvirt
