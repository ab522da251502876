#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace rtvirt {

namespace {

// Calendar sizing. The ring targets roughly one live entry per bucket:
// sorted in-bucket lists keep pops O(1) from the head even when entries
// cluster, and scanning an empty bucket costs one 16-byte header load from
// an array that is small enough to stay cache-warm. The ring at least doubles
// when occupancy exceeds 1 and halves (with wide hysteresis, so it cannot
// oscillate) when it drops below 1/8; a resize keeps the bucket width.
//
// Bucket width (a power of two, so the time-to-bucket mapping stays a shift)
// is retuned from measured cost, in the manner of Brown's calendar queue with
// the cost-triggered retune of the SNOOPy calendar queue. Every
// kRetuneWindow inserts, the queue looks at the window's counters: inserts
// that walk more than kNarrowWalk list nodes on average mean too many events
// share a bucket, so the ring is rebuilt one step narrower; searches that
// cross more than kWidenScan buckets while inserts walk under kShortWalk
// mean the buckets are mostly empty, so it is rebuilt one step wider. The
// two bands leave room for the walk to double on widening (and the scan to
// double on narrowing) without tripping the opposite rule. A crossed bucket
// costs more than a walked node (its head may be a later lap's node to load,
// and the loop exit mispredicts), so the scan bound is the tighter one: on
// the Table 6 shape with 100 timers, widening from 2.4 to 1.2 buckets per
// search (walk 0.70 -> 0.85 nodes) cut the cost per pop from 77 to 66 ns.
constexpr size_t kMinBuckets = 64;       // Power of two.
constexpr size_t kMaxBuckets = size_t{1} << 18;  // 256k buckets ~ 4 MB headers.
constexpr int kInitialWidthShift = 17;   // 2^17 ns ~ 131 us buckets.
constexpr int kMinWidthShift = 6;        // 2^6 ns: no point going finer.
constexpr int kMaxWidthShift = 30;       // 2^30 ns ~ 1.07 s buckets.
constexpr size_t kChunkNodes = 256;      // Arena nodes carved per growth.
constexpr uint64_t kRetuneWindow = 4096;  // Inserts between retune checks.
constexpr uint64_t kNarrowWalk = 2;      // Mean nodes walked per insert.
constexpr uint64_t kShortWalk = 1;       // Walk low enough to widen.
constexpr uint64_t kWidenScan = 2;       // Mean buckets crossed per search.

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

bool NodeBefore(TimeNs at, uint64_t as, TimeNs bt, uint64_t bs) {
  if (at != bt) {
    return at < bt;
  }
  return as < bs;
}

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), width_shift_(kInitialWidthShift) {}

EventQueue::~EventQueue() = default;

EventNode* EventQueue::AllocNode() {
  if (free_head_ == nullptr) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    ++stats_.node_allocs;
    EventNode* chunk = chunks_.back().get();
    for (size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_head_;
      free_head_ = &chunk[i];
    }
  }
  EventNode* n = free_head_;
  free_head_ = n->next;
  n->prev = nullptr;
  n->next = nullptr;
  return n;
}

void EventQueue::FreeNode(EventNode* n) {
  ++n->gen;  // Invalidate every EventId still pointing here.
  n->prev = nullptr;
  n->next = free_head_;
  free_head_ = n;
}

size_t EventQueue::BucketIndex(TimeNs time) const {
  return static_cast<size_t>(static_cast<uint64_t>(time) >> width_shift_) &
         (buckets_.size() - 1);
}

uint64_t EventQueue::BucketInsert(EventNode* n) {
  Bucket& b = buckets_[BucketIndex(n->time)];
  // Walk backwards from the tail: timers overwhelmingly land at or near the
  // end of their bucket's sorted list.
  EventNode* at = b.tail;
  uint64_t walked = 0;
  while (at != nullptr && NodeBefore(n->time, n->seq, at->time, at->seq)) {
    at = at->prev;
    ++walked;
  }
  n->prev = at;
  if (at == nullptr) {
    n->next = b.head;
    if (b.head != nullptr) {
      b.head->prev = n;
    } else {
      b.tail = n;
    }
    b.head = n;
  } else {
    n->next = at->next;
    if (at->next != nullptr) {
      at->next->prev = n;
    } else {
      b.tail = n;
    }
    at->next = n;
  }
  return walked;
}

void EventQueue::BucketUnlink(EventNode* n) {
  Bucket& b = buckets_[BucketIndex(n->time)];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    b.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    b.tail = n->prev;
  }
  n->prev = nullptr;
  n->next = nullptr;
}

EventNode* EventQueue::FindMin() const {
  if (cached_min_ != nullptr) {
    return cached_min_;
  }
  const size_t nb = buckets_.size();
  const size_t mask = nb - 1;
  ++stats_.searches;
  int64_t abs = pos_abs_;
  for (size_t scanned = 0; scanned < nb; ++scanned, ++abs) {
    EventNode* head = buckets_[static_cast<size_t>(abs) & mask].head;
    if (head != nullptr &&
        static_cast<int64_t>(static_cast<uint64_t>(head->time) >>
                             width_shift_) == abs) {
      // Sorted bucket: the head is its minimum, and every other pending
      // event maps to a strictly later absolute bucket, so this is the
      // global minimum.
      stats_.search_buckets += scanned;
      pos_abs_ = abs;
      cached_min_ = head;
      return head;
    }
  }
  // A full fruitless lap: everything pending is more than one ring
  // revolution ahead. Direct-scan the bucket heads for the global minimum
  // instead of walking the gap bucket by bucket.
  stats_.search_buckets += nb;
  EventNode* best = nullptr;
  for (const Bucket& b : buckets_) {
    EventNode* head = b.head;
    if (head != nullptr &&
        (best == nullptr ||
         NodeBefore(head->time, head->seq, best->time, best->seq))) {
      best = head;
    }
  }
  RTVIRT_CHECK(best != nullptr,
               "calendar scan found no live entry (live count %llu)",
               static_cast<unsigned long long>(live_count_));
  pos_abs_ = static_cast<int64_t>(static_cast<uint64_t>(best->time) >>
                                  width_shift_);
  cached_min_ = best;
  return best;
}

void EventQueue::Rebuild(size_t num_buckets, int width_shift) {
  // Chain every node into one list through `next`, bucket after bucket, and
  // note the earliest (the least bucket head). Then relink the chain into the
  // new ring. Each old bucket's run is sorted, so most nodes append at their
  // new bucket's tail; only runs that two old buckets feed interleave.
  EventNode* chain = nullptr;
  EventNode** link = &chain;
  EventNode* min = nullptr;
  for (const Bucket& b : buckets_) {
    if (b.head == nullptr) {
      continue;
    }
    if (min == nullptr || NodeBefore(b.head->time, b.head->seq, min->time, min->seq)) {
      min = b.head;
    }
    *link = b.head;
    link = &b.tail->next;
  }
  buckets_.assign(num_buckets, Bucket{});
  width_shift_ = width_shift;
  while (chain != nullptr) {
    EventNode* n = chain;
    chain = n->next;
    BucketInsert(n);
  }
  cached_min_ = min;
  pos_abs_ = min == nullptr ? 0
                            : static_cast<int64_t>(static_cast<uint64_t>(min->time) >>
                                                   width_shift_);
}

void EventQueue::MaybeResize() {
  const size_t nb = buckets_.size();
  size_t target = nb;
  if (live_count_ > nb && nb < kMaxBuckets) {
    target = std::min(kMaxBuckets, std::max(RoundUpPow2(live_count_), 2 * nb));
  } else if (nb > kMinBuckets && live_count_ * 8 < nb) {
    target = std::max(kMinBuckets, nb / 2);
  }
  if (target != nb) {
    Rebuild(target, width_shift_);
    ++stats_.calendar_resizes;
  }
}

void EventQueue::MaybeRetune() {
  const uint64_t walked = stats_.insert_walk - window_.insert_walk;
  const uint64_t crossed = stats_.search_buckets - window_.search_buckets;
  const uint64_t searches = stats_.searches - window_.searches;
  int shift = width_shift_;
  if (walked > kNarrowWalk * kRetuneWindow) {
    shift = std::max(kMinWidthShift, shift - 1);
  } else if (crossed > kWidenScan * searches && walked < kShortWalk * kRetuneWindow) {
    shift = std::min(kMaxWidthShift, shift + 1);
  }
  if (shift != width_shift_) {
    Rebuild(buckets_.size(), shift);
    ++stats_.calendar_retunes;
  }
  window_ = stats_;
}

void EventQueue::Place(EventNode* n, TimeNs when) {
  n->time = when;
  n->seq = next_seq_++;
  stats_.insert_walk += BucketInsert(n);
  int64_t abs = static_cast<int64_t>(static_cast<uint64_t>(when) >> width_shift_);
  if (abs < pos_abs_) {
    pos_abs_ = abs;  // Landed behind the front: pull the scan back.
  }
  if (cached_min_ != nullptr &&
      NodeBefore(n->time, n->seq, cached_min_->time, cached_min_->seq)) {
    cached_min_ = n;
  }
}

EventQueue::EventId EventQueue::Schedule(TimeNs when, const Event& event) {
  ++stats_.schedules;
  EventNode* n = AllocNode();
  n->event = event;
  Place(n, when);
  ++live_count_;
  EventId id;
  id.node_ = n;
  id.gen_ = n->gen;
  MaybeResize();
  if (stats_.schedules - window_.schedules == kRetuneWindow) {
    MaybeRetune();
  }
  return id;
}

Event EventQueue::Cancel(EventId& id) {
  EventNode* n = id.node_;
  bool pending = n != nullptr && n->gen == id.gen_;
  id = EventId{};
  if (!pending) {
    return Event{};  // Already fired, cancelled, or the node was recycled.
  }
  RTVIRT_CHECK(live_count_ > 0,
               "event-queue live count underflow on cancel (seq counter at %llu)",
               static_cast<unsigned long long>(next_seq_));
  if (n == cached_min_) {
    cached_min_ = nullptr;
  }
  Event cancelled = n->event;
  BucketUnlink(n);
  FreeNode(n);
  --live_count_;
  ++stats_.cancels;
  MaybeResize();
  return cancelled;
}

EventQueue::EventId EventQueue::Rearm(EventId id, TimeNs when, const Event& event) {
  EventNode* n = id.node_;
  if (n == nullptr || n->gen != id.gen_) {
    return Schedule(when, event);
  }
  ++stats_.cancels;
  ++stats_.schedules;
  ++n->gen;
  n->event = event;
  if (n->time == when && (n->next == nullptr || n->next->time != when)) {
    // Every other event pending at `when` shares this bucket and already
    // sorts before the node, so the fresh sequence number keeps its place
    // (and a cached minimum stays the minimum).
    n->seq = next_seq_++;
  } else {
    if (n == cached_min_) {
      cached_min_ = nullptr;
    }
    BucketUnlink(n);
    Place(n, when);
  }
  EventId out;
  out.node_ = n;
  out.gen_ = n->gen;
  if (stats_.schedules - window_.schedules == kRetuneWindow) {
    MaybeRetune();
  }
  return out;
}

TimeNs EventQueue::NextTime() const {
  return live_count_ == 0 ? kTimeNever : FindMin()->time;
}

EventQueue::Fired EventQueue::PopNext() {
  RTVIRT_CHECK(live_count_ > 0,
               "PopNext on an empty event queue (live count %llu)",
               static_cast<unsigned long long>(live_count_));
  ++stats_.pops;
  EventNode* n = FindMin();
  // Successor cache: the next node in this sorted bucket is the global
  // minimum whenever it still maps to the same absolute bucket (every other
  // pending event maps to a strictly later one). Prefetch it — the next pop
  // touches it first.
  EventNode* succ = n->next;
  if (succ != nullptr &&
      (static_cast<uint64_t>(succ->time) >> width_shift_) ==
          (static_cast<uint64_t>(n->time) >> width_shift_)) {
    __builtin_prefetch(succ);
    cached_min_ = succ;
  } else {
    cached_min_ = nullptr;
  }
  Fired fired{n->time, n->event};
  BucketUnlink(n);
  FreeNode(n);
  --live_count_;
  MaybeResize();
  return fired;
}

void EventQueue::CollectLive(std::vector<LiveEvent>* out) const {
  size_t base = out->size();
  for (const Bucket& b : buckets_) {
    for (EventNode* n = b.head; n != nullptr; n = n->next) {
      out->push_back(LiveEvent{n->time, n->seq, n->event});
    }
  }
  std::sort(out->begin() + base, out->end(),
            [](const LiveEvent& a, const LiveEvent& b) { return a.seq < b.seq; });
}

void EventQueue::Clear() {
  for (Bucket& b : buckets_) {
    EventNode* n = b.head;
    while (n != nullptr) {
      EventNode* next = n->next;
      FreeNode(n);  // Bumps gen: stale EventIds cancel as no-ops.
      n = next;
    }
    b.head = nullptr;
    b.tail = nullptr;
  }
  cached_min_ = nullptr;
  pos_abs_ = 0;
  live_count_ = 0;
}

}  // namespace rtvirt
