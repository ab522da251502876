// Cancellable discrete-event queue of tagged events.
//
// An event is plain data: (target, kind, payload). When it fires, the
// simulator calls target->OnEvent(kind, payload), and the target keeps the
// one body that kind runs. Because no closure sits in the queue, a pending
// event can be checkpointed as is, and restore re-arms it through the owning
// component's ordinary schedule path (src/checkpoint).
//
// Events are ordered by (time, insertion sequence). The queue is a calendar
// queue: a ring of power-of-two-width time buckets (the time-to-bucket
// mapping is a shift, never a 64-bit division), each bucket a doubly-linked
// list kept (time, seq)-sorted, with nodes recycled through a chunked
// freelist arena. The ring's bucket count follows occupancy; its bucket width
// follows measured cost: after every fixed window of inserts the queue
// compares how many list nodes the inserts walked and how many buckets the
// search front crossed, and rebuilds the ring one width step narrower or
// wider when either dominates. Insert and pop are O(1) amortized,
// cancellation really unlinks the entry in O(1), and the steady state after
// warm-up performs no allocations at all (bench/perf_suite asserts this).
// The geometry never changes the (time, seq) firing order;
// tests/determinism_test.cc drives the queue in lockstep against a std::set
// reference model through resizes and retunes.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/time.h"

namespace rtvirt {

// A component that schedules events on itself.
class EventTarget {
 public:
  // Runs the body of event `kind` that this target scheduled with `payload`.
  virtual void OnEvent(uint32_t kind, uint64_t payload) = 0;

 protected:
  ~EventTarget() = default;
};

struct Event {
  EventTarget* target = nullptr;
  uint32_t kind = 0;
  uint64_t payload = 0;

  void Fire() const { target->OnEvent(kind, payload); }
};

struct EventNode;

// Operation, allocation and calendar-cost counters, cheap enough to maintain
// always and cumulative over the queue's life. The perf recorder reads these
// to assert the zero-alloc steady state; the width retune reads the cost
// counters over each window.
struct EventQueueStats {
  uint64_t schedules = 0;
  uint64_t cancels = 0;
  uint64_t pops = 0;
  uint64_t node_allocs = 0;       // Arena chunk growths; none after warm-up.
  uint64_t calendar_resizes = 0;  // Bucket-count changes driven by occupancy.
  uint64_t calendar_retunes = 0;  // Bucket-width changes driven by cost.
  uint64_t insert_walk = 0;       // List nodes inserts stepped past.
  uint64_t searches = 0;          // Ring scans for the earliest event.
  uint64_t search_buckets = 0;    // Buckets those scans crossed.
};

class EventQueue {
 public:
  // Identifies a scheduled event for cancellation. Default-constructed ids
  // are inert, and ids of events that already fired (or were cancelled, or
  // whose node was since recycled) cancel as a no-op: an id carries the
  // node's generation at schedule time, and the node bumps it when freed.
  class EventId {
   public:
    EventId() = default;
    bool valid() const { return node_ != nullptr; }

   private:
    friend class EventQueue;
    EventNode* node_ = nullptr;
    uint64_t gen_ = 0;
  };

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventId Schedule(TimeNs when, const Event& event);

  // Cancels the event if it has not fired yet and resets `id` to inert.
  // Returns the cancelled event; its target is null when nothing was pending.
  Event Cancel(EventId& id);

  // Cancel(id) followed by Schedule(when, event), in one step: a pending
  // event's node moves to (`when`, a fresh sequence number) and keeps its
  // place in its bucket when no later-sequenced event shares `when`, so the
  // common re-arm at an unchanged time is O(1). A stale or inert `id`
  // schedules a new event. The pending (time, seq) order, the sequence
  // numbers consumed and the counters (one cancel when `id` was pending, one
  // schedule) are those of the two calls; copies of `id` go stale.
  EventId Rearm(EventId id, TimeNs when, const Event& event);

  // Checkpoint support: snapshot of one pending event.
  struct LiveEvent {
    TimeNs time;
    uint64_t seq;
    Event event;
  };
  // Appends every pending event (in seq order, which also fixes same-time
  // firing order) to `out`.
  void CollectLive(std::vector<LiveEvent>* out) const;
  // Drops every pending event. Nodes return to the arena with their
  // generation bumped, so EventIds held by components cancel as no-ops.
  void Clear();

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Time of the earliest pending event; kTimeNever when empty.
  TimeNs NextTime() const;

  // Removes and returns the earliest pending event. Precondition: !empty().
  struct Fired {
    TimeNs time;
    Event event;
  };
  Fired PopNext();

  const EventQueueStats& stats() const { return stats_; }
  // Current bucket width; retunes move it one power of two at a time.
  TimeNs bucket_width() const { return TimeNs{1} << width_shift_; }

 private:
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  // Arena: nodes come from chunked blocks and recycle through a freelist, so
  // a warmed-up queue never touches the allocator again.
  EventNode* AllocNode();
  void FreeNode(EventNode* n);

  size_t BucketIndex(TimeNs time) const;
  // Links `n` into its sorted bucket list; returns how many nodes it walked.
  uint64_t BucketInsert(EventNode* n);
  // Gives the unlinked `n` time `when` and the next sequence number, links it
  // in, and pulls the search front and the cached minimum to it if it sorts
  // first.
  void Place(EventNode* n, TimeNs when);
  void BucketUnlink(EventNode* n);
  // Locates (and caches) the earliest node, advancing the search front.
  EventNode* FindMin() const;
  // Relinks every pending node into a ring of `num_buckets` buckets of width
  // 2^`width_shift`. Allocates only when the ring grows.
  void Rebuild(size_t num_buckets, int width_shift);
  void MaybeResize();
  void MaybeRetune();

  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  // Mutable so that FindMin, a cache fill behind const NextTime, can count.
  mutable EventQueueStats stats_;

  // Bucket widths are powers of two so the hot-path time-to-bucket mapping
  // is a shift. `pos_abs_` is the absolute bucket number (time >>
  // width_shift_) the search front sits at; it advances on pops and is
  // pulled back by an insert that lands behind it, so the scan never misses
  // an event.
  std::vector<Bucket> buckets_;
  int width_shift_ = 0;
  mutable int64_t pos_abs_ = 0;
  mutable EventNode* cached_min_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_head_ = nullptr;
  // The counters as they stood when the current retune window opened.
  EventQueueStats window_;
};

// One cache line per pending event.
struct EventNode {
  TimeNs time = 0;
  uint64_t seq = 0;
  // Bumped whenever the node fires, is cancelled, re-armed or recycled — a
  // stale EventId's generation no longer matches, making its Cancel() a no-op.
  uint64_t gen = 0;
  Event event;
  EventNode* prev = nullptr;
  EventNode* next = nullptr;  // Bucket list link, doubles as freelist link.
};
static_assert(sizeof(EventNode) == 64, "EventNode should fill one cache line");

}  // namespace rtvirt

#endif  // SRC_SIM_EVENT_QUEUE_H_
