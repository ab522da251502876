// Discrete-event simulator clock and run loop.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/sim/event_queue.h"

namespace rtvirt {

class Simulator : private EventTarget {
 public:
  using EventId = EventQueue::EventId;
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules event `kind` of `target` at absolute time `when` (must be >=
  // Now()); it fires as target->OnEvent(kind, payload).
  EventId At(TimeNs when, EventTarget* target, uint32_t kind, uint64_t payload = 0);
  EventId After(TimeNs delay, EventTarget* target, uint32_t kind, uint64_t payload = 0) {
    return At(now_ + delay, target, kind, payload);
  }

  // Closure adapter for harness code (tests, benches, examples): the
  // simulator keeps `cb` and schedules itself as the target. Such events
  // cannot be checkpointed; simulator components schedule tagged events.
  EventId At(TimeNs when, Callback cb);
  EventId After(TimeNs delay, Callback cb) { return At(now_ + delay, std::move(cb)); }

  void Cancel(EventId& id);

  // Runs events until the queue is empty or the clock would pass `end`;
  // leaves the clock at min(end, time of last event).
  void RunUntil(TimeNs end);

  // Runs until the queue is empty.
  void RunAll();

  uint64_t events_processed() const { return events_processed_; }
  // Operation/allocation counters of the underlying event queue.
  const EventQueueStats& queue_stats() const { return queue_.stats(); }

  // Checkpoint support (src/checkpoint). CollectLiveEvents snapshots every
  // pending event's (time, seq, event); ClearEventsForRestore drops them all
  // so a restored image can re-create the queue from scratch; RestoreClock
  // moves the clock without running anything.
  void CollectLiveEvents(std::vector<EventQueue::LiveEvent>* out) const {
    queue_.CollectLive(out);
  }
  void ClearEventsForRestore();
  void RestoreClock(TimeNs now, uint64_t events_processed) {
    now_ = now;
    events_processed_ = events_processed;
  }

 private:
  // Runs (and releases) the closure numbered `payload`.
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void FireNext();

  TimeNs now_ = 0;
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  // Closures of pending adapter events, by number.
  std::unordered_map<uint64_t, Callback> closures_;
  uint64_t next_closure_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_SIM_SIMULATOR_H_
