// Reference model of the event queue for differential tests: a std::set of
// pending events ordered by (time, insertion sequence). It has the calendar
// queue's contract and API, and none of its machinery — no buckets, arena,
// resizes or generation stamps — so a disagreement between the two is a
// calendar-queue bug.

#ifndef TESTS_EVENT_ORACLE_H_
#define TESTS_EVENT_ORACLE_H_

#include <cstdint>
#include <set>

#include "src/sim/event_queue.h"

namespace rtvirt {

class SetEventQueue {
 public:
  struct EventId {
    TimeNs time = 0;
    uint64_t seq = UINT64_MAX;  // Inert.
  };

  EventId Schedule(TimeNs when, const Event& event) {
    EventId id{when, next_seq_++};
    pending_.insert(Entry{when, id.seq, event});
    return id;
  }

  Event Cancel(EventId& id) {
    Event cancelled;
    auto it = pending_.find(Entry{id.time, id.seq, Event{}});
    if (it != pending_.end()) {
      cancelled = it->event;
      pending_.erase(it);
    }
    id = EventId{};
    return cancelled;
  }

  bool empty() const { return pending_.empty(); }
  size_t size() const { return pending_.size(); }
  TimeNs NextTime() const { return empty() ? kTimeNever : pending_.begin()->time; }

  EventQueue::Fired PopNext() {
    EventQueue::Fired fired{pending_.begin()->time, pending_.begin()->event};
    pending_.erase(pending_.begin());
    return fired;
  }

 private:
  struct Entry {
    TimeNs time;
    uint64_t seq;
    Event event;
    bool operator<(const Entry& o) const { return time != o.time ? time < o.time : seq < o.seq; }
  };

  uint64_t next_seq_ = 0;
  std::set<Entry> pending_;
};

}  // namespace rtvirt

#endif  // TESTS_EVENT_ORACLE_H_
