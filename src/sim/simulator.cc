#include "src/sim/simulator.h"

#include <utility>

#include "src/common/check.h"

namespace rtvirt {

Simulator::EventId Simulator::At(TimeNs when, EventTarget* target, uint32_t kind,
                                 uint64_t payload) {
  RTVIRT_CHECK(when >= now_,
               "event scheduled in the past: when=%lld ns < now=%lld ns",
               static_cast<long long>(when), static_cast<long long>(now_));
  return queue_.Schedule(when, Event{target, kind, payload});
}

Simulator::EventId Simulator::At(TimeNs when, Callback cb) {
  closures_.emplace(next_closure_, std::move(cb));
  return At(when, this, 0, next_closure_++);
}

void Simulator::OnEvent(uint32_t /*kind*/, uint64_t payload) {
  // Taken out of the table first: the closure may schedule more closures.
  auto node = closures_.extract(payload);
  node.mapped()();
}

void Simulator::Cancel(EventId& id) {
  Event cancelled = queue_.Cancel(id);
  if (cancelled.target == this) {
    closures_.erase(cancelled.payload);
  }
}

void Simulator::ClearEventsForRestore() {
  queue_.Clear();
  closures_.clear();
}

void Simulator::FireNext() {
  EventQueue::Fired fired = queue_.PopNext();
  RTVIRT_CHECK(fired.time >= now_,
               "event fired in the past: time=%lld ns < now=%lld ns",
               static_cast<long long>(fired.time), static_cast<long long>(now_));
  now_ = fired.time;
  ++events_processed_;
  fired.event.Fire();
}

void Simulator::RunUntil(TimeNs end) {
  while (!queue_.empty() && queue_.NextTime() <= end) {
    FireNext();
  }
  if (now_ < end) {
    now_ = end;
  }
}

void Simulator::RunAll() {
  while (!queue_.empty()) {
    FireNext();
  }
}

}  // namespace rtvirt
