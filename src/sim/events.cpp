#include "sim/events.hpp"

#include <algorithm>
#include <cassert>

namespace amjs {

void EventQueue::push(SimTime time, EventType type, JobId job) {
  heap_.push_back(Event{time, type, next_seq_++, job});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Event EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

std::size_t EventQueue::drop(EventType type) {
  const auto kept = std::remove_if(heap_.begin(), heap_.end(),
                                   [type](const Event& e) { return e.type == type; });
  const auto removed = static_cast<std::size_t>(heap_.end() - kept);
  heap_.erase(kept, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  return removed;
}

std::vector<Event> EventQueue::sorted() const {
  std::vector<Event> events = heap_;
  // (time, type, seq) is a total order, so this is exactly the pop order.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return Later{}(b, a); });
  return events;
}

EventQueue EventQueue::restore(const std::vector<Event>& events,
                               std::uint64_t next_seq) {
  EventQueue q;
  for (const Event& e : events) {
    assert(e.seq < next_seq && "restore: event seq past next_seq");
    q.heap_.push_back(e);
  }
  std::make_heap(q.heap_.begin(), q.heap_.end(), Later{});
  q.next_seq_ = next_seq;
  return q;
}

}  // namespace amjs
