// Discrete-event machinery: event records and the priority queue.
//
// Determinism contract: ties are broken by (time, type, sequence number),
// where lower type values run first. Job ends precede submits at the same
// instant so resources freed at t are available to jobs arriving at t —
// matching Cobalt's qsim, which processes releases before admissions.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace amjs {

enum class EventType : std::uint8_t {
  kJobEnd = 0,      // a running job completed
  kJobSubmit = 1,   // a job entered the queue
  kMetricCheck = 2  // periodic metrics / adaptive-tuning checkpoint
};

struct Event {
  SimTime time = 0;
  EventType type = EventType::kJobSubmit;
  /// Monotone insertion counter: the final, total tie-breaker.
  std::uint64_t seq = 0;
  /// Job this event concerns (kInvalidJob for metric checks).
  JobId job = kInvalidJob;
};

/// Min-heap over (time, type, seq).
class EventQueue {
 public:
  void push(SimTime time, EventType type, JobId job);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] const Event& top() const { return heap_.front(); }
  Event pop();
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Remove every pending event of `type` with one O(n) filter and
  /// re-heapify. The survivors keep their seq numbers, so they pop in the
  /// same relative order as before. Returns the number removed.
  std::size_t drop(EventType type);

  /// Pending events in ascending (time, type, seq) order — the order pop()
  /// would return them. O(n log n) sorted copy; serialization and
  /// inspection only, the queue itself is untouched.
  [[nodiscard]] std::vector<Event> sorted() const;

  /// Insertion counter the next push() will assign (snapshot codec state).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Rebuild a queue from events saved by sorted(), preserving their
  /// original seq numbers so tie-breaking replays identically. `next_seq`
  /// must exceed every restored event's seq (asserted in debug builds).
  [[nodiscard]] static EventQueue restore(const std::vector<Event>& events,
                                          std::uint64_t next_seq);

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.type != b.type) return a.type > b.type;
      return a.seq > b.seq;
    }
  };

  /// Binary heap under Later (std::push_heap / std::pop_heap), kept as a
  /// plain vector so drop() can filter it in place.
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace amjs
