// Minimal parallel-for for experiment sweeps.
//
// The simulator itself is strictly single-threaded (deterministic event
// ordering), but a parameter sweep runs many *independent* simulations —
// each with its own Machine, Scheduler, and result — which parallelize
// trivially. This helper fans a loop body out over a small thread pool
// with a work-stealing counter; results are written into pre-sized slots,
// so no synchronization beyond the index counter is needed.
//
// Nesting: a parallel_for called from inside another parallel_for's body
// runs inline on the calling thread, and parallel_width() is 1 there. So a
// sweep that already spreads its cells over the CPUs keeps each cell's
// inner fan-out (the fair-start oracle's segments, a twin's forks) serial,
// and the thread count stays the outer loop's.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace amjs {

namespace detail {

/// True while this thread runs a parallel_for body.
inline thread_local bool in_parallel_body = false;

/// Marks the current thread as running a parallel_for body for its
/// lifetime, restoring the previous mark on exit (also on a throw).
class ParallelBodyScope {
 public:
  ParallelBodyScope() : outer_(std::exchange(in_parallel_body, true)) {}
  ~ParallelBodyScope() { in_parallel_body = outer_; }
  ParallelBodyScope(const ParallelBodyScope&) = delete;
  ParallelBodyScope& operator=(const ParallelBodyScope&) = delete;

 private:
  bool outer_;
};

}  // namespace detail

/// Threads worth starting for a fan-out from this thread: the CPU count of
/// the process's affinity mask (so `taskset -c 0` gives 1), falling back
/// to hardware_concurrency where the mask cannot be read; 1 inside a
/// parallel_for body, where a nested parallel_for runs inline anyway.
[[nodiscard]] inline unsigned parallel_width() {
  if (detail::in_parallel_body) return 1;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    if (const int cpus = CPU_COUNT(&mask); cpus > 0) return static_cast<unsigned>(cpus);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

/// Invoke `body(i)` for every i in [0, count), distributing indices over
/// up to `threads` workers (0 = parallel_width(), min 1). Inside another
/// parallel_for's body every index runs inline, in order, whatever
/// `threads` says. `body` must be safe to call concurrently for distinct
/// indices; indices are claimed atomically, so any imbalance in per-index
/// cost self-levels.
inline void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                         unsigned threads = 0) {
  if (count == 0) return;
  unsigned worker_count = threads ? threads : parallel_width();
  if (detail::in_parallel_body) worker_count = 1;
  if (worker_count > count) worker_count = static_cast<unsigned>(count);

  if (worker_count == 1) {
    const detail::ParallelBodyScope scope;
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    const detail::ParallelBodyScope scope;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  for (unsigned t = 0; t < worker_count; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

/// Map [0, count) -> results vector through `body`, in parallel. Each
/// slot is written exactly once by the worker that claimed its index, and
/// the result order matches index order for any thread count. T needs
/// only a move (or copy) constructor — results build in optional slots,
/// not a pre-sized vector, so T need not be default-constructible.
template <typename T>
[[nodiscard]] std::vector<T> parallel_map(
    std::size_t count, const std::function<T(std::size_t)>& body,
    unsigned threads = 0) {
  std::vector<std::optional<T>> slots(count);
  parallel_for(
      count, [&](std::size_t i) { slots[i].emplace(body(i)); }, threads);
  std::vector<T> results;
  results.reserve(count);
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace amjs
