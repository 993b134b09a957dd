// Classical queue orderings, shared by the baseline schedulers.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "workload/job.hpp"

namespace amjs {

enum class QueueOrder {
  kFcfs,           // by submission time (the prevalent default)
  kSjf,            // shortest requested walltime first
  kLjf,            // longest requested walltime first
  kSmallestFirst,  // fewest nodes first
  kLargestFirst,   // most nodes first
};

[[nodiscard]] std::string to_string(QueueOrder order);

/// Comparator for `order`; ties fall back to (submit, id) so every
/// ordering is total and deterministic.
[[nodiscard]] std::function<bool(const Job&, const Job&)> comparator(QueueOrder order);

/// The context's queue (submission order) sorted under `order`, freshly at
/// every call. The order is total, so this equals stable_sorting
/// ctx.queue() with comparator(order).
[[nodiscard]] std::vector<JobId> sorted_queue(const SchedContext& ctx, QueueOrder order);

}  // namespace amjs
