#include "sched/queue_policies.hpp"

#include <algorithm>
#include <compare>
#include <cstdint>

namespace amjs {
namespace {

/// A job's place under an order, compared field by field: the order's
/// primary key (negated for the descending orders), then submit, then id.
/// No two jobs share an id, so the order is total.
struct OrderKey {
  std::int64_t primary;
  SimTime submit;
  JobId id;

  auto operator<=>(const OrderKey&) const = default;
};

/// The one definition of the five orders.
OrderKey order_key(const Job& j, QueueOrder order) {
  std::int64_t primary = j.submit;  // kFcfs
  switch (order) {
    case QueueOrder::kFcfs: break;
    case QueueOrder::kSjf: primary = j.walltime; break;
    case QueueOrder::kLjf: primary = -j.walltime; break;
    case QueueOrder::kSmallestFirst: primary = j.nodes; break;
    case QueueOrder::kLargestFirst: primary = -j.nodes; break;
  }
  return {primary, j.submit, j.id};
}

}  // namespace

std::string to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFcfs: return "FCFS";
    case QueueOrder::kSjf: return "SJF";
    case QueueOrder::kLjf: return "LJF";
    case QueueOrder::kSmallestFirst: return "SmallestFirst";
    case QueueOrder::kLargestFirst: return "LargestFirst";
  }
  return "?";
}

std::function<bool(const Job&, const Job&)> comparator(QueueOrder order) {
  return [order](const Job& a, const Job& b) {
    return order_key(a, order) < order_key(b, order);
  };
}

std::vector<JobId> sorted_queue(const SchedContext& ctx, QueueOrder order) {
  // Keys are gathered once, so the sort compares flat fields instead of
  // looking jobs up per comparison.
  std::vector<OrderKey> keys;
  keys.reserve(ctx.queue().size());
  for (const JobId id : ctx.queue()) keys.push_back(order_key(ctx.job(id), order));
  std::sort(keys.begin(), keys.end());
  std::vector<JobId> ids;
  ids.reserve(keys.size());
  for (const OrderKey& key : keys) ids.push_back(key.id);
  return ids;
}

}  // namespace amjs
