#include "support/reference_plans.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace amjs::test_support {

std::unique_ptr<Plan> reference_plan(const Machine& machine, SimTime now) {
  if (const auto* flat = dynamic_cast<const FlatMachine*>(&machine)) {
    return std::make_unique<FlatPlan>(flat->total_nodes(), now, flat->running());
  }
  if (const auto* part = dynamic_cast<const PartitionMachine*>(&machine)) {
    return std::make_unique<PartitionPlan>(*part, now);
  }
  std::abort();
}

PlanUnderTest plan_under_test(const Machine& machine, SimTime now, bool reference) {
  PlanUnderTest out;
  if (reference) {
    out.plan = reference_plan(machine, now);
  } else {
    out.calendar = make_plan_provider(machine);
    out.plan = out.calendar->plan(now);
  }
  return out;
}

FlatPlan::FlatPlan(NodeCount total, SimTime now,
                   const std::vector<RunningAlloc>& running)
    : total_(total), origin_(now) {
  steps_.push_back({now, total});
  for (const auto& alloc : running) {
    // A running job occupies from the plan origin until its predicted end
    // (jobs at/after their predicted end occupy until "now" resolves them;
    // treat them as ending immediately).
    const SimTime end = std::max(alloc.predicted_end, now);
    if (end > now) occupy(now, end, alloc.occupied);
  }
}

std::unique_ptr<Plan> FlatPlan::clone() const {
  return std::make_unique<FlatPlan>(*this);
}

bool FlatPlan::fits_at(const Job& job, SimTime t) const {
  assert(t >= origin_);
  const SimTime end = t + job.walltime;
  // Capacity must hold across every segment overlapping [t, end).
  for (std::size_t k = 0; k < steps_.size(); ++k) {
    const SimTime seg_start = steps_[k].time;
    const SimTime seg_end = (k + 1 < steps_.size()) ? steps_[k + 1].time : kNever;
    if (seg_end <= t) continue;
    if (seg_start >= end) break;
    if (steps_[k].free < job.nodes) return false;
  }
  return true;
}

SimTime FlatPlan::find_start(const Job& job, SimTime earliest) const {
  assert(job.nodes <= total_);
  earliest = std::max(earliest, origin_);
  // Candidate starts: `earliest` and every later breakpoint. For each, the
  // job fits if free capacity stays >= job.nodes across [t, t + walltime).
  // Scan breakpoints once, tracking the earliest viable candidate.
  std::size_t i = 0;
  while (i + 1 < steps_.size() && steps_[i + 1].time <= earliest) ++i;

  SimTime candidate = earliest;
  std::size_t j = i;
  while (true) {
    // Check viability of `candidate` starting from segment j.
    if (steps_[j].free >= job.nodes) {
      const SimTime end = candidate + job.walltime;
      bool viable = true;
      for (std::size_t k = j; k < steps_.size() && steps_[k].time < end; ++k) {
        // Segment k overlaps [candidate, end) — for k == j the overlap
        // starts at `candidate`.
        if (steps_[k].free < job.nodes) {
          viable = false;
          // Restart search at the breakpoint after the blocking segment.
          candidate = (k + 1 < steps_.size()) ? steps_[k + 1].time : kNever;
          j = k + 1 < steps_.size() ? k + 1 : steps_.size() - 1;
          break;
        }
      }
      if (viable) return candidate;
      if (candidate == kNever) break;  // defensive; cannot happen (see below)
    } else {
      if (j + 1 >= steps_.size()) break;  // defensive
      ++j;
      candidate = steps_[j].time;
    }
  }
  // Unreachable for fitting jobs: the final segment is the whole machine
  // free forever once every commitment expires.
  assert(false && "find_start: no slot for a fitting job");
  return kNever;
}

void FlatPlan::commit(const Job& job, SimTime start) {
  assert(start >= origin_);
  undo_.push_back(steps_);
  occupy(start, start + job.walltime, job.nodes);
}

void FlatPlan::undo_last_commit() {
  assert(!undo_.empty());
  steps_ = std::move(undo_.back());
  undo_.pop_back();
}

void FlatPlan::occupy(SimTime from, SimTime to, NodeCount nodes) {
  assert(from < to);
  assert(nodes > 0);
  // Ensure breakpoints exist at `from` and `to`, then subtract capacity on
  // the covered segments.
  auto ensure_breakpoint = [&](SimTime t) {
    auto it = std::lower_bound(
        steps_.begin(), steps_.end(), t,
        [](const Step& s, SimTime time) { return s.time < time; });
    if (it != steps_.end() && it->time == t) return;
    assert(it != steps_.begin());  // t >= origin_ always
    const NodeCount free_before = std::prev(it)->free;
    steps_.insert(it, Step{t, free_before});
  };
  ensure_breakpoint(from);
  ensure_breakpoint(to);
  for (auto& s : steps_) {
    if (s.time >= to) break;
    if (s.time >= from) {
      s.free -= nodes;
      assert(s.free >= 0 && "plan oversubscribed");
    }
  }
}

PartitionPlan::PartitionPlan(const PartitionMachine& machine, SimTime now)
    : machine_(&machine), origin_(now) {
  for (const auto& live : machine.running_allocs()) {
    const SimTime end = std::max(live.alloc.predicted_end, now);
    if (end > now) {
      pinned_.push_back({now, end, machine.partition_mask(live.partition)});
      committed_.push_back({now, end, live.alloc.occupied});
    }
  }
}

std::unique_ptr<Plan> PartitionPlan::clone() const {
  return std::make_unique<PartitionPlan>(*this);
}

int PartitionPlan::free_partition_during(const Job& job, SimTime t) const {
  const SimTime end = t + job.walltime;
  for (int idx : machine_->tier_partitions(job)) {
    const auto& mask = machine_->partition_mask(idx);
    bool conflict = false;
    for (const auto& iv : pinned_) {
      if (iv.end > t && iv.start < end && (iv.mask & mask).any()) {
        conflict = true;
        break;
      }
    }
    if (!conflict) return idx;
  }
  return -1;
}

NodeCount PartitionPlan::peak_usage(SimTime t, Duration duration) const {
  // Sweep the +occ/-occ boundaries of the commitments overlapping
  // [t, t + duration): O(k log k) in the overlap count rather than
  // O(|committed|^2) — this sits inside every feasibility check.
  const SimTime end = t + duration;
  NodeCount at_t = 0;
  // Small stack buffer: overlap counts are typically a few dozen.
  std::vector<std::pair<SimTime, NodeCount>> deltas;
  deltas.reserve(committed_.size());
  for (const auto& c : committed_) {
    if (c.end <= t || c.start >= end) continue;
    if (c.start <= t) {
      at_t += c.occupied;
    } else {
      deltas.emplace_back(c.start, c.occupied);
    }
    if (c.end < end) deltas.emplace_back(c.end, -c.occupied);
  }
  std::sort(deltas.begin(), deltas.end());
  NodeCount peak = at_t;
  NodeCount current = at_t;
  for (const auto& [time, delta] : deltas) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

bool PartitionPlan::feasible_at(const Job& job, SimTime t, NodeCount occ) const {
  if (free_partition_during(job, t) < 0) return false;
  return peak_usage(t, job.walltime) + occ <= machine_->total_nodes();
}

bool PartitionPlan::fits_at(const Job& job, SimTime t) const {
  return feasible_at(job, t, machine_->occupancy(job));
}

SimTime PartitionPlan::find_start(const Job& job, SimTime earliest) const {
  assert(machine_->fits(job));
  earliest = std::max(earliest, origin_);
  const NodeCount occ = machine_->occupancy(job);
  // Candidate starts: `earliest` plus every time capacity or a partition
  // frees up (running ends and commitment ends).
  std::vector<SimTime> candidates;
  candidates.push_back(earliest);
  for (const auto& iv : pinned_) {
    if (iv.end > earliest) candidates.push_back(iv.end);
  }
  for (const auto& c : committed_) {
    if (c.end > earliest) candidates.push_back(c.end);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const SimTime t : candidates) {
    if (feasible_at(job, t, occ)) return t;
  }
  // Past the last commitment the machine is empty.
  assert(!candidates.empty());
  return candidates.back();
}

void PartitionPlan::commit(const Job& job, SimTime start) {
  const NodeCount occ = machine_->occupancy(job);
  assert(feasible_at(job, start, occ) && "commit at an infeasible start");
  const int idx = free_partition_during(job, start);
  assert(idx >= 0);
  pinned_.push_back(
      {start, start + job.walltime, machine_->partition_mask(idx)});
  committed_.push_back({start, start + job.walltime, occ});
  last_placement_ = idx;
}

void PartitionPlan::undo_last_commit() {
  // commit() appends exactly one pinned and one capacity interval; strict
  // LIFO popping restores the pre-commit plan bit for bit.
  assert(!pinned_.empty() && !committed_.empty());
  pinned_.pop_back();
  committed_.pop_back();
  last_placement_ = -1;
}

void PartitionPlan::commit_soft(const Job& job, SimTime start) {
  const NodeCount occ = machine_->occupancy(job);
  assert(feasible_at(job, start, occ) && "commit at an infeasible start");
  committed_.push_back({start, start + job.walltime, occ});
  last_placement_ = -1;
}

}  // namespace amjs::test_support
