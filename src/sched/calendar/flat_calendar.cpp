#include "sched/calendar/flat_calendar.hpp"

#include <algorithm>
#include <cassert>

#include "platform/flat.hpp"

namespace amjs {
namespace {

using Step = FlatCalendar::Step;

/// Index of the segment containing `t` (last breakpoint with time <= t).
std::size_t segment_index(const std::vector<Step>& steps, SimTime t) {
  assert(!steps.empty() && steps.front().time <= t);
  const auto it = std::upper_bound(
      steps.begin(), steps.end(), t,
      [](SimTime time, const Step& s) { return time < s.time; });
  return static_cast<std::size_t>(it - steps.begin()) - 1;
}

/// First breakpoint at or after `t`.
std::vector<Step>::iterator lower_breakpoint(std::vector<Step>& steps, SimTime t) {
  return std::lower_bound(steps.begin(), steps.end(), t,
                          [](const Step& s, SimTime time) { return s.time < time; });
}

}  // namespace

FlatCalendar::FlatCalendar(const FlatMachine& machine) : machine_(&machine) {}

void FlatCalendar::resync() {
  synced_ = false;
  pending_.clear();
}

void FlatCalendar::rebuild(SimTime now) {
  steps_.clear();
  steps_.push_back({now, machine_->total_nodes()});
  holds_.clear();
  for (const RunningAlloc& alloc : machine_->running()) {
    // A job at/after its predicted end contributes nothing (the simulator
    // resolves it at this instant).
    const SimTime end = std::max(alloc.predicted_end, now);
    if (end > now) {
      occupy(now, end, alloc.occupied);
      holds_[alloc.job] = {end, alloc.occupied};
    }
  }
  pending_.clear();
  synced_ = true;
}

void FlatCalendar::on_job_start(const Job& job, SimTime now) {
  if (!synced_) return;  // next plan() rebuilds from the machine anyway
  Delta d{Delta::Kind::kStart, job.id, now, now + job.walltime, job.nodes};
  pending_.push_back(d);
}

void FlatCalendar::on_job_finish(JobId job, SimTime now) {
  if (!synced_) return;
  pending_.push_back({Delta::Kind::kFinish, job, now, 0, 0});
}

void FlatCalendar::apply_pending() {
  if (pending_.empty()) return;
  for (const Delta& d : pending_) {
    if (d.kind == Delta::Kind::kStart) {
      if (d.end > d.at) {
        occupy(d.at, d.end, d.nodes);
        holds_[d.job] = {d.end, d.nodes};
      }
    } else {
      const auto it = holds_.find(d.job);
      if (it == holds_.end()) continue;  // zero-length hold was never added
      const auto [end, nodes] = it->second;
      // Release the not-yet-elapsed remainder of the predicted hold. The
      // already-elapsed part stays in the profile's past, which queries
      // (always at t >= the next plan origin) never see.
      if (end > d.at) occupy(d.at, end, -nodes);
      holds_.erase(it);
    }
  }
  pending_.clear();
}

void FlatCalendar::trim(SimTime now) {
  // Normalize the profile front to `now`: drop fully elapsed breakpoints
  // and pin the first one at the new origin, so views see exactly the
  // profile a from-scratch rebuild at `now` would produce.
  assert(!steps_.empty());
  std::size_t keep = 0;
  while (keep + 1 < steps_.size() && steps_[keep + 1].time <= now) ++keep;
  if (keep > 0) steps_.erase(steps_.begin(), steps_.begin() + static_cast<std::ptrdiff_t>(keep));
  if (steps_.front().time < now) steps_.front().time = now;
}

void FlatCalendar::occupy(SimTime from, SimTime to, NodeCount nodes) {
  assert(from < to);
  assert(nodes != 0);
  auto ensure_breakpoint = [&](SimTime t) {
    const auto it = lower_breakpoint(steps_, t);
    if (it != steps_.end() && it->time == t) return;
    assert(it != steps_.begin() && "breakpoint before the profile origin");
    const NodeCount free_before = std::prev(it)->free;
    steps_.insert(it, Step{t, free_before});
  };
  ensure_breakpoint(from);
  ensure_breakpoint(to);
  for (auto& s : steps_) {
    if (s.time >= to) break;
    if (s.time >= from) {
      s.free -= nodes;
      assert(s.free >= 0 && "calendar oversubscribed");
      assert(s.free <= machine_->total_nodes() && "calendar over-released");
    }
  }
}

std::unique_ptr<Plan> FlatCalendar::plan(SimTime now) {
  if (!synced_) {
    rebuild(now);
  } else {
    apply_pending();
    trim(now);
  }
  ++gen_;  // any outstanding view from a previous pass is now stale
  return std::make_unique<FlatCalendarPlan>(*this, now);
}

FlatCalendarPlan::FlatCalendarPlan(const FlatCalendar& base, SimTime now)
    : base_(&base),
      origin_(now),
      total_(base.machine_->total_nodes()),
      base_gen_(base.gen_) {
  overlay_.push_back({now, 0});
}

std::unique_ptr<Plan> FlatCalendarPlan::clone() const {
  // Copy-on-write: the base profile is shared; only this view's overlay
  // (a handful of commitments) is copied per window-search branch.
  return std::make_unique<FlatCalendarPlan>(*this);
}

bool FlatCalendarPlan::fits_at(const Job& job, SimTime t) const {
  assert(t >= origin_);
  assert(base_gen_ == base_->gen_ && "stale plan view used across passes");
  const std::vector<FlatCalendar::Step>& base = base_->steps_;
  const SimTime end = t + job.walltime;
  std::size_t i = segment_index(base, t);
  std::size_t j = segment_index(overlay_, t);
  SimTime pos = t;
  while (pos < end) {
    if (base[i].free - overlay_[j].free < job.nodes) return false;
    const SimTime nb = i + 1 < base.size() ? base[i + 1].time : kNever;
    const SimTime no = j + 1 < overlay_.size() ? overlay_[j + 1].time : kNever;
    const SimTime nxt = std::min(nb, no);
    if (nb == nxt && i + 1 < base.size()) ++i;
    if (no == nxt && j + 1 < overlay_.size()) ++j;
    pos = nxt;
  }
  return true;
}

SimTime FlatCalendarPlan::find_start(const Job& job, SimTime earliest) const {
  assert(job.nodes <= total_);
  assert(base_gen_ == base_->gen_ && "stale plan view used across passes");
  const std::vector<FlatCalendar::Step>& base = base_->steps_;
  // One forward scan over the merged (base free minus overlay used) step
  // function: viable starts are `earliest` or a merged breakpoint; a
  // blocking segment restarts the candidate at the breakpoint after it.
  SimTime candidate = std::max(earliest, origin_);
  std::size_t i = segment_index(base, candidate);
  std::size_t j = segment_index(overlay_, candidate);
  while (true) {
    const NodeCount free = base[i].free - overlay_[j].free;
    const SimTime nb = i + 1 < base.size() ? base[i + 1].time : kNever;
    const SimTime no = j + 1 < overlay_.size() ? overlay_[j + 1].time : kNever;
    const SimTime nxt = std::min(nb, no);
    if (free < job.nodes) {
      // Blocking segment: no candidate before its end can host the job.
      if (nxt == kNever) break;  // defensive; the far future is empty
      candidate = nxt;
    } else if (nxt >= candidate + job.walltime || nxt == kNever) {
      // Capacity holds from `candidate` through the full walltime.
      return candidate;
    }
    if (nb == nxt && i + 1 < base.size()) ++i;
    if (no == nxt && j + 1 < overlay_.size()) ++j;
  }
  assert(false && "find_start: no slot for a fitting job");
  return kNever;
}

void FlatCalendarPlan::add_usage(SimTime from, SimTime to, NodeCount nodes) {
  for (auto& s : overlay_) {
    if (s.time >= to) break;
    if (s.time >= from) s.free += nodes;
  }
}

void FlatCalendarPlan::commit(const Job& job, SimTime start) {
  assert(start >= origin_);
  assert(fits_at(job, start) && "commit at an infeasible start");
  const SimTime end = start + job.walltime;
  assert(start < end);
  auto ensure_breakpoint = [&](SimTime t) {
    const auto it = lower_breakpoint(overlay_, t);
    if (it != overlay_.end() && it->time == t) return false;
    assert(it != overlay_.begin());
    const NodeCount used_before = std::prev(it)->free;
    overlay_.insert(it, Step{t, used_before});
    return true;
  };
  const bool inserted_start = ensure_breakpoint(start);
  const bool inserted_end = ensure_breakpoint(end);
  add_usage(start, end, job.nodes);
  log_.push_back({start, end, job.nodes, inserted_start, inserted_end});
}

void FlatCalendarPlan::undo_last_commit() {
  // Once the nodes are taken back off, a breakpoint the commit inserted
  // again carries its predecessor's value; erasing it restores the
  // overlay bit for bit.
  assert(!log_.empty());
  const Commit c = log_.back();
  log_.pop_back();
  add_usage(c.start, c.end, -c.nodes);
  if (c.inserted_end) overlay_.erase(lower_breakpoint(overlay_, c.end));
  if (c.inserted_start) overlay_.erase(lower_breakpoint(overlay_, c.start));
}

}  // namespace amjs
