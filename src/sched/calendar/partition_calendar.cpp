#include "sched/calendar/partition_calendar.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"

namespace amjs {

void PartitionCalendar::resync() {
  synced_ = false;
  pending_.clear();
}

void PartitionCalendar::rebuild(SimTime now) {
  holds_.clear();
  for (const auto& live : machine_->running_allocs()) {
    // Jobs at/after their predicted end contribute nothing (the simulator
    // resolves them at this instant).
    const SimTime end = std::max(live.alloc.predicted_end, now);
    if (end > now) {
      holds_.push_back(
          Hold{live.alloc.job, now, end, live.partition, live.alloc.occupied});
    }
  }
  std::stable_sort(holds_.begin(), holds_.end(),
                   [](const Hold& a, const Hold& b) { return a.end < b.end; });
  pending_.clear();
  synced_ = true;
  timeline_dirty_ = true;
}

std::size_t PartitionCalendar::Timeline::index_after(SimTime t) const {
  return static_cast<std::size_t>(
      std::upper_bound(ends.begin(), ends.end(), t) - ends.begin());
}

void PartitionCalendar::build_timeline() {
  // holds_ is kept in end order, so the timeline is one back-to-front
  // suffix pass writing one entry per distinct end time into storage the
  // previous build already sized. Tier tables wait for their first query.
  Timeline& tl = timeline_;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < holds_.size(); ++i) {
    if (i == 0 || holds_[i - 1].end != holds_[i].end) ++distinct;
  }
  tl.ends.resize(distinct);
  tl.occupied_from.resize(distinct);
  NodeCount occ = 0;
  std::size_t at = distinct;
  for (std::size_t i = holds_.size(); i-- > 0;) {
    occ += holds_[i].occupied;
    if (i == 0 || holds_[i - 1].end != holds_[i].end) {
      --at;
      tl.ends[at] = holds_[i].end;
      tl.occupied_from[at] = occ;
    }
  }
  tl.tiers.resize(machine_->tiers().size());
  for (auto& table : tl.tiers) table.blocked_from.clear();
  if (obs::Registry::enabled()) {
    static obs::Counter& builds =
        obs::Registry::global().counter("calendar.timeline_builds");
    builds.add();
  }
}

void PartitionCalendar::build_tier_table(std::size_t tier) {
  // The same back-to-front suffix pass as build_timeline, ORing each
  // hold's tabled conflicts with the tier. Walking i downward only grows
  // the blocked set, so once a set blocks the whole tier every earlier
  // one does too, and open_from is the lowest index still open.
  Timeline& tl = timeline_;
  const std::size_t count = machine_->tier_partitions(tier).size();
  TierTable& table = tl.tiers[tier];
  table.blocked_from.resize(tl.ends.size() + 1);
  PartitionMachine::PositionSet blocked;
  std::size_t at = tl.ends.size();
  table.blocked_from[at] = blocked;
  table.open_from = at;
  for (std::size_t i = holds_.size(); i-- > 0;) {
    blocked |= machine_->tier_conflicts(holds_[i].partition, tier);
    if (i == 0 || holds_[i - 1].end != holds_[i].end) {
      table.blocked_from[--at] = blocked;
      if (table.open_from == at + 1 && blocked.first_clear() < count) table.open_from = at;
    }
  }
  if (obs::Registry::enabled()) {
    static obs::Counter& tables =
        obs::Registry::global().counter("calendar.tier_tables");
    tables.add();
  }
}

const PartitionCalendar::Timeline& PartitionCalendar::timeline() {
  if (timeline_dirty_) {
    build_timeline();
    timeline_dirty_ = false;
  }
  return timeline_;
}

const PartitionCalendar::TierTable& PartitionCalendar::tier_table(std::size_t tier) {
  const Timeline& tl = timeline();
  if (tl.tiers[tier].blocked_from.empty()) build_tier_table(tier);
  return tl.tiers[tier];
}

void PartitionCalendar::on_job_start(const Job& job, SimTime now) {
  if (!synced_) return;  // next plan() rebuilds from the machine anyway
  const auto* live = machine_->running_alloc(job.id);
  assert(live != nullptr && "start delta for a job the machine does not hold");
  if (live == nullptr) {
    resync();
    return;
  }
  pending_.push_back({Delta::Kind::kStart, job.id, now, live->alloc.predicted_end,
                      live->partition, live->alloc.occupied});
}

void PartitionCalendar::on_job_finish(JobId job, SimTime now) {
  if (!synced_) return;
  pending_.push_back({Delta::Kind::kFinish, job, now, 0, -1, 0});
}

void PartitionCalendar::apply_pending() {
  if (pending_.empty()) return;
  for (const Delta& d : pending_) {
    if (d.kind == Delta::Kind::kStart) {
      if (d.end > d.at) {
        const auto at = std::upper_bound(
            holds_.begin(), holds_.end(), d.end,
            [](SimTime end, const Hold& h) { return end < h.end; });
        holds_.insert(at, Hold{d.job, d.at, d.end, d.partition, d.occupied});
      }
    } else {
      // Finished jobs vanish from the future outright — exactly as a
      // from-scratch plan built after the finish would never see them.
      std::erase_if(holds_, [&](const Hold& h) { return h.job == d.job; });
    }
  }
  pending_.clear();
  timeline_dirty_ = true;
}

void PartitionCalendar::compact(SimTime now) {
  // Fully elapsed holds (end <= now) are invisible to every query at
  // t >= now; dropping them keeps the hold set proportional to the
  // running-job count instead of the simulation's history. In end order
  // they are a prefix.
  const auto live = std::upper_bound(
      holds_.begin(), holds_.end(), now,
      [](SimTime t, const Hold& h) { return t < h.end; });
  if (live == holds_.begin()) return;
  holds_.erase(holds_.begin(), live);
  timeline_dirty_ = true;
}

std::unique_ptr<Plan> PartitionCalendar::plan(SimTime now) {
  if (!synced_) {
    rebuild(now);
  } else {
    apply_pending();
    compact(now);
  }
  ++gen_;  // any outstanding view from a previous pass is now stale
  return std::make_unique<PartitionCalendarPlan>(*this, now);
}

PartitionCalendarPlan::PartitionCalendarPlan(PartitionCalendar& base,
                                             SimTime now)
    : base_(&base), origin_(now), base_gen_(base.gen_) {}

std::unique_ptr<Plan> PartitionCalendarPlan::clone() const {
  // Copy-on-write: base holds are shared; only this view's overlays (a
  // handful of commitments) are copied per window-search branch.
  return std::make_unique<PartitionCalendarPlan>(*this);
}

PartitionCalendarPlan::TierRef PartitionCalendarPlan::tier_ref(
    const Job& job) const {
  const std::size_t tier = base_->machine_->tier_of(job);
  return {tier, &base_->machine_->tier_partitions(tier), &base_->tier_table(tier)};
}

int PartitionCalendarPlan::free_partition_in(const TierRef& tr, SimTime t,
                                             SimTime end, std::size_t bi) const {
  // Base holds all start at or before the plan origin <= t, so a base hold
  // overlaps [t, end) iff its end exceeds t: the positions they block are
  // tabled at bi. A pinned overlay blocks the positions its partition
  // meets while it overlaps [t, end). The first position left clear is
  // the tier's first free partition.
  const PartitionMachine& m = *base_->machine_;
  PartitionMachine::PositionSet blocked = tr.table->blocked_from[bi];
  for (const auto& iv : pinned_ovl_) {
    if (iv.end > t && iv.start < end) blocked |= m.tier_conflicts(iv.partition, tr.tier);
  }
  const std::size_t pos = blocked.first_clear();
  return pos < tr.parts->size() ? (*tr.parts)[pos] : -1;
}

NodeCount PartitionCalendarPlan::peak_usage(SimTime t, Duration duration,
                                            std::size_t bi) const {
  // Base usage at any s >= t is the suffix sum of end-sorted holds (their
  // starts all precede the origin), so it is non-increasing in s and the
  // base alone peaks at t. Adding the overlay, the combined usage can only
  // rise where an overlay commitment begins — so the exact peak over
  // [t, t+duration) is the max of the usage at t and at each overlay start
  // inside the window, the same value a full sweep over every hold's
  // boundaries computes in O((holds + overlay) log) per query. Each overlay
  // start brings its own timeline index.
  const SimTime end = t + duration;
  const auto& tl = base_->timeline();
  const auto usage_at = [&](SimTime s, std::size_t i) {
    NodeCount occ = i < tl.ends.size() ? tl.occupied_from[i] : 0;
    for (const auto& c : cap_ovl_) {
      if (c.start <= s && c.end > s) occ += c.occupied;
    }
    return occ;
  };
  NodeCount peak = usage_at(t, bi);
  for (const auto& c : cap_ovl_) {
    if (c.start > t && c.start < end) {
      peak = std::max(peak, usage_at(c.start, c.start_index));
    }
  }
  return peak;
}

bool PartitionCalendarPlan::feasible_in(const TierRef& tr, Duration walltime,
                                        NodeCount occ, SimTime t,
                                        std::size_t bi) const {
  if (free_partition_in(tr, t, t + walltime, bi) < 0) return false;
  // Without a soft commit the capacity check is implied. Then every base
  // hold and every capacity entry is a pinned partition whose occupancy is
  // its partition's node count, and no two of them that overlap in time
  // share a leaf: the running jobs are disjoint on the live machine, and
  // each hard commit took a partition free of the base holds and of the
  // earlier hard commits over its whole span. A partition of the job's
  // tier free over [t, t + walltime) is disjoint from all of them too, so
  // at every instant of that window the holds plus the job fit in the
  // machine's leaves: peak + occ <= total. Only a soft commit adds
  // capacity with no partition behind it.
  if (cap_ovl_.size() == pinned_ovl_.size()) return true;
  return peak_usage(t, walltime, bi) + occ <= base_->machine_->total_nodes();
}

bool PartitionCalendarPlan::fits_at(const Job& job, SimTime t) const {
  assert(base_gen_ == base_->gen_ && "stale plan view used across passes");
  const TierRef tr = tier_ref(job);
  return feasible_in(tr, job.walltime, base_->machine_->tiers()[tr.tier], t,
                     base_->timeline().index_after(t));
}

SimTime PartitionCalendarPlan::find_start(const Job& job,
                                          SimTime earliest) const {
  assert(base_gen_ == base_->gen_ && "stale plan view used across passes");
  assert(base_->machine_->fits(job));
  earliest = std::max(earliest, origin_);
  const TierRef tr = tier_ref(job);
  // occupancy(job) is the tier size by construction.
  const NodeCount occ = base_->machine_->tiers()[tr.tier];
  const auto& tl = base_->timeline();

  // Candidates: the floor, then every time capacity or a partition frees
  // up (base hold ends and overlay ends; a hard commit's pinned entry ends
  // with its capacity entry). A candidate whose index is below the tier's
  // open_from is blocked by the base alone, so the first one worth testing
  // is the floor or ends[open_from - 1], whichever is later. It answers
  // most queries, so it is tried before any overlay end is gathered.
  std::size_t bi = tl.index_after(earliest);
  SimTime t = earliest;
  if (bi < tr.table->open_from) {
    bi = tr.table->open_from;
    t = tl.ends[bi - 1];
  }
  if (feasible_in(tr, job.walltime, occ, t, bi)) return t;

  // The timeline's end list is already sorted and distinct, so
  // merge-walking it against the few overlay ends visits the sorted,
  // distinct candidate sequence without materializing it. bi stays
  // index_after(t): every end before it is at or before t.
  std::vector<SimTime>& ovl_ends = scratch_ends_;
  for (const auto& c : cap_ovl_) {
    if (c.end > t) ovl_ends.push_back(c.end);
  }
  std::sort(ovl_ends.begin(), ovl_ends.end());
  std::size_t oi = 0;
  while (true) {
    SimTime next = kNever;
    if (bi < tl.ends.size()) next = tl.ends[bi];
    if (oi < ovl_ends.size()) next = std::min(next, ovl_ends[oi]);
    // Past the last commitment the machine is empty, so the walk always
    // stops at or before the final candidate.
    if (next == kNever) break;
    while (bi < tl.ends.size() && tl.ends[bi] == next) ++bi;
    while (oi < ovl_ends.size() && ovl_ends[oi] == next) ++oi;
    t = next;
    if (feasible_in(tr, job.walltime, occ, t, bi)) break;
  }
  ovl_ends.clear();
  return t;
}

void PartitionCalendarPlan::commit(const Job& job, SimTime start) {
  const TierRef tr = tier_ref(job);
  const NodeCount occ = base_->machine_->tiers()[tr.tier];
  const std::size_t bi = base_->timeline().index_after(start);
  assert(feasible_in(tr, job.walltime, occ, start, bi) &&
         "commit at an infeasible start");
  const int idx = free_partition_in(tr, start, start + job.walltime, bi);
  assert(idx >= 0);
  pinned_ovl_.push_back({start, start + job.walltime, idx});
  cap_ovl_.push_back({start, start + job.walltime, occ, bi});
  last_placement_ = idx;
}

void PartitionCalendarPlan::undo_last_commit() {
  // commit() appends exactly one pinned and one capacity overlay entry;
  // strict LIFO popping restores the pre-commit view bit for bit.
  assert(!pinned_ovl_.empty() && !cap_ovl_.empty());
  pinned_ovl_.pop_back();
  cap_ovl_.pop_back();
  last_placement_ = -1;
}

void PartitionCalendarPlan::commit_soft(const Job& job, SimTime start) {
  const TierRef tr = tier_ref(job);
  const NodeCount occ = base_->machine_->tiers()[tr.tier];
  const std::size_t bi = base_->timeline().index_after(start);
  assert(feasible_in(tr, job.walltime, occ, start, bi) &&
         "commit at an infeasible start");
  cap_ovl_.push_back({start, start + job.walltime, occ, bi});
  last_placement_ = -1;
}

}  // namespace amjs
