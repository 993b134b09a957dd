#include "platform/flat.hpp"

#include <algorithm>
#include <cassert>

namespace amjs {

FlatMachine::FlatMachine(NodeCount total) : total_(total) { assert(total_ > 0); }

bool FlatMachine::can_start(const Job& job) const {
  return fits(job) && job.nodes <= idle_nodes();
}

bool FlatMachine::start(const Job& job, SimTime now, int /*placement*/) {
  // Nodes are interchangeable; placement hints carry no information here.
  if (!can_start(job)) return false;
  const auto at = std::ranges::lower_bound(allocs_, job.id, {}, &RunningAlloc::job);
  assert(at == allocs_.end() || at->job != job.id);
  allocs_.insert(at, RunningAlloc{job.id, job.nodes, now, now + job.walltime});
  busy_ += job.nodes;
  return true;
}

void FlatMachine::finish(JobId job, SimTime /*now*/) {
  const auto it = std::ranges::lower_bound(allocs_, job, {}, &RunningAlloc::job);
  assert(it != allocs_.end() && it->job == job);
  busy_ -= it->occupied;
  assert(busy_ >= 0);
  allocs_.erase(it);
}

std::vector<RunningAlloc> FlatMachine::running() const { return allocs_; }

std::unique_ptr<MachineState> FlatMachine::save_state() const {
  auto state = std::make_unique<FlatMachineState>();
  state->total = total_;
  state->busy = busy_;
  state->allocs = allocs_;
  return state;
}

void FlatMachine::restore_state(const MachineState& state) {
  const auto* flat = dynamic_cast<const FlatMachineState*>(&state);
  assert(flat != nullptr && "restore_state: not a FlatMachine state");
  assert(flat->total == total_ && "restore_state: topology mismatch");
  busy_ = flat->busy;
  allocs_ = flat->allocs;
}

void FlatMachine::reset() {
  busy_ = 0;
  allocs_.clear();
}

}  // namespace amjs
