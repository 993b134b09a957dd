// FlatMachine: N interchangeable nodes, no placement constraints.
//
// This is the machine model of generic-cluster scheduling studies (and of
// most SWF archive logs). Backfill planning is exact: a job can start
// whenever enough node capacity is free for its full walltime (see
// sched/calendar/flat_calendar.hpp for the plan).
#pragma once

#include <memory>
#include <vector>

#include "platform/machine.hpp"

namespace amjs {

class FlatMachine final : public Machine {
 public:
  explicit FlatMachine(NodeCount total);

  [[nodiscard]] NodeCount total_nodes() const override { return total_; }
  [[nodiscard]] NodeCount busy_nodes() const override { return busy_; }
  [[nodiscard]] bool fits(const Job& job) const override { return job.nodes <= total_; }
  [[nodiscard]] NodeCount occupancy(const Job& job) const override { return job.nodes; }
  [[nodiscard]] bool can_start(const Job& job) const override;
  [[nodiscard]] bool start(const Job& job, SimTime now, int placement = -1) override;
  void finish(JobId job, SimTime now) override;
  [[nodiscard]] std::vector<RunningAlloc> running() const override;
  [[nodiscard]] std::unique_ptr<MachineState> save_state() const override;
  void restore_state(const MachineState& state) override;
  void reset() override;

 private:
  NodeCount total_;
  NodeCount busy_ = 0;
  /// Ascending job id: one block that start and finish edit in place and
  /// save_state copies whole.
  std::vector<RunningAlloc> allocs_;
};

/// Saved allocation state of a FlatMachine.
struct FlatMachineState final : MachineState {
  NodeCount total = 0;  // topology check on restore
  NodeCount busy = 0;
  std::vector<RunningAlloc> allocs;  // ascending job id
};

}  // namespace amjs
