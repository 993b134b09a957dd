// The fair-start oracle by its definition: a job's fair start is its start
// in a from-t=0 simulation of the trace truncated at its submission
// (Sabin et al., ICPP 2004). One truncated re-simulation per probed job —
// O(n) simulations of O(n) prefixes — so it lives here, as the reference
// FairStartEvaluator's forked evaluation is pinned against.
#pragma once

#include "metrics/fairness.hpp"

namespace amjs::test_support {

class ReferenceFairStart {
 public:
  ReferenceFairStart(FairStartEvaluator::MachineFactory machine_factory,
                     FairStartEvaluator::SchedulerFactory scheduler_factory,
                     SimConfig sim_config = {});

  /// Same contract as FairStartEvaluator::evaluate.
  [[nodiscard]] FairnessResult evaluate(const JobTrace& trace, const SimResult& actual,
                                        Duration tolerance = 0,
                                        std::size_t stride = 1) const;

  /// Fair start of one job: its start in a fresh run of
  /// trace.truncated_at(submit) that stops once the job has started.
  [[nodiscard]] SimTime fair_start_of(const JobTrace& trace, JobId id) const;

 private:
  FairStartEvaluator::MachineFactory machine_factory_;
  FairStartEvaluator::SchedulerFactory scheduler_factory_;
  SimConfig sim_config_;
};

}  // namespace amjs::test_support
