#include "sched/calendar/calendar.hpp"

#include <cstdlib>
#include <typeinfo>

#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/flat_calendar.hpp"
#include "sched/calendar/partition_calendar.hpp"
#include "util/log.hpp"

namespace amjs {

std::unique_ptr<PlanProvider> make_plan_provider(const Machine& machine) {
  if (const auto* flat = dynamic_cast<const FlatMachine*>(&machine)) {
    return std::make_unique<FlatCalendar>(*flat);
  }
  if (const auto* part = dynamic_cast<const PartitionMachine*>(&machine)) {
    return std::make_unique<PartitionCalendar>(*part);
  }
  log::error("make_plan_provider: no calendar for machine model {}",
             typeid(machine).name());
  std::abort();
}

}  // namespace amjs
