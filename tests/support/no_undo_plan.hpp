// Forwarding plan that hides the inner plan's undo support, forcing
// WindowAllocator's search down its clone-per-branch fallback.
#pragma once

#include <memory>
#include <utility>

#include "platform/machine.hpp"

namespace amjs::test_support {

class NoUndoPlan final : public Plan {
 public:
  explicit NoUndoPlan(std::unique_ptr<Plan> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::unique_ptr<Plan> clone() const override {
    return std::make_unique<NoUndoPlan>(inner_->clone());
  }
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override {
    return inner_->find_start(job, earliest);
  }
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override {
    return inner_->fits_at(job, t);
  }
  void commit(const Job& job, SimTime start) override { inner_->commit(job, start); }
  void commit_soft(const Job& job, SimTime start) override {
    inner_->commit_soft(job, start);
  }
  [[nodiscard]] int last_placement() const override {
    return inner_->last_placement();
  }
  // supports_undo stays the default false.

 private:
  std::unique_ptr<Plan> inner_;
};

}  // namespace amjs::test_support
