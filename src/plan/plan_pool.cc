#include "plan/plan_pool.h"

namespace robustqp {

const Plan* PlanPool::Intern(std::unique_ptr<Plan> plan) {
  auto it = plans_.find(plan->signature());
  if (it != plans_.end()) return it->second.get();
  plan->set_display_name(
      std::string("P").append(std::to_string(plans_.size() + 1)));
  const Plan* raw = plan.get();
  plans_.emplace(plan->signature(), std::move(plan));
  order_.push_back(raw);
  return raw;
}

const Plan* PlanPool::Find(const std::string& signature) const {
  auto it = plans_.find(signature);
  return it == plans_.end() ? nullptr : it->second.get();
}

}  // namespace robustqp
