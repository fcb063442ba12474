// Plan pool: the registry of distinct plans discovered while exploring the
// ESS. The set of optimal plans over all ESS locations is the Parametric
// Optimal Set of Plans (POSP).

#ifndef ROBUSTQP_PLAN_PLAN_POOL_H_
#define ROBUSTQP_PLAN_PLAN_POOL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"

namespace robustqp {

/// Owns plans, dedups them by canonical signature, and assigns stable
/// display names ("P1", "P2", ...) and pool indices in interning order.
class PlanPool {
 public:
  /// Interns `plan`: if an identical plan exists, returns the canonical
  /// instance and discards the argument; otherwise stores it, names it,
  /// and returns it.
  const Plan* Intern(std::unique_ptr<Plan> plan);

  /// Looks up by signature; nullptr if absent.
  const Plan* Find(const std::string& signature) const;

  int size() const { return static_cast<int>(plans_.size()); }

  /// All interned plans in interning order.
  const std::vector<const Plan*>& plans() const { return order_; }

 private:
  std::map<std::string, std::unique_ptr<Plan>> plans_;
  std::vector<const Plan*> order_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_PLAN_PLAN_POOL_H_
