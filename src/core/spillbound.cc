#include "core/spillbound.h"

#include <algorithm>

#include "common/status.h"
#include "core/recovery.h"

namespace robustqp {

const std::vector<SpillBound::SpillChoice>& SpillBound::GetSpillChoices(
    int contour, const std::vector<int>& fixed) const {
  return choice_cache_.GetOrCompute({contour, fixed}, [&] {
    const int dims = ess_->dims();
    std::vector<bool> unlearned(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      unlearned[static_cast<size_t>(d)] = fixed[static_cast<size_t>(d)] < 0;
    }

    std::vector<SpillChoice> choices(static_cast<size_t>(dims));
    for (int64_t lin : ess_->SliceFrontier(contour, fixed)) {
      const Plan* plan = ess_->OptimalPlan(lin);
      const int sdim = plan->SpillDimension(unlearned);
      if (sdim < 0) continue;
      const GridLoc loc = ess_->FromLinear(lin);
      SpillChoice& c = choices[static_cast<size_t>(sdim)];
      if (!c.valid || loc[static_cast<size_t>(sdim)] > c.coord) {
        c.valid = true;
        c.loc = lin;
        c.coord = loc[static_cast<size_t>(sdim)];
        c.plan = plan;
      }
    }
    return choices;
  });
}

const SpillBound::SpillChoice& SpillBound::Get1DChoice(
    int contour, const std::vector<int>& fixed) const {
  return choice1d_cache_.GetOrCompute({contour, fixed}, [&] {
    int free_dim = -1;
    for (int d = 0; d < ess_->dims(); ++d) {
      if (fixed[static_cast<size_t>(d)] < 0) {
        RQP_CHECK(free_dim < 0);
        free_dim = d;
      }
    }
    RQP_CHECK(free_dim >= 0);

    SpillChoice choice;
    for (int64_t lin : ess_->SliceFrontier(contour, fixed)) {
      const GridLoc loc = ess_->FromLinear(lin);
      const int coord = loc[static_cast<size_t>(free_dim)];
      if (!choice.valid || coord > choice.coord) {
        choice.valid = true;
        choice.loc = lin;
        choice.coord = coord;
        choice.plan = ess_->OptimalPlan(lin);
      }
    }
    return choice;
  });
}

std::vector<double> SpillBound::QrunSnapshot(const std::vector<double>& learned,
                                             const std::vector<int>& floor) const {
  std::vector<double> qrun(static_cast<size_t>(ess_->dims()));
  for (int d = 0; d < ess_->dims(); ++d) {
    if (learned[static_cast<size_t>(d)] >= 0.0) {
      qrun[static_cast<size_t>(d)] = learned[static_cast<size_t>(d)];
    } else {
      const int f = floor[static_cast<size_t>(d)];
      qrun[static_cast<size_t>(d)] = f >= 0 ? ess_->axis().value(f) : 0.0;
    }
  }
  return qrun;
}

void SpillBound::RunPlanBouquet1D(ExecutionOracle* oracle, int contour,
                                  const std::vector<int>& fixed,
                                  const std::vector<double>& learned,
                                  DiscoveryResult* result) const {
  // In the terminal 1D phase, each contour of the residual (line) ESS
  // carries a single plan which is executed in regular (non-spill) mode —
  // spilling in 1D would only weaken the bound (Section 4.1).
  ContourBudgetMonitor monitor;
  double budget = 0.0;
  for (int i = contour; i < ess_->num_contours(); ++i) {
    const SpillChoice& choice = Get1DChoice(i, fixed);
    if (!choice.valid) continue;
    budget = monitor.Clamp(ess_->ContourCost(i) * options_.budget_inflation,
                           &result->robustness);
    const ExecOutcome outcome = oracle->ExecuteFull(*choice.plan, budget);
    result->total_cost += outcome.cost_charged;
    ExecutionStep step;
    step.contour = i;
    step.plan_name = choice.plan->display_name();
    step.spill_dim = -1;
    step.budget = budget;
    step.cost_charged = outcome.cost_charged;
    step.completed = outcome.completed;
    step.qrun = learned;
    for (double& v : step.qrun) v = std::max(v, 0.0);
    result->steps.push_back(std::move(step));
    if (outcome.completed) {
      result->completed = true;
      result->final_contour = i;
      return;
    }
  }
  result->completed = false;
  result->final_contour = ess_->num_contours() - 1;
  if (FaultInjector::Armed()) {
    EscalateToCompletion(oracle, *ess_, budget, result);
  }
}

DiscoveryResult SpillBound::RunImpl(ExecutionOracle* oracle) const {
  const int dims = ess_->dims();
  DiscoveryResult result;

  std::vector<int> fixed(static_cast<size_t>(dims), -1);
  std::vector<double> learned(static_cast<size_t>(dims), -1.0);
  std::vector<int> floor(static_cast<size_t>(dims), -1);

  ContourBudgetMonitor monitor;
  double budget = 0.0;
  int i = 0;
  while (i < ess_->num_contours()) {
    std::vector<int> unlearned_dims;
    for (int d = 0; d < dims; ++d) {
      if (fixed[static_cast<size_t>(d)] < 0) unlearned_dims.push_back(d);
    }
    if (unlearned_dims.size() <= 1) {
      if (unlearned_dims.empty()) {
        // Every selectivity is exactly known; a single optimal execution
        // remains. (Unreachable via the normal flow, which switches to
        // the 1D phase at |EPP| == 1, but kept for safety.)
        result.completed = true;
        result.final_contour = i;
        return result;
      }
      RunPlanBouquet1D(oracle, i, fixed, learned, &result);
      return result;
    }

    const std::vector<SpillChoice>& choices = GetSpillChoices(i, fixed);
    budget = monitor.Clamp(ess_->ContourCost(i) * options_.budget_inflation,
                           &result.robustness);
    bool exec_complete = false;
    for (int d : unlearned_dims) {
      const SpillChoice& c = choices[static_cast<size_t>(d)];
      if (!c.valid) continue;  // no plan on this contour spills on d
      const ExecOutcome outcome = oracle->ExecuteSpill(*c.plan, d, budget, learned);
      result.total_cost += outcome.cost_charged;

      ExecutionStep step;
      step.contour = i;
      step.plan_name = c.plan->display_name();
      step.spill_dim = d;
      step.budget = budget;
      step.cost_charged = outcome.cost_charged;
      step.completed = outcome.completed;
      step.learned_sel = outcome.learned_sel;

      if (outcome.completed) {
        learned[static_cast<size_t>(d)] = outcome.learned_sel;
        fixed[static_cast<size_t>(d)] =
            outcome.learned_floor >= 0
                ? outcome.learned_floor
                : ess_->axis().NearestIndex(outcome.learned_sel);
        exec_complete = true;
        step.qrun = QrunSnapshot(learned, floor);
        result.steps.push_back(std::move(step));
        break;
      }
      // Half-space pruned: q_a.d exceeds what the budget covered.
      floor[static_cast<size_t>(d)] =
          std::max({floor[static_cast<size_t>(d)], outcome.learned_floor, c.coord});
      step.qrun = QrunSnapshot(learned, floor);
      result.steps.push_back(std::move(step));
    }
    if (!exec_complete) ++i;
  }
  result.completed = false;
  result.final_contour = ess_->num_contours() - 1;
  if (FaultInjector::Armed()) {
    EscalateToCompletion(oracle, *ess_, budget, &result);
  }
  return result;
}

}  // namespace robustqp
