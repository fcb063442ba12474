#include "core/planbouquet.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/plan_diagram.h"
#include "core/recovery.h"

namespace robustqp {

PlanBouquet::PlanBouquet(const Ess* ess) : PlanBouquet(ess, Options{}) {}

PlanBouquet::PlanBouquet(const Ess* ess, const PlanDiagram& diagram,
                         Options options)
    : ess_(ess), options_(options) {
  RQP_CHECK(&diagram.ess() == ess);
  contour_sets_.resize(static_cast<size_t>(ess->num_contours()));
  for (int i = 0; i < ess->num_contours(); ++i) {
    rho_original_ = std::max(
        rho_original_, static_cast<int>(ess->ContourPlans(i).size()));
    contour_sets_[static_cast<size_t>(i)] = diagram.ContourPlans(i);
    rho_ = std::max(
        rho_, static_cast<int>(contour_sets_[static_cast<size_t>(i)].size()));
  }
}

PlanBouquet::PlanBouquet(const Ess* ess, Options options)
    : ess_(ess), options_(options) {
  const double lambda = effective_lambda();
  contour_sets_.resize(static_cast<size_t>(ess->num_contours()));
  for (int i = 0; i < ess->num_contours(); ++i) {
    const std::vector<int64_t>& frontier = ess->FrontierLocations(i);
    std::vector<const Plan*> posp = ess->ContourPlans(i);
    rho_original_ = std::max(rho_original_, static_cast<int>(posp.size()));

    if (!options_.anorexic || posp.size() <= 1) {
      contour_sets_[static_cast<size_t>(i)] = std::move(posp);
    } else {
      // Anorexic reduction as per-contour greedy set cover: pick plans
      // until every frontier location is covered by a plan whose cost
      // there stays within (1 + lambda) of the contour budget.
      const double budget = ess->ContourCost(i) * (1.0 + lambda);
      // coverage[p][l] = plan p covers frontier location l. Pure costing
      // work, fanned out over plans on the ESS build's thread cap.
      std::vector<EssPoint> points(frontier.size());
      for (size_t l = 0; l < frontier.size(); ++l) {
        points[l] = ess->SelAt(ess->FromLinear(frontier[l]));
      }
      std::vector<std::vector<char>> coverage(posp.size());
      const int max_blocks = posp.size() * frontier.size() < 4096
                                 ? 1
                                 : ess->config().num_threads;
      const Status filled = ParallelFor(
          max_blocks, static_cast<int64_t>(posp.size()),
          [&](int /*worker*/, int64_t begin, int64_t end) {
            for (size_t p = static_cast<size_t>(begin);
                 p < static_cast<size_t>(end); ++p) {
              coverage[p].resize(frontier.size());
              for (size_t l = 0; l < frontier.size(); ++l) {
                coverage[p][l] =
                    ess->optimizer().PlanCost(*posp[p], points[l]) <=
                            budget * (1.0 + 1e-12)
                        ? 1
                        : 0;
              }
            }
          });
      RQP_CHECK(filled.ok());
      // Sparse cover lists + lazy greedy (gains only shrink as locations
      // get covered, so a stale priority-queue entry is an upper bound).
      std::vector<std::vector<int>> covers(posp.size());
      for (size_t p = 0; p < posp.size(); ++p) {
        for (size_t l = 0; l < frontier.size(); ++l) {
          if (coverage[p][l]) covers[p].push_back(static_cast<int>(l));
        }
      }
      std::vector<char> covered(frontier.size(), 0);
      size_t remaining = frontier.size();
      std::priority_queue<std::pair<int, size_t>> pq;
      for (size_t p = 0; p < posp.size(); ++p) {
        pq.push({static_cast<int>(covers[p].size()), p});
      }
      std::vector<const Plan*> chosen;
      while (remaining > 0) {
        RQP_CHECK(!pq.empty());
        auto [stale_gain, p] = pq.top();
        pq.pop();
        int gain = 0;
        for (int l : covers[p]) {
          if (!covered[static_cast<size_t>(l)]) ++gain;
        }
        if (!pq.empty() && gain < pq.top().first) {
          pq.push({gain, p});
          continue;
        }
        // Every location is coverable by its own optimal plan, so the
        // greedy step always makes progress.
        RQP_CHECK(gain > 0);
        chosen.push_back(posp[p]);
        for (int l : covers[p]) {
          if (!covered[static_cast<size_t>(l)]) {
            covered[static_cast<size_t>(l)] = 1;
            --remaining;
          }
        }
      }
      contour_sets_[static_cast<size_t>(i)] = std::move(chosen);
    }
    rho_ = std::max(
        rho_, static_cast<int>(contour_sets_[static_cast<size_t>(i)].size()));
  }
}

int PlanBouquet::BouquetSize() const {
  std::set<const Plan*> distinct;
  for (const auto& set : contour_sets_) distinct.insert(set.begin(), set.end());
  return static_cast<int>(distinct.size());
}

DiscoveryResult PlanBouquet::RunImpl(ExecutionOracle* oracle) const {
  DiscoveryResult result;
  const double lambda = effective_lambda();
  ContourBudgetMonitor monitor;
  double budget = 0.0;
  for (int i = 0; i < ess_->num_contours(); ++i) {
    budget = monitor.Clamp(
        ess_->ContourCost(i) * (1.0 + lambda) * options_.budget_inflation,
        &result.robustness);
    for (const Plan* plan : contour_sets_[static_cast<size_t>(i)]) {
      const ExecOutcome outcome = oracle->ExecuteFull(*plan, budget);
      result.total_cost += outcome.cost_charged;
      ExecutionStep step;
      step.contour = i;
      step.plan_name = plan->display_name();
      step.spill_dim = -1;
      step.budget = budget;
      step.cost_charged = outcome.cost_charged;
      step.completed = outcome.completed;
      result.steps.push_back(std::move(step));
      if (outcome.completed) {
        result.completed = true;
        result.final_contour = i;
        return result;
      }
    }
  }
  result.completed = false;
  result.final_contour = ess_->num_contours() - 1;
  // Without faults the last contour always completes; under injection,
  // retries can burn every contour budget — escalate past cmax.
  if (FaultInjector::Armed()) {
    EscalateToCompletion(oracle, *ess_, budget, &result);
  }
  return result;
}

}  // namespace robustqp
