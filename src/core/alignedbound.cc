#include "core/alignedbound.h"

#include <algorithm>
#include <limits>

#include "common/status.h"
#include "core/recovery.h"

namespace robustqp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

AlignedBound::AlignedBound(const Ess* ess) : AlignedBound(ess, Options{}) {}

AlignedBound::AlignedBound(const Ess* ess, Options options)
    : ess_(ess),
      options_(options),
      fallback_(ess, SpillBound::Options{options.budget_inflation}),
      constrained_(ess) {}

const AlignedBound::ContourChoice& AlignedBound::GetChoice(
    int contour, const std::vector<int>& fixed) const {
  return choice_cache_.GetOrCompute(
      {contour, fixed}, [&] { return ComputeChoice(contour, fixed); });
}

AlignedBound::ContourChoice AlignedBound::ComputeChoice(
    int contour, const std::vector<int>& fixed) const {
  const int dims = ess_->dims();
  std::vector<bool> unlearned(static_cast<size_t>(dims));
  std::vector<int> udims;
  for (int d = 0; d < dims; ++d) {
    const bool u = fixed[static_cast<size_t>(d)] < 0;
    unlearned[static_cast<size_t>(d)] = u;
    if (u) udims.push_back(d);
  }
  RQP_CHECK(udims.size() >= 2);

  ContourChoice choice;
  const std::vector<int64_t> frontier = ess_->SliceFrontier(contour, fixed);
  if (frontier.empty()) return choice;

  // Cache per-location data.
  const size_t n = frontier.size();
  std::vector<GridLoc> locs(n);
  std::vector<int> sdim(n);
  for (size_t l = 0; l < n; ++l) {
    locs[l] = ess_->FromLinear(frontier[l]);
    sdim[l] = ess_->OptimalPlan(frontier[l])->SpillDimension(unlearned);
  }

  // Best coordinate reached by a natively j-spilling location, per dim.
  std::vector<int> spill_max(static_cast<size_t>(dims), -1);
  std::vector<size_t> spill_argmax(static_cast<size_t>(dims), 0);
  for (size_t l = 0; l < n; ++l) {
    const int j = sdim[l];
    if (j < 0) continue;
    if (locs[l][static_cast<size_t>(j)] > spill_max[static_cast<size_t>(j)]) {
      spill_max[static_cast<size_t>(j)] = locs[l][static_cast<size_t>(j)];
      spill_argmax[static_cast<size_t>(j)] = l;
    }
  }

  // Evaluate every candidate part T (subset of unlearned dims) with its
  // best leader dimension.
  const int k = static_cast<int>(udims.size());
  const uint64_t limit = uint64_t{1} << k;
  std::vector<PartExec> part_best(static_cast<size_t>(limit));
  std::vector<double> part_cost(static_cast<size_t>(limit), kInf);
  part_cost[0] = 0.0;

  for (uint64_t sub = 1; sub < limit; ++sub) {
    uint64_t members = 0;  // bitmask over full dim ids
    for (int b = 0; b < k; ++b) {
      if (sub & (uint64_t{1} << b)) {
        members |= uint64_t{1} << udims[static_cast<size_t>(b)];
      }
    }
    // IC_i|T: locations whose optimal plan spills on a member dim.
    std::vector<size_t> ict;
    for (size_t l = 0; l < n; ++l) {
      if (sdim[l] >= 0 && (members & (uint64_t{1} << sdim[l]))) {
        ict.push_back(l);
      }
    }
    PartExec best;
    best.members = members;
    if (ict.empty()) {
      best.vacuous = true;
      best.penalty = 0.0;
      part_best[sub] = best;
      part_cost[sub] = 0.0;
      continue;
    }
    double best_pen = kInf;
    for (int b = 0; b < k; ++b) {
      if (!(sub & (uint64_t{1} << b))) continue;
      const int j = udims[static_cast<size_t>(b)];
      // Extreme coordinate of the group along the candidate leader.
      int qjt = -1;
      for (size_t l : ict) {
        qjt = std::max(qjt, locs[l][static_cast<size_t>(j)]);
      }
      if (spill_max[static_cast<size_t>(j)] >= qjt &&
          spill_max[static_cast<size_t>(j)] >= 0) {
        // Natively aligned for this group: execute the j-spilling plan
        // that reaches the group's extreme, with the contour budget.
        if (1.0 < best_pen) {
          best_pen = 1.0;
          best.leader = j;
          best.plan =
              ess_->OptimalPlan(frontier[spill_argmax[static_cast<size_t>(j)]]);
          best.budget = ess_->ContourCost(contour);
          best.penalty = 1.0;
          best.vacuous = false;
        }
        continue;
      }
      // Induce PSA: cheapest j-spilling replacement at a location on the
      // group's extreme slice S = {q in IC_i : q.j == qjt}.
      std::vector<size_t> slice;
      for (size_t l = 0; l < n; ++l) {
        if (locs[l][static_cast<size_t>(j)] == qjt) slice.push_back(l);
      }
      std::sort(slice.begin(), slice.end(), [&](size_t a, size_t b2) {
        return ess_->OptimalCost(frontier[a]) < ess_->OptimalCost(frontier[b2]);
      });
      if (static_cast<int>(slice.size()) > options_.max_induce_candidates) {
        slice.resize(static_cast<size_t>(options_.max_induce_candidates));
      }
      for (size_t l : slice) {
        const ConstrainedPlanCache::Entry& e =
            constrained_.Get(frontier[l], j, unlearned);
        if (e.plan == nullptr) continue;
        const double pen = e.cost / ess_->OptimalCost(frontier[l]);
        if (pen < best_pen) {
          best_pen = pen;
          best.leader = j;
          best.plan = e.plan;
          best.budget = e.cost;
          best.penalty = pen;
          best.vacuous = false;
        }
      }
    }
    part_best[sub] = best;
    part_cost[sub] = best_pen;
  }

  // Minimum-total-penalty partition of the unlearned dims (subset DP over
  // partition covers; Section 5.2.2 shows partitions suffice).
  std::vector<double> dp(static_cast<size_t>(limit), kInf);
  std::vector<uint64_t> pick(static_cast<size_t>(limit), 0);
  dp[0] = 0.0;
  for (uint64_t mask = 1; mask < limit; ++mask) {
    const uint64_t low = mask & (~mask + 1);
    for (uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;  // canonical: part containing lowest bit
      if (part_cost[sub] == kInf || dp[mask ^ sub] == kInf) continue;
      const double total = part_cost[sub] + dp[mask ^ sub];
      if (total < dp[mask]) {
        dp[mask] = total;
        pick[mask] = sub;
      }
    }
  }
  const uint64_t full = limit - 1;
  // Singleton parts are always feasible (native by construction or
  // vacuous), so a finite partition exists.
  RQP_CHECK(dp[full] != kInf);
  choice.total_penalty = dp[full];
  for (uint64_t mask = full; mask != 0; mask ^= pick[mask]) {
    choice.parts.push_back(part_best[pick[mask]]);
  }
  return choice;
}

DiscoveryResult AlignedBound::RunImpl(ExecutionOracle* oracle) const {
  const int dims = ess_->dims();
  DiscoveryResult result;

  std::vector<int> fixed(static_cast<size_t>(dims), -1);
  std::vector<double> learned(static_cast<size_t>(dims), -1.0);
  std::vector<int> floor(static_cast<size_t>(dims), -1);

  // Part budgets come from the alignment machinery; the monitored (and
  // thus escalation-base) quantity is the underlying contour cost.
  ContourBudgetMonitor monitor;
  double contour_cost = 0.0;
  int i = 0;
  while (i < ess_->num_contours()) {
    std::vector<int> udims;
    for (int d = 0; d < dims; ++d) {
      if (fixed[static_cast<size_t>(d)] < 0) udims.push_back(d);
    }
    if (udims.size() <= 1) {
      if (udims.empty()) {
        result.completed = true;
        result.final_contour = i;
        return result;
      }
      fallback_.RunPlanBouquet1D(oracle, i, fixed, learned, &result);
      return result;
    }

    contour_cost = monitor.Clamp(ess_->ContourCost(i), &result.robustness);
    const ContourChoice& choice = GetChoice(i, fixed);
    bool exec_complete = false;
    for (const PartExec& part : choice.parts) {
      if (part.vacuous) continue;
      const ExecOutcome outcome = oracle->ExecuteSpill(
          *part.plan, part.leader, part.budget * options_.budget_inflation,
          learned);
      result.total_cost += outcome.cost_charged;
      result.max_replacement_penalty =
          std::max(result.max_replacement_penalty, part.penalty);

      ExecutionStep step;
      step.contour = i;
      step.plan_name = part.plan->display_name();
      step.spill_dim = part.leader;
      step.budget = part.budget;
      step.cost_charged = outcome.cost_charged;
      step.completed = outcome.completed;
      step.learned_sel = outcome.learned_sel;
      step.qrun = fallback_.QrunSnapshot(learned, floor);
      result.steps.push_back(std::move(step));

      if (outcome.completed) {
        learned[static_cast<size_t>(part.leader)] = outcome.learned_sel;
        fixed[static_cast<size_t>(part.leader)] =
            outcome.learned_floor >= 0
                ? outcome.learned_floor
                : ess_->axis().NearestIndex(outcome.learned_sel);
        exec_complete = true;
        break;
      }
      floor[static_cast<size_t>(part.leader)] =
          std::max(floor[static_cast<size_t>(part.leader)], outcome.learned_floor);
    }
    if (!exec_complete) ++i;
  }
  result.completed = false;
  result.final_contour = ess_->num_contours() - 1;
  if (FaultInjector::Armed()) {
    EscalateToCompletion(oracle, *ess_,
                         contour_cost * options_.budget_inflation, &result);
  }
  return result;
}

}  // namespace robustqp
