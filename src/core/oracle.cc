#include "core/oracle.h"

#include <algorithm>

#include "common/status.h"

namespace robustqp {

namespace {
/// Completion tolerance: treat cost <= budget * (1 + eps) as within budget
/// so that contour-boundary locations are not lost to rounding.
constexpr double kBudgetEps = 1e-9;
}  // namespace

SimulatedOracle::SimulatedOracle(const Ess* ess, GridLoc qa)
    : ess_(ess), qa_(std::move(qa)) {
  RQP_CHECK(static_cast<int>(qa_.size()) == ess_->dims());
  qa_sel_ = ess_->SelAt(qa_);
}

ExecOutcome SimulatedOracle::ExecuteFull(const Plan& plan, double budget) {
  if (FaultInjector::Armed()) return ExecuteFullFaulted(plan, budget);
  ExecOutcome out;
  const double cost = ess_->optimizer().PlanCost(plan, qa_sel_);
  if (cost <= budget * (1.0 + kBudgetEps)) {
    out.completed = true;
    out.cost_charged = cost;
  } else {
    out.completed = false;
    out.cost_charged = budget;
  }
  return out;
}

ExecOutcome SimulatedOracle::ExecuteSpill(const Plan& plan, int dim,
                                          double budget,
                                          const std::vector<double>& learned) {
  if (FaultInjector::Armed()) {
    return ExecuteSpillFaulted(plan, dim, budget, learned);
  }
  ExecOutcome out;
  const int node_id = plan.EppNodeId(dim);
  RQP_CHECK(node_id >= 0);

  // The spilled subtree contains, besides dim itself, only already-learnt
  // epps (Section 3.1.3's ordering rule), so its cost is a monotone
  // function of dim's selectivity alone. Evaluate it at a point that fixes
  // learnt dims to their exact values; remaining dims are irrelevant to
  // the subtree and pinned to q_a for definiteness.
  EssPoint base = qa_sel_;
  for (int d = 0; d < ess_->dims(); ++d) {
    if (learned[static_cast<size_t>(d)] >= 0.0) {
      base[static_cast<size_t>(d)] = learned[static_cast<size_t>(d)];
    }
  }
  auto spill_cost = [&](double sel) {
    EssPoint q = base;
    q[static_cast<size_t>(dim)] = sel;
    return ess_->optimizer().CostPlan(plan, q).cost[static_cast<size_t>(node_id)];
  };

  const double true_sel = qa_sel_[static_cast<size_t>(dim)];
  const double cost_at_truth = spill_cost(true_sel);
  if (cost_at_truth <= budget * (1.0 + kBudgetEps)) {
    out.completed = true;
    out.cost_charged = cost_at_truth;
    out.learned_sel = true_sel;
    out.learned_floor = qa_[static_cast<size_t>(dim)];
    return out;
  }

  out.completed = false;
  out.cost_charged = budget;
  // Largest axis index whose selectivity the budget covered: binary search
  // (spill cost is monotone in the selectivity).
  const LogAxis& axis = ess_->axis();
  int lo = -1;
  int hi = axis.points() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (spill_cost(axis.value(mid)) <= budget * (1.0 + kBudgetEps)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  out.learned_floor = lo;
  out.learned_sel = lo >= 0 ? axis.value(lo) : 0.0;
  return out;
}

ExecOutcome SimulatedOracle::ExecuteFullFaulted(const Plan& plan,
                                                double budget) {
  FaultInjector& inj = FaultInjector::Current();
  std::vector<int> sites;
  CollectFaultSites(plan.root(), &sites);

  const FaultedRunOutcome outcome = RunWithFaultRetries(
      inj, sites, budget,
      [&](double eff, const FaultRunState&) -> FaultAttempt {
        FaultAttempt a;
        double cost = ess_->optimizer().PlanCost(plan, qa_sel_);
        const FaultAction act = inj.Evaluate(fault_site::kOracleCostModel);
        if (act.kind == FaultKind::kCorrupt) {
          cost *= act.magnitude;
          ++report_.corruptions;
        }
        if (num_shards_ > 1) {
          // Sharded chaos: each simulated worker carries cost/n of the
          // run; a straggler draw charges the duplicate work of its
          // speculative re-dispatch (u of the slice for transients, all
          // of it for permanents), a spike draw surcharges without
          // re-dispatch. Recovery always succeeds, so the only effect is
          // the surcharge — which can push a contour execution over its
          // budget, exactly the chaos the composed bound must absorb.
          const double per_shard = cost / static_cast<double>(num_shards_);
          for (int s = 0; s < num_shards_; ++s) {
            const FaultAction sa = inj.Evaluate(fault_site::kShardStraggler);
            if (sa.kind == FaultKind::kTransient ||
                sa.kind == FaultKind::kPermanent) {
              const double dup =
                  (sa.kind == FaultKind::kTransient ? sa.u : 1.0) * per_shard;
              cost += dup;
              ++report_.shard_stragglers;
              report_.retried_cost += dup;
            } else if (sa.kind == FaultKind::kCostSpike) {
              const double extra = (sa.magnitude - 1.0) * per_shard;
              cost += extra;
              ++report_.cost_spikes;
              report_.spike_cost += extra;
            }
          }
        }
        if (eff < 0.0 || cost <= eff * (1.0 + kBudgetEps)) {
          a.completed = true;
          a.cost = cost;
        } else {
          a.completed = false;
          a.cost = eff;
        }
        return a;
      });

  ExecOutcome out;
  out.completed = outcome.status.ok() && outcome.completed;
  // A permanent fault (or retry exhaustion) consumes the whole budget: the
  // same accounting a failed contour execution has, so MSO stays valid.
  out.cost_charged =
      outcome.status.ok() ? outcome.cost_used : (budget >= 0.0 ? budget : 0.0);
  report_.Merge(outcome.report);
  return out;
}

ExecOutcome SimulatedOracle::ExecuteSpillFaulted(
    const Plan& plan, int dim, double budget,
    const std::vector<double>& learned) {
  FaultInjector& inj = FaultInjector::Current();
  const int node_id = plan.EppNodeId(dim);
  RQP_CHECK(node_id >= 0);

  EssPoint base = qa_sel_;
  for (int d = 0; d < ess_->dims(); ++d) {
    if (learned[static_cast<size_t>(d)] >= 0.0) {
      base[static_cast<size_t>(d)] = learned[static_cast<size_t>(d)];
    }
  }
  // Each evaluation draws its own corruption, so a corrupted cost model is
  // genuinely non-monotone across the scan below — which is exactly what
  // the PCM monitor exists to catch.
  auto spill_cost = [&](double sel) {
    EssPoint q = base;
    q[static_cast<size_t>(dim)] = sel;
    double c =
        ess_->optimizer().CostPlan(plan, q).cost[static_cast<size_t>(node_id)];
    const FaultAction act = inj.Evaluate(fault_site::kOracleCostModel);
    if (act.kind == FaultKind::kCorrupt) {
      c *= act.magnitude;
      ++report_.corruptions;
    }
    return c;
  };

  std::vector<int> sites;
  CollectFaultSites(plan.node(node_id), &sites);
  sites.push_back(fault_site::kExecSpillRun);

  const double true_sel = qa_sel_[static_cast<size_t>(dim)];
  const LogAxis& axis = ess_->axis();
  int floor = -1;
  double floor_sel = 0.0;

  const FaultedRunOutcome outcome = RunWithFaultRetries(
      inj, sites, budget,
      [&](double eff, const FaultRunState&) -> FaultAttempt {
        FaultAttempt a;
        const double cost_at_truth = spill_cost(true_sel);
        if (eff < 0.0 || cost_at_truth <= eff * (1.0 + kBudgetEps)) {
          a.completed = true;
          a.cost = cost_at_truth;
          floor = qa_[static_cast<size_t>(dim)];
          floor_sel = true_sel;
          return a;
        }
        a.completed = false;
        a.cost = eff;
        // Unlike the disarmed path's binary search, scan the axis in order
        // (a fixed, schedule-independent evaluation sequence) and force the
        // costs isotone: a dip below the running max is a PCM violation —
        // counted and clamped so the learned floor stays sound.
        floor = -1;
        double running_max = 0.0;
        for (int i = 0; i < axis.points(); ++i) {
          double c = spill_cost(axis.value(i));
          if (c < running_max) {
            ++report_.pcm_violations;
            c = running_max;
          }
          running_max = c;
          if (c <= eff * (1.0 + kBudgetEps)) {
            floor = i;
          } else {
            break;
          }
        }
        floor_sel = floor >= 0 ? axis.value(floor) : 0.0;
        return a;
      });

  ExecOutcome out;
  out.completed = outcome.status.ok() && outcome.completed;
  out.cost_charged =
      outcome.status.ok() ? outcome.cost_used : (budget >= 0.0 ? budget : 0.0);
  if (outcome.final_attempt_valid && outcome.status.ok()) {
    out.learned_floor = floor;
    out.learned_sel = floor_sel;
  }
  report_.Merge(outcome.report);
  return out;
}

std::vector<double> ObservedEppSelectivities(const Plan& plan,
                                             const ExecutionResult& result) {
  const Query& query = plan.query();
  std::vector<double> obs(static_cast<size_t>(query.num_epps()), -1.0);
  for (int d = 0; d < query.num_epps(); ++d) {
    const int node_id = plan.EppNodeId(d);
    if (node_id < 0) continue;
    const int filter_idx = query.FilterOfEppDimension(d);
    if (filter_idx >= 0) {
      const auto& fi = plan.node(node_id).filter_indices;
      const auto it = std::find(fi.begin(), fi.end(), filter_idx);
      if (it == fi.end()) continue;
      obs[static_cast<size_t>(d)] = result.ObservedFilterSelectivity(
          node_id, static_cast<int>(it - fi.begin()));
    } else {
      obs[static_cast<size_t>(d)] = result.ObservedJoinSelectivity(node_id);
    }
  }
  return obs;
}

ExecOutcome EngineOracle::ExecuteFull(const Plan& plan, double budget) {
  ExecOutcome out;
  Result<ExecutionResult> res = executor_->Execute(plan, budget);
  if (!res.ok() && FaultInjector::Armed()) {
    // Injected permanent fault: the run is lost and the whole budget is
    // charged, preserving the failed-execution accounting of the bounds.
    ++report_.permanent_faults;
    out.completed = false;
    out.cost_charged = budget >= 0.0 ? budget : 0.0;
    return out;
  }
  RQP_CHECK(res.ok());
  out.completed = res->completed;
  out.cost_charged = res->completed ? res->cost_used : budget;
  report_.Merge(res->robustness);
  if (res->completed) {
    last_full_ = res.MoveValue();
    has_last_full_ = true;
    // Feedback observations come from the committed attempt's NodeStats
    // only: RunFaulted publishes the surviving attempt's counters and
    // zeroes them when no attempt survived, so retried transient work
    // can never inflate what the store learns.
    observed_ = ObservedEppSelectivities(plan, last_full_);
  }
  return out;
}

ExecOutcome EngineOracle::ExecuteSpill(const Plan& plan, int dim,
                                       double budget,
                                       const std::vector<double>&) {
  ExecOutcome out;
  const int node_id = plan.EppNodeId(dim);
  RQP_CHECK(node_id >= 0);
  Result<ExecutionResult> res = executor_->ExecuteSpill(plan, node_id, budget);
  if (!res.ok() && FaultInjector::Armed()) {
    ++report_.permanent_faults;
    out.completed = false;
    out.cost_charged = budget >= 0.0 ? budget : 0.0;
    out.learned_floor = -1;
    return out;
  }
  RQP_CHECK(res.ok());
  out.completed = res->completed;
  out.cost_charged = res->completed ? res->cost_used : budget;
  report_.Merge(res->robustness);
  if (res->completed) {
    const int filter_idx = plan.query().FilterOfEppDimension(dim);
    if (filter_idx >= 0) {
      // Position of the error-prone filter within the spill (scan) node's
      // predicate list.
      const auto& fi = plan.node(node_id).filter_indices;
      const auto it = std::find(fi.begin(), fi.end(), filter_idx);
      RQP_CHECK(it != fi.end());
      out.learned_sel = res->ObservedFilterSelectivity(
          node_id, static_cast<int>(it - fi.begin()));
    } else {
      out.learned_sel = res->ObservedJoinSelectivity(node_id);
    }
  }
  out.learned_floor = -1;  // partial counts are not inverted in engine mode
  return out;
}

}  // namespace robustqp
