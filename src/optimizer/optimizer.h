// Cost-based join-order optimizer (Selinger-style dynamic programming over
// connected table subsets, bushy plans, hash and nested-loop joins with
// both operand orders). Supports:
//
//  * Optimize(q)        — optimal plan with epp selectivities injected at
//                         ESS location q (the repeated-optimizer-call
//                         primitive from which the ESS / POSP / contours
//                         are constructed, Section 2.2);
//  * OptimizeConstrainedSpill(q, j) — least-cost plan whose spill node is
//                         epp j (the engine extension the paper adds for
//                         AlignedBound, Section 6.1);
//  * CostPlan(P, q)     — Cost(P, q) for an arbitrary plan, with per-node
//                         cardinalities and cumulative subtree costs (the
//                         latter drive spill-mode budget semantics).
//
// The constrained search runs the same DP over states (mask, first
// unlearned epp in the subtree's execution order), which is exact because
// the spill dimension composes bottom-up from child states.

#ifndef ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
#define ROBUSTQP_OPTIMIZER_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/estimator.h"
#include "plan/plan.h"

namespace robustqp {

/// Per-node cost annotations for one (plan, ESS location) pair. Indexed by
/// PlanNode::id (pre-order; root is id 0).
struct PlanCosting {
  /// Estimated output cardinality of each node.
  std::vector<double> rows;
  /// Cumulative cost of the subtree rooted at each node (children included).
  std::vector<double> cost;

  double total_cost() const { return cost.empty() ? 0.0 : cost[0]; }
};

/// The query optimizer. Immutable after construction; all methods are
/// const and thread-safe.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const Query* query,
            CostModel cost_model = CostModel::PostgresFlavour());

  /// The optimal plan at ESS location `q` (one selectivity per epp).
  std::unique_ptr<Plan> Optimize(const EssPoint& q) const;

  /// Optimize behind the optimizer.dp fault site: with an armed
  /// FaultInjector a drawn transient fault returns Unavailable (the ESS
  /// builders retry), a permanent one Internal. Identical to Optimize when
  /// injection is disarmed.
  Result<std::unique_ptr<Plan>> TryOptimize(const EssPoint& q) const;

  /// The least-cost plan at `q` whose spill dimension — the first epp of
  /// its Section 3.1.3 execution order that is flagged true in
  /// `unlearned` — equals `dim`. Returns nullptr if no plan spills on
  /// `dim` (cannot happen for tree queries, where every epp appears in
  /// every plan, unless `unlearned[dim]` is false).
  std::unique_ptr<Plan> OptimizeConstrainedSpill(
      const EssPoint& q, int dim, const std::vector<bool>& unlearned) const;

  /// Costs an arbitrary plan of this query at `q`.
  PlanCosting CostPlan(const Plan& plan, const EssPoint& q) const;

  /// Total cost only — allocation-free fast path (hot in contour
  /// coverage computation and exhaustive MSO sweeps).
  double PlanCost(const Plan& plan, const EssPoint& q) const {
    double rows = 0.0;
    double cost = 0.0;
    CostNodeFast(plan.root(), q, &rows, &cost);
    return cost;
  }

  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }
  const Query& query() const { return *query_; }

  /// Number of full DP searches (Optimize, OptimizeConstrainedSpill)
  /// served by this instance so far. Cheap relaxed counter; the ESS build
  /// and the benches read it to report how many optimizer invocations a
  /// surface construction needed.
  int64_t num_optimize_calls() const {
    return optimize_calls_.load(std::memory_order_relaxed);
  }

 private:
  struct DpCell;
  /// Per-thread scratch for RunDp: the per-mask cardinality table and the
  /// DP table. Reused across calls (and across Optimizer instances) so the
  /// hot ESS-construction loop never allocates.
  struct DpArena;

  static DpArena& ThreadArena();

  /// Fills the arena's per-table filtered rows, per-join selectivities,
  /// per-mask cardinalities and their sort terms at `q` (the q-dependent
  /// quantities the DP consumes).
  void ComputeCards(const EssPoint& q, DpArena* arena) const;

  /// Runs the (mask, state) DP into `arena` (resized as needed). With
  /// `unlearned` there are D+1 states: state 0 = no unlearned epp in the
  /// subtree, state d+1 = first unlearned epp is dimension d. Without it
  /// (plain Optimize) only state 0 is reachable, so the DP keeps one
  /// state per mask.
  void RunDp(const EssPoint& q, const std::vector<bool>* unlearned,
             DpArena* arena) const;

  std::unique_ptr<PlanNode> Reconstruct(const DpArena& arena, uint64_t mask,
                                        int state) const;

  double CostNode(const PlanNode& node, const EssPoint& q,
                  PlanCosting* out) const;
  void CostNodeFast(const PlanNode& node, const EssPoint& q, double* rows,
                    double* cost) const;

  const Catalog* catalog_;
  const Query* query_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;

  // Precomputed query structure.
  int num_tables_;
  int num_states_;  // query->num_epps() + 1
  std::vector<uint64_t> join_masks_;            // per join index
  std::vector<std::vector<int>> table_filters_;  // filters per table index
  /// Per join index: query-table id usable as the probed inner of an
  /// index nested-loop join (a hash index exists on its join column), or
  /// -1. Both sides may qualify; we store a bitmask of the two table ids.
  std::vector<uint64_t> inlj_inner_mask_;

  // q-independent per-mask structure, hoisted out of RunDp so repeated
  // optimizer calls (the ESS sweep) only redo the q-dependent work.
  /// Whether the table subset is connected under the join graph.
  std::vector<char> connected_;
  /// CSR layout of the joins fully contained in each mask, in ascending
  /// join-index order: joins `mask_join_list_[mask_join_offsets_[m] ..
  /// mask_join_offsets_[m + 1])` have both sides inside mask m.
  std::vector<int32_t> mask_join_offsets_;
  std::vector<int32_t> mask_join_list_;

  mutable std::atomic<int64_t> optimize_calls_{0};
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
