// Cost-based join-order optimizer (Selinger-style dynamic programming over
// connected table subsets, bushy plans, hash and nested-loop joins with
// both operand orders). Supports:
//
//  * Optimize(q)        — optimal plan with epp selectivities injected at
//                         ESS location q (the repeated-optimizer-call
//                         primitive from which the ESS / POSP / contours
//                         are constructed, Section 2.2);
//  * OptimizeKey(q)     — the same DP, returning only the winner's exact
//                         PlanKey; PlanFromKey builds the plan. The ESS
//                         sweep builds one Plan per distinct key, not one
//                         per grid location;
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
//
// Everything in the DP that does not depend on q is built once, in the
// constructor: the connected table subsets in ascending mask order and,
// per subset, the list of its (s1, s2) splits into two connected halves
// with their crossing joins and index-NL applicability. Every DP call
// walks that one list, so a call costs only its q-dependent arithmetic.
//
// Consecutive plain DP calls also share that arithmetic. The cell of a
// subset m depends on q only through the epp dimensions whose predicates
// lie inside m (its tables' epp filters, its joins with both sides in m),
// and every submask's dimensions are a subset of m's. The thread's arena
// remembers the optimizer and the q of its last plain DP, so the next call
// recomputes only the subsets with a dimension whose value changed; an
// ESS sweep in odometer order changes one dimension on most steps.

#ifndef ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
#define ROBUSTQP_OPTIMIZER_OPTIMIZER_H_

#include <atomic>
#include <cstddef>
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

/// Exact identity of a DP winner: one word per join node in pre-order,
/// `(left child's table mask << 3) | PlanOp`. The full table mask, the
/// left masks and the ops determine the whole tree (right child = mask ^
/// left, join predicates = the edges crossing the split), so equal keys
/// of one Optimizer name the same plan.
using PlanKey = std::vector<uint64_t>;

/// The query optimizer. Immutable after construction; all methods are
/// const and thread-safe.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const Query* query,
            CostModel cost_model = CostModel::PostgresFlavour());

  /// The optimal plan at ESS location `q` (one selectivity per epp).
  std::unique_ptr<Plan> Optimize(const EssPoint& q) const;

  /// Optimize without building the plan: one optimizer call whose winner's
  /// key is written to `*key` (reused storage). PlanFromKey(*key) is the
  /// plan Optimize(q) returns.
  void OptimizeKey(const EssPoint& q, PlanKey* key) const;

  /// OptimizeKey behind the optimizer.dp fault site: with an armed
  /// FaultInjector a drawn transient fault returns Unavailable (the ESS
  /// sweep retries), a permanent one Internal, both before the DP runs.
  /// Identical to OptimizeKey when injection is disarmed.
  Status TryOptimizeKey(const EssPoint& q, PlanKey* key) const;

  /// Builds the plan a key of this optimizer names.
  std::unique_ptr<Plan> PlanFromKey(const PlanKey& key) const;

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
    double cost = 0.0;
    CostNode(plan.root(), q, &cost, nullptr);
    return cost;
  }

  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }
  const Query& query() const { return *query_; }

  /// Number of optimizer invocations (OptimizeKey, Optimize,
  /// OptimizeConstrainedSpill) served by this instance so far, one per
  /// call however much of the DP the call reused. Cheap relaxed counter;
  /// the ESS build and the benches read it to report how many optimizer
  /// invocations a surface construction needed.
  int64_t num_optimize_calls() const {
    return optimize_calls_.load(std::memory_order_relaxed);
  }

 private:
  struct DpCell;
  /// Per-thread scratch for RunDp: the per-mask cardinality table and the
  /// DP table, shared by every Optimizer on the thread so the hot
  /// ESS-construction loop never allocates. It also records whose plain DP
  /// it holds (an instance id, never reused, unlike an address) and at
  /// which q, which is what lets the next OptimizeKey of that optimizer
  /// recompute only the changed cells.
  struct DpArena;

  /// `changed` value that recomputes every cell.
  static constexpr uint64_t kAllDims = ~uint64_t{0};

  /// One way to join a connected mask from two connected halves s1 < s2
  /// with at least one join edge between them.
  struct Split {
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    /// The one join crossing (s1, s2), or -1 when several cross.
    int32_t single_cross = -1;
    /// Table index of s2 (resp. s1) when it can be the probed inner of an
    /// index nested-loop join (one crossing join, a single table with an
    /// index on its join column), else -1.
    int16_t inlj_inner2 = -1;
    int16_t inlj_inner1 = -1;
    /// Range of split_epp_dims_: the epp dimensions of the crossing joins,
    /// in join-index order (the constrained DP's node state is the first
    /// unlearned one).
    int32_t epp_begin = 0;
    int32_t epp_end = 0;
  };

  static DpArena& ThreadArena();

  /// Fills the arena's per-table filtered rows, per-join selectivities,
  /// per-mask cardinalities and their sort terms at `q` (the q-dependent
  /// quantities the DP consumes). Only masks whose mask_dims_ meet
  /// `changed` are recomputed; kAllDims recomputes (and sizes) them all.
  void ComputeCards(const EssPoint& q, uint64_t changed, DpArena* arena) const;

  /// Runs the (mask, state) DP into `arena` (resized as needed). With
  /// `kConstrained` there are D+1 states: state 0 = no unlearned epp in
  /// the subtree, state d+1 = first unlearned epp is dimension d. Without
  /// it (plain Optimize) only state 0 is reachable, so the DP keeps one
  /// state per mask and `unlearned` is unused. Like ComputeCards it
  /// recomputes only the masks whose mask_dims_ meet `changed`; the other
  /// cells must hold this optimizer's plain DP from a q that differs only
  /// in `changed`. The constrained DP always passes kAllDims.
  template <bool kConstrained>
  void RunDp(const EssPoint& q, const std::vector<bool>* unlearned,
             uint64_t changed, DpArena* arena) const;

  /// Appends the key of the arena's winner for (mask, state).
  void AppendKey(const DpArena& arena, uint64_t mask, int state,
                 PlanKey* key) const;
  std::unique_ptr<PlanNode> NodeFromKey(const PlanKey& key, uint64_t mask,
                                        size_t* pos) const;

  /// Returns the subtree's output rows and sets `*cost` to its cumulative
  /// cost; records both per node in `out` unless it is null.
  double CostNode(const PlanNode& node, const EssPoint& q, double* cost,
                  PlanCosting* out) const;

  const Catalog* catalog_;
  const Query* query_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;

  // Precomputed query structure.
  int num_tables_;
  int num_states_;  // query->num_epps() + 1
  std::vector<uint64_t> join_masks_;            // per join index
  std::vector<std::vector<int>> table_filters_;  // filters per table index

  // q-independent per-mask structure, hoisted out of RunDp so repeated
  // optimizer calls (the ESS sweep) only redo the q-dependent work.
  /// Whether the table subset is connected under the join graph.
  std::vector<char> connected_;
  /// Bit d set when epp dimension d lies inside the table subset: an epp
  /// filter on one of its tables or an epp join with both sides in it.
  /// The subset's cardinality and DP cell depend on q only through these.
  std::vector<uint64_t> mask_dims_;
  /// CSR layout of the joins fully contained in each mask, in ascending
  /// join-index order: joins `mask_join_list_[mask_join_offsets_[m] ..
  /// mask_join_offsets_[m + 1])` have both sides inside mask m.
  std::vector<int32_t> mask_join_offsets_;
  std::vector<int32_t> mask_join_list_;
  /// The connected masks of two or more tables, ascending (every strict
  /// submask precedes its mask), and in CSR layout their splits:
  /// `splits_[split_offsets_[i] .. split_offsets_[i + 1])` are those of
  /// `dp_masks_[i]`, in the order the DP tries them (s1 descending).
  std::vector<uint64_t> dp_masks_;
  std::vector<int32_t> split_offsets_;
  std::vector<Split> splits_;
  std::vector<int> split_epp_dims_;

  /// Process-unique instance id: the key of the arena's DP record.
  const uint64_t id_;
  mutable std::atomic<int64_t> optimize_calls_{0};
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_OPTIMIZER_H_
