// Physical execution plans: operator trees produced by the optimizer and
// consumed by the executor and the discovery algorithms. Includes the
// paper's Section 3.1 machinery — pipeline-based total ordering of the
// error-prone predicates within a plan and spill-node identification.

#ifndef ROBUSTQP_PLAN_PLAN_H_
#define ROBUSTQP_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "query/query.h"

namespace robustqp {

/// Physical operator kind.
enum class PlanOp {
  /// Sequential scan of a base table with all applicable filters applied.
  kSeqScan,
  /// Hash join: left child is the build side (blocking), right the probe.
  kHashJoin,
  /// Block nested-loop join: right child is materialized once (blocking),
  /// left child streams as the outer.
  kNLJoin,
  /// Index nested-loop join: left child streams as the outer and probes a
  /// hash index on the right child's base table (the right child is a
  /// SeqScan node that is never executed — its table/filters describe the
  /// probe target). No blocking child.
  kIndexNLJoin,
  /// Sort-merge join: both children are materialized and sorted (left
  /// first), then merged.
  kSortMergeJoin,
};

const char* PlanOpToString(PlanOp op);

/// One node of a physical plan tree.
struct PlanNode {
  PlanOp op = PlanOp::kSeqScan;

  /// Pre-order id within the owning Plan; assigned by Plan's constructor.
  int id = -1;

  // --- kSeqScan fields ---
  /// Index into Query::tables().
  int table_idx = -1;
  /// Indices into Query::filters() applied at this scan.
  std::vector<int> filter_indices;

  // --- join fields ---
  /// Indices into Query::joins() evaluated at this node. The first is the
  /// join-graph edge realized here; any further entries are additional
  /// predicates that became applicable (cycles).
  std::vector<int> join_indices;

  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  bool is_join() const { return op != PlanOp::kSeqScan; }

  /// Deep copy of this subtree (ids are not copied; the owning Plan
  /// reassigns them).
  std::unique_ptr<PlanNode> Clone() const;
};

/// An immutable physical plan for a specific Query. Owns its node tree,
/// assigns pre-order ids, and exposes a canonical signature for plan
/// identity (POSP set membership).
class Plan {
 public:
  /// Takes ownership of `root`, assigns node ids in pre-order, and
  /// computes the signature.
  Plan(const Query* query, std::unique_ptr<PlanNode> root);

  const Query& query() const { return *query_; }
  const PlanNode& root() const { return *root_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const PlanNode& node(int id) const { return *nodes_[static_cast<size_t>(id)]; }

  /// Canonical structural signature: equal signatures <=> identical plans.
  const std::string& signature() const { return signature_; }

  /// Short display name assigned by the plan pool ("P1", "P2", ...); empty
  /// until set.
  const std::string& display_name() const { return display_name_; }
  void set_display_name(std::string name) { display_name_ = std::move(name); }

  /// ESS dimensions of the query's epps in the execution total order of
  /// Section 3.1.3 (inter-pipeline order first, upstream-before-downstream
  /// within a pipeline). Only epp joins appear; an epp absent from the plan
  /// (never happens for connected SPJ plans) would be omitted.
  const std::vector<int>& epp_execution_order() const {
    return epp_execution_order_;
  }

  /// Node id where ESS dimension `dim`'s join predicate is evaluated, or
  /// -1 if the predicate does not appear in the plan.
  int EppNodeId(int dim) const;

  /// The spill dimension of this plan given the set of still-unlearned
  /// dimensions: the first entry of epp_execution_order() contained in
  /// `unlearned`. Returns -1 if none. (Section 3.1.3's spill-node
  /// identification rule.)
  int SpillDimension(const std::vector<bool>& unlearned) const;

  /// Renders an indented tree for debugging / example output.
  std::string ToString() const;

 private:
  void IndexNodes(PlanNode* node);
  void ComputeEppOrder(const PlanNode& node, std::vector<int>* order) const;

  const Query* query_;
  std::unique_ptr<PlanNode> root_;
  std::vector<PlanNode*> nodes_;
  std::string signature_;
  std::string display_name_;
  std::vector<int> epp_execution_order_;
};

/// Builds the canonical signature of a plan subtree (used by Plan and by
/// optimizer-internal dedup before a Plan object exists).
std::string PlanSignature(const PlanNode& node, const Query& query);

/// Appends the fault-injection site of every operator in `root` (pre-order)
/// to `sites` — one entry per node that does real work at run time, so the
/// executor can draw one fault decision per operator per attempt. The right
/// child of an IndexNLJoin is a probe-target descriptor that never
/// executes and contributes no site.
void CollectFaultSites(const PlanNode& root, std::vector<int>* sites);

}  // namespace robustqp

#endif  // ROBUSTQP_PLAN_PLAN_H_
