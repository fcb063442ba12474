#include "plan/plan.h"

#include <algorithm>
#include <sstream>

#include "common/fault.h"
#include "common/status.h"

namespace robustqp {

const char* PlanOpToString(PlanOp op) {
  switch (op) {
    case PlanOp::kSeqScan:
      return "SeqScan";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kNLJoin:
      return "NLJoin";
    case PlanOp::kIndexNLJoin:
      return "IndexNLJoin";
    case PlanOp::kSortMergeJoin:
      return "SortMergeJoin";
  }
  return "Unknown";
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->op = op;
  copy->table_idx = table_idx;
  copy->filter_indices = filter_indices;
  copy->join_indices = join_indices;
  if (left != nullptr) copy->left = left->Clone();
  if (right != nullptr) copy->right = right->Clone();
  return copy;
}

namespace {

// Appends into one string rather than a stream per node: every plan the
// optimizer returns gets a signature, so this sits on each ESS build's
// per-location path.
void AppendSignature(const PlanNode& node, const Query& query,
                     std::string* out) {
  if (node.op == PlanOp::kSeqScan) {
    *out += "S(";
    *out += query.tables()[static_cast<size_t>(node.table_idx)];
    for (int f : node.filter_indices) {
      *out += ",f";
      *out += std::to_string(f);
    }
    *out += ')';
    return;
  }
  switch (node.op) {
    case PlanOp::kHashJoin:
      *out += "HJ";
      break;
    case PlanOp::kNLJoin:
      *out += "NLJ";
      break;
    case PlanOp::kIndexNLJoin:
      *out += "INLJ";
      break;
    case PlanOp::kSortMergeJoin:
      *out += "SMJ";
      break;
    case PlanOp::kSeqScan:
      break;  // handled above
  }
  *out += '(';
  AppendSignature(*node.left, query, out);
  *out += ',';
  AppendSignature(*node.right, query, out);
  for (int j : node.join_indices) {
    *out += ",j";
    *out += std::to_string(j);
  }
  *out += ')';
}

}  // namespace

std::string PlanSignature(const PlanNode& node, const Query& query) {
  std::string out;
  AppendSignature(node, query, &out);
  return out;
}

Plan::Plan(const Query* query, std::unique_ptr<PlanNode> root)
    : query_(query), root_(std::move(root)) {
  RQP_CHECK(query_ != nullptr);
  RQP_CHECK(root_ != nullptr);
  IndexNodes(root_.get());
  signature_ = PlanSignature(*root_, *query_);
  ComputeEppOrder(*root_, &epp_execution_order_);
}

void Plan::IndexNodes(PlanNode* node) {
  node->id = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  if (node->left != nullptr) IndexNodes(node->left.get());
  if (node->right != nullptr) IndexNodes(node->right.get());
}

void Plan::ComputeEppOrder(const PlanNode& node, std::vector<int>* order) const {
  if (node.op == PlanOp::kSeqScan) {
    // Error-prone filters resolve at the scan itself — the most upstream
    // position of its pipeline.
    for (int f : node.filter_indices) {
      const int dim = query_->EppDimensionOfFilter(f);
      if (dim >= 0) order->push_back(dim);
    }
    return;
  }
  // The blocking child's pipelines complete before the streaming child
  // starts producing (inter-pipeline rule); within the root pipeline the
  // streaming chain's operators are upstream of this node (intra-pipeline
  // rule). HashJoin blocks on its build (left) child; our block
  // nested-loop join materializes its inner (right) child first; an index
  // nested-loop join has no blocking child (its right child describes the
  // probed table and is never executed).
  if (node.op == PlanOp::kIndexNLJoin) {
    // Outer stream first; the probed table's error-prone filters resolve
    // during probing (they are evaluated post-fetch), before this node's
    // own join predicates.
    ComputeEppOrder(*node.left, order);
    ComputeEppOrder(*node.right, order);
  } else {
    // Sort-merge joins materialize (and sort) the left input first, so
    // left-before-right matches the execution order there too.
    const bool left_first = node.op == PlanOp::kHashJoin ||
                            node.op == PlanOp::kSortMergeJoin;
    const PlanNode& first = left_first ? *node.left : *node.right;
    const PlanNode& second = left_first ? *node.right : *node.left;
    ComputeEppOrder(first, order);
    ComputeEppOrder(second, order);
  }
  for (int j : node.join_indices) {
    const int dim = query_->EppDimensionOfJoin(j);
    if (dim >= 0) order->push_back(dim);
  }
}

int Plan::EppNodeId(int dim) const {
  const int join_idx = query_->JoinOfEppDimension(dim);
  if (join_idx >= 0) {
    for (const PlanNode* node : nodes_) {
      if (!node->is_join()) continue;
      if (std::find(node->join_indices.begin(), node->join_indices.end(),
                    join_idx) != node->join_indices.end()) {
        return node->id;
      }
    }
    return -1;
  }
  const int filter_idx = query_->FilterOfEppDimension(dim);
  for (const PlanNode* node : nodes_) {
    if (node->op != PlanOp::kSeqScan) continue;
    if (std::find(node->filter_indices.begin(), node->filter_indices.end(),
                  filter_idx) != node->filter_indices.end()) {
      return node->id;
    }
  }
  return -1;
}

int Plan::SpillDimension(const std::vector<bool>& unlearned) const {
  for (int dim : epp_execution_order_) {
    if (dim >= 0 && dim < static_cast<int>(unlearned.size()) &&
        unlearned[static_cast<size_t>(dim)]) {
      return dim;
    }
  }
  return -1;
}

namespace {

void RenderNode(const PlanNode& node, const Query& query, int depth,
                std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << PlanOpToString(node.op);
  if (node.op == PlanOp::kSeqScan) {
    *os << " " << query.tables()[static_cast<size_t>(node.table_idx)];
    if (!node.filter_indices.empty()) {
      *os << " [";
      for (size_t i = 0; i < node.filter_indices.size(); ++i) {
        const FilterPredicate& f =
            query.filters()[static_cast<size_t>(node.filter_indices[i])];
        if (i > 0) *os << " AND ";
        *os << f.column << CompareOpToString(f.op);
        if (f.is_string) {
          *os << "'" << f.value_str << "'";
        } else {
          *os << f.value;
        }
      }
      *os << "]";
    }
  } else {
    *os << " on";
    for (int j : node.join_indices) {
      const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
      *os << " " << jp.left_table << "." << jp.left_column << "="
          << jp.right_table << "." << jp.right_column;
      const int dim = query.EppDimensionOfJoin(j);
      if (dim >= 0) *os << " (epp e" << dim + 1 << ")";
    }
  }
  *os << "\n";
  if (node.left != nullptr) RenderNode(*node.left, query, depth + 1, os);
  if (node.right != nullptr) RenderNode(*node.right, query, depth + 1, os);
}

}  // namespace

std::string Plan::ToString() const {
  std::ostringstream os;
  if (!display_name_.empty()) os << display_name_ << ":\n";
  RenderNode(*root_, *query_, 0, &os);
  return os.str();
}

void CollectFaultSites(const PlanNode& root, std::vector<int>* sites) {
  switch (root.op) {
    case PlanOp::kSeqScan:
      sites->push_back(fault_site::kExecScanRead);
      break;
    case PlanOp::kHashJoin:
      sites->push_back(fault_site::kExecHashJoinBuild);
      break;
    case PlanOp::kNLJoin:
      sites->push_back(fault_site::kExecNlJoinPair);
      break;
    case PlanOp::kSortMergeJoin:
      sites->push_back(fault_site::kExecSortMerge);
      break;
    case PlanOp::kIndexNLJoin:
      sites->push_back(fault_site::kStorageIndexProbe);
      // The right child is a probe-target descriptor, never executed.
      if (root.left != nullptr) CollectFaultSites(*root.left, sites);
      return;
  }
  if (root.left != nullptr) CollectFaultSites(*root.left, sites);
  if (root.right != nullptr) CollectFaultSites(*root.right, sites);
}

}  // namespace robustqp
