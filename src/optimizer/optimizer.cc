#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/fault.h"
#include "common/status.h"

namespace robustqp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

/// One DP cell: the cheapest subtree covering `mask` whose execution-order
/// state is `state`.
struct Optimizer::DpCell {
  double cost = kInf;
  PlanOp op = PlanOp::kSeqScan;
  uint64_t left_mask = 0;
  int left_state = 0;
  uint64_t right_mask = 0;
  int right_state = 0;
};

struct Optimizer::DpArena {
  std::vector<double> filtered_rows;  // per table index, at the current q
  std::vector<double> join_sel;       // per join index, at the current q
  std::vector<double> card;
  std::vector<double> sort_term;  // CostModel::SortTerm(card[mask])
  int states = 1;                 // DP states per mask of the last RunDp
  std::vector<DpCell> dp;
};

Optimizer::DpArena& Optimizer::ThreadArena() {
  static thread_local DpArena arena;
  return arena;
}

Optimizer::Optimizer(const Catalog* catalog, const Query* query,
                     CostModel cost_model)
    : catalog_(catalog),
      query_(query),
      estimator_(catalog, query),
      cost_model_(cost_model),
      num_tables_(query->num_tables()),
      num_states_(query->num_epps() + 1) {
  join_masks_.reserve(query->joins().size());
  inlj_inner_mask_.reserve(query->joins().size());
  for (int j = 0; j < query->num_joins(); ++j) {
    join_masks_.push_back(query->JoinTableMask(j));
    const JoinPredicate& jp = query->joins()[static_cast<size_t>(j)];
    uint64_t inner = 0;
    if (catalog->FindIndex(jp.left_table, jp.left_column) != nullptr) {
      inner |= uint64_t{1} << query->TableIndex(jp.left_table);
    }
    if (catalog->FindIndex(jp.right_table, jp.right_column) != nullptr) {
      inner |= uint64_t{1} << query->TableIndex(jp.right_table);
    }
    inlj_inner_mask_.push_back(inner);
  }
  table_filters_.resize(static_cast<size_t>(num_tables_));
  for (int f = 0; f < static_cast<int>(query->filters().size()); ++f) {
    const int t = query->TableIndex(query->filters()[static_cast<size_t>(f)].table);
    RQP_CHECK(t >= 0);
    table_filters_[static_cast<size_t>(t)].push_back(f);
  }

  // Per-mask structure is independent of the injected selectivities, so it
  // is computed once here instead of on every RunDp call.
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  connected_.assign(full + 1, 0);
  mask_join_offsets_.assign(full + 2, 0);
  mask_join_list_.clear();
  const int num_joins = query->num_joins();
  for (uint64_t mask = 1; mask <= full; ++mask) {
    mask_join_offsets_[mask] = static_cast<int32_t>(mask_join_list_.size());
    for (int j = 0; j < num_joins; ++j) {
      const uint64_t jm = join_masks_[static_cast<size_t>(j)];
      if ((jm & mask) == jm) mask_join_list_.push_back(j);
    }
    // Connectivity: expand from the lowest table via contained join edges.
    uint64_t reach = mask & (~mask + 1);
    bool grew = true;
    while (grew) {
      grew = false;
      for (int32_t k = mask_join_offsets_[mask];
           k < static_cast<int32_t>(mask_join_list_.size()); ++k) {
        const uint64_t jm =
            join_masks_[static_cast<size_t>(mask_join_list_[static_cast<size_t>(k)])];
        if ((jm & reach) != 0 && (jm & ~reach) != 0) {
          reach |= jm;
          grew = true;
        }
      }
    }
    connected_[mask] = (reach == mask) ? 1 : 0;
  }
  mask_join_offsets_[full + 1] = static_cast<int32_t>(mask_join_list_.size());
}

void Optimizer::ComputeCards(const EssPoint& q, DpArena* arena) const {
  const int n = num_tables_;
  const uint64_t full = (uint64_t{1} << n) - 1;

  // Per-mask output cardinality (plan-independent under the additive cost
  // model: product of filtered base cardinalities and internal join
  // selectivities). Only connected masks participate in the DP, so the
  // cardinality of a disconnected subset is never read and is skipped.
  // Per-table filtered cardinalities and per-join selectivities at q are
  // mask-independent; evaluate each once instead of per mask. The per-mask
  // products below multiply them in the same (ascending) order as the
  // original per-mask evaluation, so the resulting cardinalities are
  // bit-identical.
  std::vector<double>& fr = arena->filtered_rows;
  fr.resize(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    fr[static_cast<size_t>(t)] =
        estimator_.FilteredRows(t, table_filters_[static_cast<size_t>(t)], q);
  }
  std::vector<double>& js = arena->join_sel;
  js.resize(static_cast<size_t>(query_->num_joins()));
  for (int j = 0; j < query_->num_joins(); ++j) {
    js[static_cast<size_t>(j)] = estimator_.JoinSelectivity(j, q);
  }

  std::vector<double>& card = arena->card;
  std::vector<double>& sort_term = arena->sort_term;
  card.assign(full + 1, 0.0);
  sort_term.assign(full + 1, 0.0);
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (!connected_[mask]) continue;
    double c = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      c *= fr[static_cast<size_t>(std::countr_zero(rest))];
    }
    for (int32_t k = mask_join_offsets_[mask]; k < mask_join_offsets_[mask + 1];
         ++k) {
      c *= js[static_cast<size_t>(mask_join_list_[static_cast<size_t>(k)])];
    }
    // Fractional expected cardinalities are kept unclamped: rounding up to
    // one row would flatten the cost surface at tiny selectivities and
    // break the *strict* plan cost monotonicity (Eq. (5)) the guarantees
    // rely on.
    card[mask] = c;
    sort_term[mask] = CostModel::SortTerm(c);
  }
}

void Optimizer::RunDp(const EssPoint& q, const std::vector<bool>* unlearned,
                      DpArena* arena) const {
  const int n = num_tables_;
  const uint64_t full = (uint64_t{1} << n) - 1;
  const int S = unlearned != nullptr ? num_states_ : 1;
  arena->states = S;

  ComputeCards(q, arena);
  const std::vector<double>& js = arena->join_sel;
  const std::vector<double>& card = arena->card;
  const std::vector<double>& sort_term = arena->sort_term;

  std::vector<DpCell>& dp = arena->dp;
  dp.assign((full + 1) * static_cast<uint64_t>(S), DpCell{});
  auto cell = [&](uint64_t mask, int state) -> DpCell& {
    return dp[mask * static_cast<uint64_t>(S) + static_cast<uint64_t>(state)];
  };

  // Base case: single-table scans. A scan's execution-order state is the
  // first unlearned *filter* epp among its predicates (join epps never
  // live at scans).
  for (int t = 0; t < n; ++t) {
    const uint64_t m = uint64_t{1} << t;
    int leaf_state = 0;
    for (int f : table_filters_[static_cast<size_t>(t)]) {
      const int dim = query_->EppDimensionOfFilter(f);
      if (dim >= 0 && unlearned != nullptr &&
          (*unlearned)[static_cast<size_t>(dim)]) {
        leaf_state = dim + 1;
        break;
      }
    }
    cell(m, leaf_state).cost = cost_model_.ScanCost(estimator_.RawRows(t));
    cell(m, leaf_state).op = PlanOp::kSeqScan;
  }

  // Joins, by increasing mask (every strict submask precedes its mask).
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (!connected_[mask] || (mask & (mask - 1)) == 0) continue;

    // First-unlearned epp among the predicates evaluated at this node
    // (crossing edges are collected in join-index order at reconstruction,
    // so take the smallest-index epp edge fully inside `mask`... the node
    // evaluates exactly the edges crossing the split; computed per split
    // below).
    for (uint64_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const uint64_t s2 = mask ^ s1;
      if (s1 > s2) continue;  // each unordered split once; orders handled below
      if (!connected_[s1] || !connected_[s2]) continue;

      // Predicates evaluated at this node: edges crossing (s1, s2). Only
      // the joins contained in `mask` (precomputed CSR list) can cross.
      int node_first = 0;  // state encoding: 0 = none, d+1 = dim d
      int num_cross = 0;
      int single_cross = -1;
      for (int32_t k = mask_join_offsets_[mask];
           k < mask_join_offsets_[mask + 1]; ++k) {
        const int j = mask_join_list_[static_cast<size_t>(k)];
        const uint64_t jm = join_masks_[static_cast<size_t>(j)];
        if ((jm & s1) != 0 && (jm & s2) != 0) {
          ++num_cross;
          single_cross = j;
          if (node_first == 0 && unlearned != nullptr) {
            const int dim = query_->EppDimensionOfJoin(j);
            if (dim >= 0 && (*unlearned)[static_cast<size_t>(dim)]) {
              node_first = dim + 1;
            }
          }
        }
      }
      if (num_cross == 0) continue;

      // Index nested-loop applicability: exactly one crossing predicate,
      // the inner a single indexed table. Cross-product selectivity of
      // the edge for the pre-filter fetch estimate.
      double cross_sel = 1.0;
      if (num_cross == 1) {
        cross_sel = js[static_cast<size_t>(single_cross)];
      }
      const auto inlj_ok = [&](uint64_t inner) {
        return num_cross == 1 && (inner & (inner - 1)) == 0 &&
               (inlj_inner_mask_[static_cast<size_t>(single_cross)] & inner) != 0;
      };

      for (int st1 = 0; st1 < S; ++st1) {
        const double c1 = cell(s1, st1).cost;
        if (c1 == kInf) continue;
        for (int st2 = 0; st2 < S; ++st2) {
          const double c2 = cell(s2, st2).cost;
          if (c2 == kInf) continue;

          // Physical alternatives: {HJ, NLJ} x {s1 left, s2 left}, plus
          // index nested-loop joins where applicable.
          struct Alt {
            PlanOp op;
            uint64_t lm;
            int ls;
            double lc;
            uint64_t rm;
            int rs;
            double rc;
          };
          Alt alts[7];
          int num_alts = 0;
          alts[num_alts++] = {PlanOp::kHashJoin, s1, st1, c1, s2, st2, c2};
          alts[num_alts++] = {PlanOp::kHashJoin, s2, st2, c2, s1, st1, c1};
          alts[num_alts++] = {PlanOp::kNLJoin, s1, st1, c1, s2, st2, c2};
          alts[num_alts++] = {PlanOp::kNLJoin, s2, st2, c2, s1, st1, c1};
          // Sort-merge cost is operand-symmetric; one orientation suffices.
          alts[num_alts++] = {PlanOp::kSortMergeJoin, s1, st1, c1, s2, st2, c2};
          if (inlj_ok(s2)) {
            alts[num_alts++] = {PlanOp::kIndexNLJoin, s1, st1, c1, s2, st2, 0.0};
          }
          if (inlj_ok(s1)) {
            alts[num_alts++] = {PlanOp::kIndexNLJoin, s2, st2, c2, s1, st1, 0.0};
          }
          for (int ai = 0; ai < num_alts; ++ai) {
            const Alt& a = alts[ai];
            double local;
            // Execution order of the children determines whose unlearned
            // epp comes first: (first child, second child, this node).
            int first_state, second_state;
            if (a.op == PlanOp::kHashJoin || a.op == PlanOp::kSortMergeJoin) {
              // Left child executes first (hash build / first sort run).
              local = a.op == PlanOp::kHashJoin
                          ? cost_model_.HashJoinCost(card[a.lm], card[a.rm],
                                                     card[mask])
                          : cost_model_.SortMergeJoinCost(
                                card[a.lm], card[a.rm], card[mask],
                                sort_term[a.lm], sort_term[a.rm]);
              first_state = a.ls;
              second_state = a.rs;
            } else if (a.op == PlanOp::kNLJoin) {
              // Right child is the materialized inner (blocking).
              local = cost_model_.NLJoinCost(card[a.lm], card[a.rm], card[mask]);
              first_state = a.rs;
              second_state = a.ls;
            } else {
              // Index nested-loop: probe the right table's index with the
              // left (outer) stream; the right scan never runs, so its
              // cost does not accrue (a.rc == 0) — but its error-prone
              // filters still resolve during probing, after the outer's.
              // Fetches are pre-filter: outer x raw inner x edge sel.
              int inner_table = 0;
              while ((a.rm & (uint64_t{1} << inner_table)) == 0) ++inner_table;
              const double fetched =
                  card[a.lm] * estimator_.RawRows(inner_table) * cross_sel;
              local = cost_model_.IndexNLJoinCost(card[a.lm], fetched, card[mask]);
              first_state = a.ls;
              second_state = a.rs;
            }
            const int state = first_state != 0
                                  ? first_state
                                  : (second_state != 0 ? second_state
                                                       : node_first);
            const double total = a.lc + a.rc + local;
            DpCell& best = cell(mask, state);
            if (total < best.cost) {
              best.cost = total;
              best.op = a.op;
              best.left_mask = a.lm;
              best.left_state = a.ls;
              best.right_mask = a.rm;
              best.right_state = a.rs;
            }
          }
        }
      }
    }
  }
}

std::unique_ptr<PlanNode> Optimizer::Reconstruct(const DpArena& arena,
                                                 uint64_t mask,
                                                 int state) const {
  const DpCell& c = arena.dp[mask * static_cast<uint64_t>(arena.states) +
                             static_cast<uint64_t>(state)];
  RQP_CHECK(c.cost != kInf);
  auto node = std::make_unique<PlanNode>();
  if ((mask & (mask - 1)) == 0) {
    // Single table.
    int t = 0;
    while ((mask & (uint64_t{1} << t)) == 0) ++t;
    node->op = PlanOp::kSeqScan;
    node->table_idx = t;
    node->filter_indices = table_filters_[static_cast<size_t>(t)];
    return node;
  }
  node->op = c.op;
  node->left = Reconstruct(arena, c.left_mask, c.left_state);
  node->right = Reconstruct(arena, c.right_mask, c.right_state);
  for (int j = 0; j < query_->num_joins(); ++j) {
    const uint64_t jm = join_masks_[static_cast<size_t>(j)];
    if ((jm & mask) != jm) continue;
    if ((jm & c.left_mask) != 0 && (jm & c.right_mask) != 0) {
      node->join_indices.push_back(j);
    }
  }
  return node;
}

std::unique_ptr<Plan> Optimizer::Optimize(const EssPoint& q) const {
  RQP_CHECK(static_cast<int>(q.size()) == query_->num_epps());
  optimize_calls_.fetch_add(1, std::memory_order_relaxed);
  DpArena& arena = ThreadArena();
  // With no unlearned epps every subtree has state 0, so the single-state
  // DP finds the same winners as the (mask, state) one.
  RunDp(q, nullptr, &arena);
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  return std::make_unique<Plan>(query_, Reconstruct(arena, full, 0));
}

Result<std::unique_ptr<Plan>> Optimizer::TryOptimize(const EssPoint& q) const {
  if (FaultInjector::Armed()) {
    const FaultAction act =
        FaultInjector::Global().Evaluate(fault_site::kOptimizerDp);
    switch (act.kind) {
      case FaultKind::kTransient:
        return Status::Unavailable("injected transient fault at optimizer.dp");
      case FaultKind::kPermanent:
        return Status::Internal("injected permanent fault at optimizer.dp");
      default:
        break;  // spikes/corruption are not meaningful for plan search
    }
  }
  return Optimize(q);
}

std::unique_ptr<Plan> Optimizer::OptimizeConstrainedSpill(
    const EssPoint& q, int dim, const std::vector<bool>& unlearned) const {
  RQP_CHECK(dim >= 0 && dim < query_->num_epps());
  optimize_calls_.fetch_add(1, std::memory_order_relaxed);
  DpArena& arena = ThreadArena();
  RunDp(q, &unlearned, &arena);
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  const int state = dim + 1;
  const DpCell& c = arena.dp[full * static_cast<uint64_t>(num_states_) +
                             static_cast<uint64_t>(state)];
  if (c.cost == kInf) return nullptr;
  return std::make_unique<Plan>(query_, Reconstruct(arena, full, state));
}

// Computes per-node rows and cumulative costs. Cardinalities are kept as
// unclamped expectations (see RunDp), so this is exactly consistent with
// the DP's per-mask cardinalities and the DP winner really is the
// CostPlan minimum.
double Optimizer::CostNode(const PlanNode& node, const EssPoint& q,
                           PlanCosting* out) const {
  const size_t id = static_cast<size_t>(node.id);
  if (node.op == PlanOp::kSeqScan) {
    const double rows =
        estimator_.FilteredRows(node.table_idx, node.filter_indices, q);
    out->rows[id] = rows;
    out->cost[id] = cost_model_.ScanCost(estimator_.RawRows(node.table_idx));
    return rows;
  }
  const double lr = CostNode(*node.left, q, out);
  const double rr = CostNode(*node.right, q, out);
  double sel = 1.0;
  for (int j : node.join_indices) sel *= estimator_.JoinSelectivity(j, q);
  const double out_rows = lr * rr * sel;
  out->rows[id] = out_rows;
  double local;
  if (node.op == PlanOp::kHashJoin) {
    local = cost_model_.HashJoinCost(lr, rr, out_rows);
  } else if (node.op == PlanOp::kNLJoin) {
    local = cost_model_.NLJoinCost(lr, rr, out_rows);
  } else if (node.op == PlanOp::kSortMergeJoin) {
    local = cost_model_.SortMergeJoinCost(lr, rr, out_rows);
  } else {
    const double fetched =
        lr * estimator_.RawRows(node.right->table_idx) * sel;
    local = cost_model_.IndexNLJoinCost(lr, fetched, out_rows);
    // The probed table is never scanned under this plan: its subtree
    // keeps its standalone cost (what a spill execution of that scan
    // would pay) but contributes nothing to this node's cumulative cost.
    out->cost[id] = out->cost[static_cast<size_t>(node.left->id)] + local;
    return out_rows;
  }
  out->cost[id] = out->cost[static_cast<size_t>(node.left->id)] +
                  out->cost[static_cast<size_t>(node.right->id)] + local;
  return out_rows;
}

void Optimizer::CostNodeFast(const PlanNode& node, const EssPoint& q,
                             double* rows, double* cost) const {
  if (node.op == PlanOp::kSeqScan) {
    *rows = estimator_.FilteredRows(node.table_idx, node.filter_indices, q);
    *cost = cost_model_.ScanCost(estimator_.RawRows(node.table_idx));
    return;
  }
  double lr, lc, rr, rc;
  CostNodeFast(*node.left, q, &lr, &lc);
  CostNodeFast(*node.right, q, &rr, &rc);
  double sel = 1.0;
  for (int j : node.join_indices) sel *= estimator_.JoinSelectivity(j, q);
  const double out_rows = lr * rr * sel;
  double local;
  if (node.op == PlanOp::kHashJoin) {
    local = cost_model_.HashJoinCost(lr, rr, out_rows);
  } else if (node.op == PlanOp::kNLJoin) {
    local = cost_model_.NLJoinCost(lr, rr, out_rows);
  } else if (node.op == PlanOp::kSortMergeJoin) {
    local = cost_model_.SortMergeJoinCost(lr, rr, out_rows);
  } else {
    const double fetched = lr * estimator_.RawRows(node.right->table_idx) * sel;
    local = cost_model_.IndexNLJoinCost(lr, fetched, out_rows);
    rc = 0.0;  // the probed table is never scanned
  }
  *rows = out_rows;
  *cost = lc + rc + local;
}

PlanCosting Optimizer::CostPlan(const Plan& plan, const EssPoint& q) const {
  RQP_CHECK(static_cast<int>(q.size()) == query_->num_epps());
  PlanCosting out;
  out.rows.assign(static_cast<size_t>(plan.num_nodes()), 0.0);
  out.cost.assign(static_cast<size_t>(plan.num_nodes()), 0.0);
  CostNode(plan.root(), q, &out);
  return out;
}

}  // namespace robustqp
