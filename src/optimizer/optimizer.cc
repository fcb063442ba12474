#include "optimizer/optimizer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "common/fault.h"
#include "common/status.h"

namespace robustqp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t NextOptimizerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

/// One DP cell: the cheapest subtree covering `mask` whose execution-order
/// state is `state`. Its right child covers `mask ^ left_mask`.
struct Optimizer::DpCell {
  double cost = kInf;
  PlanOp op = PlanOp::kSeqScan;
  int left_state = 0;
  int right_state = 0;
  uint64_t left_mask = 0;
};

struct Optimizer::DpArena {
  std::vector<double> filtered_rows;  // per table index, at the current q
  std::vector<double> join_sel;       // per join index, at the current q
  std::vector<double> card;
  std::vector<double> sort_term;  // CostModel::SortTerm(card[mask])
  int states = 1;                 // DP states per mask of the last RunDp
  std::vector<DpCell> dp;
  PlanKey key;  // Optimize's winner key, reused across calls
  // The plain DP `dp` holds: its optimizer's id (0 = none, e.g. after a
  // constrained DP) and the q it was run at.
  uint64_t dp_owner = 0;
  EssPoint dp_q;
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
      num_states_(query->num_epps() + 1),
      id_(NextOptimizerId()) {
  RQP_CHECK(num_tables_ >= 1 && num_tables_ <= 60);  // PlanKey packs masks
  RQP_CHECK(query->num_epps() < 64);  // mask_dims_ bits, kAllDims excluded
  // Per join index: the bitmask of its two query tables that can be the
  // probed inner of an index nested-loop join (a hash index exists on the
  // join column).
  std::vector<uint64_t> inlj_inner_mask;
  join_masks_.reserve(query->joins().size());
  inlj_inner_mask.reserve(query->joins().size());
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
    inlj_inner_mask.push_back(inner);
  }
  table_filters_.resize(static_cast<size_t>(num_tables_));
  std::vector<uint64_t> table_dims(static_cast<size_t>(num_tables_), 0);
  for (int f = 0; f < static_cast<int>(query->filters().size()); ++f) {
    const int t = query->TableIndex(query->filters()[static_cast<size_t>(f)].table);
    RQP_CHECK(t >= 0);
    table_filters_[static_cast<size_t>(t)].push_back(f);
    const int dim = query->EppDimensionOfFilter(f);
    if (dim >= 0) table_dims[static_cast<size_t>(t)] |= uint64_t{1} << dim;
  }

  // Per-mask structure is independent of the injected selectivities, so it
  // is computed once here instead of on every RunDp call.
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  connected_.assign(full + 1, 0);
  mask_dims_.assign(full + 1, 0);
  mask_join_offsets_.assign(full + 2, 0);
  mask_join_list_.clear();
  const int num_joins = query->num_joins();
  for (uint64_t mask = 1; mask <= full; ++mask) {
    mask_join_offsets_[mask] = static_cast<int32_t>(mask_join_list_.size());
    uint64_t dims = 0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      dims |= table_dims[static_cast<size_t>(std::countr_zero(rest))];
    }
    for (int j = 0; j < num_joins; ++j) {
      const uint64_t jm = join_masks_[static_cast<size_t>(j)];
      if ((jm & mask) != jm) continue;
      mask_join_list_.push_back(j);
      const int dim = query->EppDimensionOfJoin(j);
      if (dim >= 0) dims |= uint64_t{1} << dim;
    }
    mask_dims_[mask] = dims;
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

  // The DP's splits: per connected mask of two or more tables, every
  // unordered split into connected halves joined by at least one edge, in
  // the order the DP tries them.
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (!connected_[mask] || (mask & (mask - 1)) == 0) continue;
    dp_masks_.push_back(mask);
    split_offsets_.push_back(static_cast<int32_t>(splits_.size()));
    for (uint64_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const uint64_t s2 = mask ^ s1;
      if (s1 > s2) continue;  // each unordered split once
      if (!connected_[s1] || !connected_[s2]) continue;
      Split split;
      split.s1 = s1;
      split.s2 = s2;
      split.epp_begin = static_cast<int32_t>(split_epp_dims_.size());
      int num_cross = 0;
      for (int32_t k = mask_join_offsets_[mask];
           k < mask_join_offsets_[mask + 1]; ++k) {
        const int j = mask_join_list_[static_cast<size_t>(k)];
        const uint64_t jm = join_masks_[static_cast<size_t>(j)];
        if ((jm & s1) == 0 || (jm & s2) == 0) continue;
        ++num_cross;
        split.single_cross = j;
        const int dim = query->EppDimensionOfJoin(j);
        if (dim >= 0) split_epp_dims_.push_back(dim);
      }
      split.epp_end = static_cast<int32_t>(split_epp_dims_.size());
      if (num_cross == 0) continue;
      if (num_cross > 1) {
        split.single_cross = -1;
      } else {
        // Index nested-loop: the inner is a single table indexed on the
        // crossing join's column.
        const uint64_t indexed =
            inlj_inner_mask[static_cast<size_t>(split.single_cross)];
        if ((s2 & (s2 - 1)) == 0 && (indexed & s2) != 0) {
          split.inlj_inner2 = static_cast<int16_t>(std::countr_zero(s2));
        }
        if ((s1 & (s1 - 1)) == 0 && (indexed & s1) != 0) {
          split.inlj_inner1 = static_cast<int16_t>(std::countr_zero(s1));
        }
      }
      splits_.push_back(split);
    }
  }
  split_offsets_.push_back(static_cast<int32_t>(splits_.size()));
}

void Optimizer::ComputeCards(const EssPoint& q, uint64_t changed,
                             DpArena* arena) const {
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
  const bool all = changed == kAllDims;
  if (all) {
    card.assign(full + 1, 0.0);
    sort_term.assign(full + 1, 0.0);
  }
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (!connected_[mask]) continue;
    if (!all && (mask_dims_[mask] & changed) == 0) continue;
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

template <bool kConstrained>
void Optimizer::RunDp(const EssPoint& q, const std::vector<bool>* unlearned,
                      uint64_t changed, DpArena* arena) const {
  const int n = num_tables_;
  const uint64_t full = (uint64_t{1} << n) - 1;
  const int S = kConstrained ? num_states_ : 1;
  const bool all = changed == kAllDims;
  RQP_CHECK(all || (!kConstrained && arena->states == 1));
  arena->states = S;

  ComputeCards(q, changed, arena);
  const std::vector<double>& js = arena->join_sel;
  const std::vector<double>& card = arena->card;
  const std::vector<double>& sort_term = arena->sort_term;

  std::vector<DpCell>& dp = arena->dp;
  auto cell = [&](uint64_t mask, int state) -> DpCell& {
    return dp[mask * static_cast<uint64_t>(S) + static_cast<uint64_t>(state)];
  };

  // Base case: single-table scans. A scan's execution-order state is the
  // first unlearned *filter* epp among its predicates (join epps never
  // live at scans). Scan costs do not depend on q, so an incremental call
  // keeps them.
  if (all) dp.assign((full + 1) * static_cast<uint64_t>(S), DpCell{});
  for (int t = 0; all && t < n; ++t) {
    const uint64_t m = uint64_t{1} << t;
    int leaf_state = 0;
    if constexpr (kConstrained) {
      for (int f : table_filters_[static_cast<size_t>(t)]) {
        const int dim = query_->EppDimensionOfFilter(f);
        if (dim >= 0 && (*unlearned)[static_cast<size_t>(dim)]) {
          leaf_state = dim + 1;
          break;
        }
      }
    }
    cell(m, leaf_state).cost = cost_model_.ScanCost(estimator_.RawRows(t));
    cell(m, leaf_state).op = PlanOp::kSeqScan;
  }

  // Joins, by increasing mask (every strict submask precedes its mask),
  // over the precomputed splits.
  for (size_t mi = 0; mi < dp_masks_.size(); ++mi) {
    const uint64_t mask = dp_masks_[mi];
    if (!all) {
      if ((mask_dims_[mask] & changed) == 0) continue;
      cell(mask, 0) = DpCell{};
    }
    const double out = card[mask];
    for (int32_t k = split_offsets_[mi]; k < split_offsets_[mi + 1]; ++k) {
      const Split& sp = splits_[static_cast<size_t>(k)];
      const uint64_t s1 = sp.s1;
      const uint64_t s2 = sp.s2;
      // The node evaluates the edges crossing (s1, s2); its own state is
      // the first unlearned epp among them, in join-index order.
      int node_first = 0;  // state encoding: 0 = none, d+1 = dim d
      if constexpr (kConstrained) {
        for (int32_t e = sp.epp_begin; e < sp.epp_end; ++e) {
          const int dim = split_epp_dims_[static_cast<size_t>(e)];
          if ((*unlearned)[static_cast<size_t>(dim)]) {
            node_first = dim + 1;
            break;
          }
        }
      }

      // Local cost of each physical alternative: {HJ, NLJ} x {s1 left, s2
      // left}, sort-merge (operand-symmetric, one orientation suffices),
      // and index nested-loop with s2 or s1 as the probed inner. Fetches
      // are pre-filter: outer x raw inner x edge selectivity.
      const double hj12 = cost_model_.HashJoinCost(card[s1], card[s2], out);
      const double hj21 = cost_model_.HashJoinCost(card[s2], card[s1], out);
      const double nl12 = cost_model_.NLJoinCost(card[s1], card[s2], out);
      const double nl21 = cost_model_.NLJoinCost(card[s2], card[s1], out);
      const double smj = cost_model_.SortMergeJoinCost(
          card[s1], card[s2], out, sort_term[s1], sort_term[s2]);
      double inl12 = 0.0;
      double inl21 = 0.0;
      if (sp.inlj_inner2 >= 0) {
        const double fetched = card[s1] * estimator_.RawRows(sp.inlj_inner2) *
                               js[static_cast<size_t>(sp.single_cross)];
        inl12 = cost_model_.IndexNLJoinCost(card[s1], fetched, out);
      }
      if (sp.inlj_inner1 >= 0) {
        const double fetched = card[s2] * estimator_.RawRows(sp.inlj_inner1) *
                               js[static_cast<size_t>(sp.single_cross)];
        inl21 = cost_model_.IndexNLJoinCost(card[s2], fetched, out);
      }

      for (int st1 = 0; st1 < S; ++st1) {
        const double c1 = cell(s1, st1).cost;
        if (c1 == kInf) continue;
        for (int st2 = 0; st2 < S; ++st2) {
          const double c2 = cell(s2, st2).cost;
          if (c2 == kInf) continue;
          // The subtree's state: the first unlearned epp in execution
          // order (first child, second child, this node).
          const auto first = [node_first](int a, int b) {
            return a != 0 ? a : (b != 0 ? b : node_first);
          };
          const auto offer = [&](int state, double total, PlanOp op,
                                 uint64_t lm, int ls, int rs) {
            DpCell& best = cell(mask, state);
            if (total < best.cost) {
              best.cost = total;
              best.op = op;
              best.left_state = ls;
              best.right_state = rs;
              best.left_mask = lm;
            }
          };
          // Hash and sort-merge joins run the left child first (hash
          // build / first sort run); a nested-loop join materializes its
          // right child (the inner) first. An index nested-loop join's
          // probed inner is never scanned, so its cost does not accrue,
          // but its error-prone filters resolve during probing, after the
          // outer's.
          offer(first(st1, st2), c1 + c2 + hj12, PlanOp::kHashJoin, s1, st1,
                st2);
          offer(first(st2, st1), c2 + c1 + hj21, PlanOp::kHashJoin, s2, st2,
                st1);
          offer(first(st2, st1), c1 + c2 + nl12, PlanOp::kNLJoin, s1, st1,
                st2);
          offer(first(st1, st2), c2 + c1 + nl21, PlanOp::kNLJoin, s2, st2,
                st1);
          offer(first(st1, st2), c1 + c2 + smj, PlanOp::kSortMergeJoin, s1,
                st1, st2);
          if (sp.inlj_inner2 >= 0) {
            offer(first(st1, st2), c1 + inl12, PlanOp::kIndexNLJoin, s1, st1,
                  st2);
          }
          if (sp.inlj_inner1 >= 0) {
            offer(first(st2, st1), c2 + inl21, PlanOp::kIndexNLJoin, s2, st2,
                  st1);
          }
        }
      }
    }
  }
}

void Optimizer::AppendKey(const DpArena& arena, uint64_t mask, int state,
                          PlanKey* key) const {
  const DpCell& c = arena.dp[mask * static_cast<uint64_t>(arena.states) +
                             static_cast<uint64_t>(state)];
  RQP_CHECK(c.cost != kInf);
  if ((mask & (mask - 1)) == 0) return;  // a scan: its mask names it
  key->push_back((c.left_mask << 3) | static_cast<uint64_t>(c.op));
  AppendKey(arena, c.left_mask, c.left_state, key);
  AppendKey(arena, mask ^ c.left_mask, c.right_state, key);
}

std::unique_ptr<PlanNode> Optimizer::NodeFromKey(const PlanKey& key,
                                                 uint64_t mask,
                                                 size_t* pos) const {
  auto node = std::make_unique<PlanNode>();
  if ((mask & (mask - 1)) == 0) {
    const int t = std::countr_zero(mask);
    node->op = PlanOp::kSeqScan;
    node->table_idx = t;
    node->filter_indices = table_filters_[static_cast<size_t>(t)];
    return node;
  }
  RQP_CHECK(*pos < key.size());
  const uint64_t word = key[(*pos)++];
  const uint64_t left = word >> 3;
  RQP_CHECK(left != 0 && (left & ~mask) == 0 && left != mask);
  node->op = static_cast<PlanOp>(word & 7);
  node->left = NodeFromKey(key, left, pos);
  node->right = NodeFromKey(key, mask ^ left, pos);
  for (int32_t k = mask_join_offsets_[mask]; k < mask_join_offsets_[mask + 1];
       ++k) {
    const int j = mask_join_list_[static_cast<size_t>(k)];
    const uint64_t jm = join_masks_[static_cast<size_t>(j)];
    if ((jm & left) != 0 && (jm & ~left) != 0) node->join_indices.push_back(j);
  }
  return node;
}

std::unique_ptr<Plan> Optimizer::PlanFromKey(const PlanKey& key) const {
  size_t pos = 0;
  std::unique_ptr<PlanNode> root =
      NodeFromKey(key, (uint64_t{1} << num_tables_) - 1, &pos);
  RQP_CHECK(pos == key.size());
  return std::make_unique<Plan>(query_, std::move(root));
}

void Optimizer::OptimizeKey(const EssPoint& q, PlanKey* key) const {
  RQP_CHECK(static_cast<int>(q.size()) == query_->num_epps());
  optimize_calls_.fetch_add(1, std::memory_order_relaxed);
  DpArena& arena = ThreadArena();
  // Diff q bitwise against the arena's last plain DP of this optimizer:
  // only the cells whose dimensions changed are recomputed, none when q
  // repeats. A first call (or another optimizer's record) recomputes all.
  uint64_t changed = kAllDims;
  if (arena.dp_owner == id_) {
    changed = 0;
    for (size_t d = 0; d < q.size(); ++d) {
      if (std::bit_cast<uint64_t>(q[d]) !=
          std::bit_cast<uint64_t>(arena.dp_q[d])) {
        changed |= uint64_t{1} << d;
      }
    }
  }
  if (changed != 0) {
    // With no unlearned epps every subtree has state 0, so the
    // single-state DP finds the same winners as the (mask, state) one.
    RunDp<false>(q, nullptr, changed, &arena);
    arena.dp_owner = id_;
    arena.dp_q = q;
  }
  key->clear();
  AppendKey(arena, (uint64_t{1} << num_tables_) - 1, 0, key);
}

std::unique_ptr<Plan> Optimizer::Optimize(const EssPoint& q) const {
  PlanKey& key = ThreadArena().key;
  OptimizeKey(q, &key);
  return PlanFromKey(key);
}

Status Optimizer::TryOptimizeKey(const EssPoint& q, PlanKey* key) const {
  if (FaultInjector::Armed()) {
    const FaultAction act =
        FaultInjector::Current().Evaluate(fault_site::kOptimizerDp);
    switch (act.kind) {
      case FaultKind::kTransient:
        return Status::Unavailable("injected transient fault at optimizer.dp");
      case FaultKind::kPermanent:
        return Status::Internal("injected permanent fault at optimizer.dp");
      default:
        break;  // spikes/corruption are not meaningful for plan search
    }
  }
  OptimizeKey(q, key);
  return Status::OK();
}

std::unique_ptr<Plan> Optimizer::OptimizeConstrainedSpill(
    const EssPoint& q, int dim, const std::vector<bool>& unlearned) const {
  RQP_CHECK(dim >= 0 && dim < query_->num_epps());
  optimize_calls_.fetch_add(1, std::memory_order_relaxed);
  DpArena& arena = ThreadArena();
  arena.dp_owner = 0;  // the (mask, state) table replaces the plain DP
  RunDp<true>(q, &unlearned, kAllDims, &arena);
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  const int state = dim + 1;
  const DpCell& c = arena.dp[full * static_cast<uint64_t>(num_states_) +
                             static_cast<uint64_t>(state)];
  if (c.cost == kInf) return nullptr;
  arena.key.clear();
  AppendKey(arena, full, state, &arena.key);
  return PlanFromKey(arena.key);
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
