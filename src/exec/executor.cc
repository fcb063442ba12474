#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/thread_pool.h"
#include "exec/batch_engine.h"
#include "exec/cost_ledger.h"
#include "exec/kernels.h"
#include "storage/hash_index.h"
#include "storage/table.h"

namespace robustqp {

double ExecutionResult::ObservedJoinSelectivity(int node_id) const {
  const NodeStats& s = node_stats[static_cast<size_t>(node_id)];
  const double denom = static_cast<double>(s.left_in) * static_cast<double>(s.right_in);
  // No evidence: an empty input side (denom == 0), or inputs so large the
  // product is no longer finite. `!(denom > 0)` also rejects NaN.
  if (!(denom > 0.0) || !std::isfinite(denom)) return 0.0;
  const double sel = static_cast<double>(s.out) / denom;
  // A selectivity is a fraction; guard against out > left_in * right_in
  // ever producing a value callers would feed into log-space grids.
  return std::clamp(sel, 0.0, 1.0);
}

double ExecutionResult::ObservedFilterSelectivity(int node_id, int k) const {
  const NodeStats& s = node_stats[static_cast<size_t>(node_id)];
  if (k < 0 || k >= static_cast<int>(s.filter_in.size())) return 0.0;
  const double reached = static_cast<double>(s.filter_in[static_cast<size_t>(k)]);
  if (reached <= 0.0) return 0.0;
  return static_cast<double>(s.filter_pass[static_cast<size_t>(k)]) / reached;
}

namespace {

/// A tuple in flight: one double per slot (integers are exactly
/// representable for the generators' value ranges).
using Row = std::vector<double>;

/// Maps each query table to its slot range within a row.
struct RowLayout {
  std::vector<int> table_offset;  // -1 when the table is absent
  int width = 0;

  int Slot(const Query& query, const std::string& table,
           const std::string& column, const Catalog& catalog) const {
    const int t = query.TableIndex(table);
    RQP_CHECK(t >= 0 && table_offset[static_cast<size_t>(t)] >= 0);
    const CatalogEntry* entry = catalog.FindTable(table);
    const int c = entry->table->schema().FindColumn(column);
    RQP_CHECK(c >= 0);
    return table_offset[static_cast<size_t>(t)] + c;
  }
};

/// Reads one column a block at a time: At(r) decodes row r's encoded
/// block into a kBlockRows buffer only when r enters a new block, so a
/// forward scan pays one block decode per block it reads instead of a
/// point read (up to 64 varint decodes on vbyte) per row. The buffer is
/// allocated on the first read: a column never read costs nothing.
/// Values are exactly ColumnData::GetNumeric's.
class ColumnCursor {
 public:
  explicit ColumnCursor(const ColumnData& col) : col_(&col.enc()) {}

  double At(int64_t r) {
    const int64_t b = r / EncodedColumn::kBlockRows;
    if (b != block_) {
      buf_.resize(static_cast<size_t>(EncodedColumn::kBlockRows));
      col_->DecodeInto(b, buf_.data());
      block_ = b;
    }
    return buf_[static_cast<size_t>(r - b * EncodedColumn::kBlockRows)];
  }

 private:
  const EncodedColumn* col_;
  int64_t block_ = -1;
  std::vector<double> buf_;
};

/// One cursor per column of `table`.
std::vector<ColumnCursor> MakeCursors(const Table& table) {
  std::vector<ColumnCursor> cursors;
  cursors.reserve(static_cast<size_t>(table.schema().num_columns()));
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    cursors.emplace_back(table.column(c));
  }
  return cursors;
}

/// A resolved scan filter: compare column `col`'s GetNumeric value to the
/// literal (string literals already mapped into rank space).
struct Filter {
  int col;
  CompareOp op;
  double value;

  bool Passes(double v) const {
    switch (op) {
      case CompareOp::kLt: return v < value;
      case CompareOp::kLe: return v <= value;
      case CompareOp::kGt: return v > value;
      case CompareOp::kGe: return v >= value;
      case CompareOp::kEq: return v == value;
    }
    return false;
  }
};

/// Evaluates `filters` on row `r` in order, reading through `cursors`
/// and counting each filter reached and passed into `st`.
bool PassesCounted(const std::vector<Filter>& filters,
                   std::vector<ColumnCursor>* cursors, int64_t r,
                   NodeStats* st) {
  for (size_t k = 0; k < filters.size(); ++k) {
    const Filter& f = filters[k];
    ++st->filter_in[k];
    if (!f.Passes((*cursors)[static_cast<size_t>(f.col)].At(r))) return false;
    ++st->filter_pass[k];
  }
  return true;
}

/// Resolves `node`'s filters against `table`.
std::vector<Filter> ResolveFilters(const Query& query, const PlanNode& node,
                                   const Table& table) {
  std::vector<Filter> filters;
  for (int f : node.filter_indices) {
    const FilterPredicate& fp = query.filters()[static_cast<size_t>(f)];
    const int col = table.schema().FindColumn(fp.column);
    CompareOp op = fp.op;
    double value = fp.value;
    if (fp.is_string) {
      kernels::MapStringPredicate(table.column(col).enc(), fp.op, fp.value_str,
                                  &op, &value);
    }
    filters.push_back({col, op, value});
  }
  return filters;
}

/// Shared per-execution state: budget accounting and node counters.
/// Cost is tracked as integer event counts in a CostLedger and reduced
/// through the canonical CostLedger::Total so the batch engine (which
/// counts whole morsels at once) lands on bit-identical cost_used.
struct ExecContext {
  double budget = -1.0;  // < 0: unlimited
  const CostParams* params = nullptr;
  CostLedger ledger;
  std::vector<NodeStats>* stats = nullptr;

  /// Counts one event of the given ledger kind; returns false once the
  /// budget is exhausted.
  bool Charge(EventCount CostLedger::*counter) {
    ++(ledger.*counter);
    return budget < 0.0 || ledger.Total(*params) <= budget;
  }

  /// Accumulates a non-unit charge (the sort remainder).
  bool ChargeExtra(double units) {
    ledger.extra += units;
    return budget < 0.0 || ledger.Total(*params) <= budget;
  }
};

class OperatorBase {
 public:
  virtual ~OperatorBase() = default;
  virtual Status Open(ExecContext* ctx) = 0;
  /// Produces the next row; sets *eof instead when exhausted.
  virtual Status Next(ExecContext* ctx, Row* out, bool* eof) = 0;
  const RowLayout& layout() const { return layout_; }

 protected:
  RowLayout layout_;
};

class SeqScanOp : public OperatorBase {
 public:
  SeqScanOp(const Catalog& catalog, const Query& query, const PlanNode& node)
      : node_(node) {
    const std::string& tname = query.tables()[static_cast<size_t>(node.table_idx)];
    table_ = catalog.FindTable(tname)->table.get();
    layout_.table_offset.assign(query.tables().size(), -1);
    layout_.table_offset[static_cast<size_t>(node.table_idx)] = 0;
    layout_.width = table_->schema().num_columns();
    filters_ = ResolveFilters(query, node, *table_);
    cursors_ = MakeCursors(*table_);
  }

  Status Open(ExecContext* ctx) override {
    row_ = 0;
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    st.filter_in.assign(filters_.size(), 0);
    st.filter_pass.assign(filters_.size(), 0);
    return Status::OK();
  }

  Status Next(ExecContext* ctx, Row* out, bool* eof) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    while (row_ < table_->num_rows()) {
      const int64_t r = row_++;
      ++st.left_in;
      if (!ctx->Charge(&CostLedger::scan_tuple)) {
        return Status::BudgetExhausted("scan");
      }
      if (!PassesCounted(filters_, &cursors_, r, &st)) continue;
      out->resize(static_cast<size_t>(layout_.width));
      for (int c = 0; c < layout_.width; ++c) {
        (*out)[static_cast<size_t>(c)] = cursors_[static_cast<size_t>(c)].At(r);
      }
      ++st.out;
      *eof = false;
      return Status::OK();
    }
    *eof = true;
    return Status::OK();
  }

 private:
  const PlanNode& node_;
  const Table* table_ = nullptr;
  std::vector<Filter> filters_;
  std::vector<ColumnCursor> cursors_;
  int64_t row_ = 0;
};

/// Merges two child layouts side by side.
RowLayout ConcatLayouts(const RowLayout& a, const RowLayout& b) {
  RowLayout out;
  out.table_offset.assign(a.table_offset.size(), -1);
  for (size_t t = 0; t < a.table_offset.size(); ++t) {
    if (a.table_offset[t] >= 0) out.table_offset[t] = a.table_offset[t];
    if (b.table_offset[t] >= 0) {
      RQP_CHECK(out.table_offset[t] < 0);
      out.table_offset[t] = a.width + b.table_offset[t];
    }
  }
  out.width = a.width + b.width;
  return out;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Resolved join keys: slots on each side, in predicate order.
struct JoinKeys {
  std::vector<int> left_slots;
  std::vector<int> right_slots;
};

JoinKeys ResolveKeys(const Query& query, const Catalog& catalog,
                     const std::vector<int>& join_indices,
                     const RowLayout& left, const RowLayout& right) {
  JoinKeys keys;
  for (int j : join_indices) {
    const JoinPredicate& jp = query.joins()[static_cast<size_t>(j)];
    // Either end of the predicate may live on either side of this node.
    const int lt = query.TableIndex(jp.left_table);
    const bool left_has_left = left.table_offset[static_cast<size_t>(lt)] >= 0;
    const std::string& ltab = left_has_left ? jp.left_table : jp.right_table;
    const std::string& lcol = left_has_left ? jp.left_column : jp.right_column;
    const std::string& rtab = left_has_left ? jp.right_table : jp.left_table;
    const std::string& rcol = left_has_left ? jp.right_column : jp.left_column;
    keys.left_slots.push_back(left.Slot(query, ltab, lcol, catalog));
    keys.right_slots.push_back(right.Slot(query, rtab, rcol, catalog));
  }
  return keys;
}

struct KeyHash {
  size_t operator()(const std::vector<double>& k) const {
    size_t h = 1469598103934665603ull;
    for (double v : k) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      __builtin_memcpy(&bits, &v, sizeof(bits));
      h ^= bits;
      h *= 1099511628211ull;
    }
    return h;
  }
};

class HashJoinOp : public OperatorBase {
 public:
  HashJoinOp(const Catalog& catalog, const Query& query, const CostModel& cm,
             const PlanNode& node, std::unique_ptr<OperatorBase> build,
             std::unique_ptr<OperatorBase> probe)
      : cm_(cm),
        node_(node),
        build_(std::move(build)),
        probe_(std::move(probe)) {
    layout_ = ConcatLayouts(build_->layout(), probe_->layout());
    keys_ = ResolveKeys(query, catalog, node.join_indices, build_->layout(),
                        probe_->layout());
  }

  Status Open(ExecContext* ctx) override {
    RQP_RETURN_NOT_OK(build_->Open(ctx));
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    table_.clear();
    Row row;
    bool eof = false;
    while (true) {
      RQP_RETURN_NOT_OK(build_->Next(ctx, &row, &eof));
      if (eof) break;
      ++st.left_in;
      if (!ctx->Charge(&CostLedger::hash_build_tuple)) {
        return Status::BudgetExhausted("hash build");
      }
      std::vector<double> key;
      key.reserve(keys_.left_slots.size());
      for (int s : keys_.left_slots) key.push_back(row[static_cast<size_t>(s)]);
      table_[key].push_back(row);
    }
    RQP_RETURN_NOT_OK(probe_->Open(ctx));
    matches_ = nullptr;
    match_idx_ = 0;
    return Status::OK();
  }

  Status Next(ExecContext* ctx, Row* out, bool* eof) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    while (true) {
      if (matches_ != nullptr && match_idx_ < matches_->size()) {
        if (!ctx->Charge(&CostLedger::join_output_tuple)) {
          return Status::BudgetExhausted("hash join output");
        }
        *out = ConcatRows((*matches_)[match_idx_++], probe_row_);
        ++st.out;
        *eof = false;
        return Status::OK();
      }
      bool probe_eof = false;
      RQP_RETURN_NOT_OK(probe_->Next(ctx, &probe_row_, &probe_eof));
      if (probe_eof) {
        *eof = true;
        return Status::OK();
      }
      ++st.right_in;
      if (!ctx->Charge(&CostLedger::hash_probe_tuple)) {
        return Status::BudgetExhausted("hash probe");
      }
      std::vector<double> key;
      key.reserve(keys_.right_slots.size());
      for (int s : keys_.right_slots) {
        key.push_back(probe_row_[static_cast<size_t>(s)]);
      }
      auto it = table_.find(key);
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_idx_ = 0;
    }
  }

 private:
  const CostModel& cm_;
  const PlanNode& node_;
  std::unique_ptr<OperatorBase> build_;
  std::unique_ptr<OperatorBase> probe_;
  JoinKeys keys_;
  std::unordered_map<std::vector<double>, std::vector<Row>, KeyHash> table_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_idx_ = 0;
  Row probe_row_;
};

class NLJoinOp : public OperatorBase {
 public:
  NLJoinOp(const Catalog& catalog, const Query& query, const CostModel& cm,
           const PlanNode& node, std::unique_ptr<OperatorBase> outer,
           std::unique_ptr<OperatorBase> inner)
      : cm_(cm),
        node_(node),
        outer_(std::move(outer)),
        inner_(std::move(inner)) {
    layout_ = ConcatLayouts(outer_->layout(), inner_->layout());
    keys_ = ResolveKeys(query, catalog, node.join_indices, outer_->layout(),
                        inner_->layout());
  }

  Status Open(ExecContext* ctx) override {
    // Materialize the inner side once (the blocking child).
    RQP_RETURN_NOT_OK(inner_->Open(ctx));
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    inner_rows_.clear();
    Row row;
    bool eof = false;
    while (true) {
      RQP_RETURN_NOT_OK(inner_->Next(ctx, &row, &eof));
      if (eof) break;
      ++st.right_in;
      if (!ctx->Charge(&CostLedger::nlj_materialize_tuple)) {
        return Status::BudgetExhausted("nlj materialize");
      }
      inner_rows_.push_back(row);
    }
    RQP_RETURN_NOT_OK(outer_->Open(ctx));
    have_outer_ = false;
    inner_idx_ = 0;
    return Status::OK();
  }

  Status Next(ExecContext* ctx, Row* out, bool* eof) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    while (true) {
      if (!have_outer_) {
        bool outer_eof = false;
        RQP_RETURN_NOT_OK(outer_->Next(ctx, &outer_row_, &outer_eof));
        if (outer_eof) {
          *eof = true;
          return Status::OK();
        }
        ++st.left_in;
        have_outer_ = true;
        inner_idx_ = 0;
      }
      while (inner_idx_ < inner_rows_.size()) {
        const Row& inner = inner_rows_[inner_idx_++];
        if (!ctx->Charge(&CostLedger::nlj_pair)) {
          return Status::BudgetExhausted("nlj pair");
        }
        bool match = true;
        for (size_t k = 0; k < keys_.left_slots.size(); ++k) {
          if (outer_row_[static_cast<size_t>(keys_.left_slots[k])] !=
              inner[static_cast<size_t>(keys_.right_slots[k])]) {
            match = false;
            break;
          }
        }
        if (match) {
          if (!ctx->Charge(&CostLedger::join_output_tuple)) {
            return Status::BudgetExhausted("nlj output");
          }
          *out = ConcatRows(outer_row_, inner);
          ++st.out;
          *eof = false;
          return Status::OK();
        }
      }
      have_outer_ = false;
    }
  }

 private:
  const CostModel& cm_;
  const PlanNode& node_;
  std::unique_ptr<OperatorBase> outer_;
  std::unique_ptr<OperatorBase> inner_;
  JoinKeys keys_;
  std::vector<Row> inner_rows_;
  Row outer_row_;
  bool have_outer_ = false;
  size_t inner_idx_ = 0;
};

class SortMergeJoinOp : public OperatorBase {
 public:
  SortMergeJoinOp(const Catalog& catalog, const Query& query,
                  const CostModel& cm, const PlanNode& node,
                  std::unique_ptr<OperatorBase> left,
                  std::unique_ptr<OperatorBase> right)
      : cm_(cm), node_(node), left_(std::move(left)), right_(std::move(right)) {
    layout_ = ConcatLayouts(left_->layout(), right_->layout());
    keys_ = ResolveKeys(query, catalog, node.join_indices, left_->layout(),
                        right_->layout());
  }

  Status Open(ExecContext* ctx) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    RQP_RETURN_NOT_OK(DrainAndSort(ctx, left_.get(), keys_.left_slots,
                                   &left_rows_, &st.left_in));
    RQP_RETURN_NOT_OK(DrainAndSort(ctx, right_.get(), keys_.right_slots,
                                   &right_rows_, &st.right_in));
    li_ = 0;
    ri_ = 0;
    group_li_ = 0;
    group_le_ = 0;
    group_re_ = 0;
    emit_ri_ = 0;
    in_group_ = false;
    return Status::OK();
  }

  Status Next(ExecContext* ctx, Row* out, bool* eof) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    while (true) {
      if (in_group_) {
        // Emit the cross product of the current equal-key groups.
        if (emit_ri_ < group_re_) {
          if (!ctx->Charge(&CostLedger::join_output_tuple)) {
            return Status::BudgetExhausted("merge join output");
          }
          *out = ConcatRows(left_rows_[group_li_], right_rows_[emit_ri_++]);
          ++st.out;
          *eof = false;
          return Status::OK();
        }
        ++group_li_;
        if (group_li_ < group_le_) {
          emit_ri_ = ri_;
          continue;
        }
        in_group_ = false;
        li_ = group_le_;
        ri_ = group_re_;
      }
      // Advance cursors to the next matching key.
      while (li_ < left_rows_.size() && ri_ < right_rows_.size()) {
        const int cmp = CompareKeys(left_rows_[li_], right_rows_[ri_]);
        if (cmp < 0) {
          if (!ctx->Charge(&CostLedger::merge_tuple)) {
            return Status::BudgetExhausted("merge advance");
          }
          ++li_;
        } else if (cmp > 0) {
          if (!ctx->Charge(&CostLedger::merge_tuple)) {
            return Status::BudgetExhausted("merge advance");
          }
          ++ri_;
        } else {
          // Found an equal-key run on both sides.
          group_le_ = li_;
          while (group_le_ < left_rows_.size() &&
                 CompareKeys(left_rows_[group_le_], right_rows_[ri_]) == 0) {
            if (!ctx->Charge(&CostLedger::merge_tuple)) {
              return Status::BudgetExhausted("merge advance");
            }
            ++group_le_;
          }
          group_re_ = ri_;
          while (group_re_ < right_rows_.size() &&
                 CompareKeys(left_rows_[li_], right_rows_[group_re_]) == 0) {
            if (!ctx->Charge(&CostLedger::merge_tuple)) {
              return Status::BudgetExhausted("merge advance");
            }
            ++group_re_;
          }
          group_li_ = li_;
          emit_ri_ = ri_;
          in_group_ = true;
          break;
        }
      }
      if (!in_group_) {
        *eof = true;
        return Status::OK();
      }
    }
  }

 private:
  int CompareKeys(const Row& l, const Row& r) const {
    for (size_t k = 0; k < keys_.left_slots.size(); ++k) {
      const double a = l[static_cast<size_t>(keys_.left_slots[k])];
      const double b = r[static_cast<size_t>(keys_.right_slots[k])];
      if (a < b) return -1;
      if (a > b) return 1;
    }
    return 0;
  }

  Status DrainAndSort(ExecContext* ctx, OperatorBase* child,
                      const std::vector<int>& slots, std::vector<Row>* rows,
                      int64_t* counter) {
    RQP_RETURN_NOT_OK(child->Open(ctx));
    rows->clear();
    Row row;
    bool eof = false;
    while (true) {
      RQP_RETURN_NOT_OK(child->Next(ctx, &row, &eof));
      if (eof) break;
      ++*counter;
      if (!ctx->Charge(&CostLedger::sort_tuple)) {
        return Status::BudgetExhausted("sort materialize");
      }
      rows->push_back(row);
    }
    // Remaining n (log2 n - 1) units so the total matches the cost
    // model's n log2 n sort term.
    const double n = static_cast<double>(rows->size());
    const double remainder = CostModel::SortTerm(n) - n;
    if (remainder > 0.0 &&
        !ctx->ChargeExtra(cm_.params().sort_tuple * remainder)) {
      return Status::BudgetExhausted("sort");
    }
    // Stable so equal-key run order is the scan order — the batch engine
    // sorts the same way, keeping downstream event order (and therefore
    // mid-run budget abort boundaries) identical between engines.
    std::stable_sort(rows->begin(), rows->end(), [&](const Row& a, const Row& b) {
      for (int s : slots) {
        if (a[static_cast<size_t>(s)] != b[static_cast<size_t>(s)]) {
          return a[static_cast<size_t>(s)] < b[static_cast<size_t>(s)];
        }
      }
      return false;
    });
    return Status::OK();
  }

  const CostModel& cm_;
  const PlanNode& node_;
  std::unique_ptr<OperatorBase> left_;
  std::unique_ptr<OperatorBase> right_;
  JoinKeys keys_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  size_t li_ = 0, ri_ = 0;
  size_t group_li_ = 0, group_le_ = 0, group_re_ = 0, emit_ri_ = 0;
  bool in_group_ = false;
};

class IndexNLJoinOp : public OperatorBase {
 public:
  IndexNLJoinOp(const Catalog& catalog, const Query& query, const CostModel& cm,
                const PlanNode& node, std::unique_ptr<OperatorBase> outer)
      : catalog_(catalog), query_(query), cm_(cm), node_(node),
        outer_(std::move(outer)) {
    RQP_CHECK(node.join_indices.size() == 1);
    RQP_CHECK(node.right != nullptr && node.right->op == PlanOp::kSeqScan);
    const int t = node.right->table_idx;
    const std::string& tname = query.tables()[static_cast<size_t>(t)];
    inner_table_ = catalog.FindTable(tname)->table.get();

    // Layout: outer columns followed by all inner-table columns.
    RowLayout inner_layout;
    inner_layout.table_offset.assign(query.tables().size(), -1);
    inner_layout.table_offset[static_cast<size_t>(t)] = 0;
    inner_layout.width = inner_table_->schema().num_columns();
    layout_ = ConcatLayouts(outer_->layout(), inner_layout);

    // The join predicate: resolve the outer-side slot and the indexed
    // inner column.
    const JoinPredicate& jp =
        query.joins()[static_cast<size_t>(node.join_indices[0])];
    const bool inner_is_left = query.TableIndex(jp.left_table) == t;
    const std::string& inner_col = inner_is_left ? jp.left_column : jp.right_column;
    const std::string& outer_tab = inner_is_left ? jp.right_table : jp.left_table;
    const std::string& outer_col = inner_is_left ? jp.right_column : jp.left_column;
    outer_key_slot_ = outer_->layout().Slot(query, outer_tab, outer_col, catalog);
    index_ = catalog.FindIndex(tname, inner_col);
    RQP_CHECK(index_ != nullptr);

    filters_ = ResolveFilters(query, *node.right, *inner_table_);
  }

  Status Open(ExecContext* ctx) override {
    RQP_RETURN_NOT_OK(outer_->Open(ctx));
    // Selectivity monitoring: the denominator of the observed join
    // selectivity is the *filtered* inner cardinality, which the probe
    // path never sees; count it in a metadata-only (uncharged) pass so a
    // completed spill on this node learns the same quantity a hash or
    // block-nested join would.
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    NodeStats& scan_st = (*ctx->stats)[static_cast<size_t>(node_.right->id)];
    scan_st.filter_in.assign(filters_.size(), 0);
    scan_st.filter_pass.assign(filters_.size(), 0);
    st.right_in = 0;
    std::vector<ColumnCursor> cursors = MakeCursors(*inner_table_);
    for (int64_t r = 0; r < inner_table_->num_rows(); ++r) {
      if (PassesCounted(filters_, &cursors, r, &scan_st)) ++st.right_in;
    }
    matches_ = {};
    match_idx_ = 0;
    return Status::OK();
  }

  Status Next(ExecContext* ctx, Row* out, bool* eof) override {
    NodeStats& st = (*ctx->stats)[static_cast<size_t>(node_.id)];
    while (true) {
      if (!matches_.empty()) {
        while (match_idx_ < matches_.size()) {
          const int64_t r = matches_[match_idx_++];
          if (!ctx->Charge(&CostLedger::index_fetch)) {
            return Status::BudgetExhausted("index fetch");
          }
          if (!PassesFilters(r)) continue;
          if (!ctx->Charge(&CostLedger::join_output_tuple)) {
            return Status::BudgetExhausted("index join output");
          }
          out->resize(outer_row_.size() +
                      static_cast<size_t>(inner_table_->schema().num_columns()));
          std::copy(outer_row_.begin(), outer_row_.end(), out->begin());
          for (int c = 0; c < inner_table_->schema().num_columns(); ++c) {
            (*out)[outer_row_.size() + static_cast<size_t>(c)] =
                inner_table_->column(c).GetNumeric(r);
          }
          ++st.out;
          *eof = false;
          return Status::OK();
        }
        matches_ = {};
      }
      bool outer_eof = false;
      RQP_RETURN_NOT_OK(outer_->Next(ctx, &outer_row_, &outer_eof));
      if (outer_eof) {
        *eof = true;
        return Status::OK();
      }
      ++st.left_in;
      if (!ctx->Charge(&CostLedger::index_probe)) {
        return Status::BudgetExhausted("index probe");
      }
      const double key = outer_row_[static_cast<size_t>(outer_key_slot_)];
      matches_ = index_->Lookup(static_cast<int64_t>(key));
      match_idx_ = 0;
    }
  }

 private:
  /// Point reads: the inner rows an index probe returns are random.
  bool PassesFilters(int64_t row) const {
    for (const Filter& f : filters_) {
      if (!f.Passes(inner_table_->column(f.col).GetNumeric(row))) return false;
    }
    return true;
  }

  const Catalog& catalog_;
  const Query& query_;
  const CostModel& cm_;
  const PlanNode& node_;
  std::unique_ptr<OperatorBase> outer_;
  const Table* inner_table_ = nullptr;
  const HashIndex* index_ = nullptr;
  int outer_key_slot_ = -1;
  std::vector<Filter> filters_;
  Row outer_row_;
  RowIdSpan matches_;
  int64_t match_idx_ = 0;
};

std::unique_ptr<OperatorBase> BuildOperator(const Catalog& catalog,
                                            const Query& query,
                                            const CostModel& cm,
                                            const PlanNode& node) {
  if (node.op == PlanOp::kSeqScan) {
    return std::make_unique<SeqScanOp>(catalog, query, node);
  }
  if (node.op == PlanOp::kIndexNLJoin) {
    auto outer = BuildOperator(catalog, query, cm, *node.left);
    return std::make_unique<IndexNLJoinOp>(catalog, query, cm, node,
                                           std::move(outer));
  }
  auto left = BuildOperator(catalog, query, cm, *node.left);
  auto right = BuildOperator(catalog, query, cm, *node.right);
  if (node.op == PlanOp::kHashJoin) {
    return std::make_unique<HashJoinOp>(catalog, query, cm, node,
                                        std::move(left), std::move(right));
  }
  if (node.op == PlanOp::kSortMergeJoin) {
    return std::make_unique<SortMergeJoinOp>(catalog, query, cm, node,
                                             std::move(left), std::move(right));
  }
  return std::make_unique<NLJoinOp>(catalog, query, cm, node, std::move(left),
                                    std::move(right));
}

}  // namespace

Executor::Executor(const Catalog* catalog, CostModel cost_model)
    : Executor(catalog, cost_model, Options{}) {}

Executor::Executor(const Catalog* catalog, CostModel cost_model,
                   Options options)
    : catalog_(catalog), cost_model_(cost_model), options_(options) {
  if (options_.num_threads == 0) {
    options_.num_threads = ThreadPool::DefaultThreads();
  }
}

bool Executor::ParseEngine(const std::string& name, Engine* out) {
  if (name == "tuple") {
    *out = Engine::kTuple;
    return true;
  }
  if (name == "batch") {
    *out = Engine::kBatch;
    return true;
  }
  return false;
}

Result<ExecutionResult> Executor::Run(const Plan& plan, const PlanNode& root,
                                      double budget, bool spill) const {
  if (FaultInjector::Armed()) return RunFaulted(plan, root, budget, spill);
  return RunOnce(plan, root, budget, spill, options_.engine,
                 /*allow_parallel=*/true);
}

Result<ExecutionResult> Executor::RunOnce(const Plan& plan,
                                          const PlanNode& root, double budget,
                                          bool spill, Engine engine,
                                          bool allow_parallel) const {
  if (engine == Engine::kBatch) {
    // Chunk parallelism only for full runs: a budgeted abort must land on
    // one well-defined tuple, and a spill's whole point is to time-limit
    // learning, so both stay single-threaded.
    const bool full = budget < 0.0 && !spill && allow_parallel;
    const int threads = full ? options_.num_threads : 1;
    // Sharding obeys the same full-run-only rule, and the serial
    // degradation rung (allow_parallel=false) collapses it too.
    const int shards = full ? options_.num_shards : 1;
    return RunBatchEngine(*catalog_, plan, root, cost_model_, budget, threads,
                          options_.use_zone_maps, options_.use_compression,
                          shards);
  }

  ExecutionResult result;
  result.node_stats.assign(static_cast<size_t>(plan.num_nodes()), NodeStats{});

  ExecContext ctx;
  ctx.budget = budget;
  ctx.params = &cost_model_.params();
  ctx.stats = &result.node_stats;

  auto op = BuildOperator(*catalog_, plan.query(), cost_model_, root);
  Status st = op->Open(&ctx);
  if (st.ok()) {
    Row row;
    bool eof = false;
    while (true) {
      st = op->Next(&ctx, &row, &eof);
      if (!st.ok() || eof) break;
      ++result.output_rows;
    }
  }
  const double cost_used = ctx.ledger.Total(*ctx.params);
  result.cost_used = std::min(cost_used, budget < 0.0 ? cost_used : budget);
  if (st.ok()) {
    result.completed = true;
  } else if (st.code() == StatusCode::kBudgetExhausted) {
    result.completed = false;
  } else {
    return st;
  }
  return result;
}

Result<ExecutionResult> Executor::RunFaulted(const Plan& plan,
                                             const PlanNode& root,
                                             double budget, bool spill) const {
  // All fault draws happen here, once per operator per attempt, *before*
  // the attempt runs — never inside engine internals or chunk workers —
  // so the sequence is identical for both engines at any thread count.
  std::vector<int> sites;
  CollectFaultSites(root, &sites);
  if (spill) sites.push_back(fault_site::kExecSpillRun);
  const bool batch = options_.engine == Engine::kBatch;
  if (batch) {
    sites.push_back(fault_site::kExecBatchPipeline);
    if (options_.num_threads > 1 && budget < 0.0 && !spill) {
      sites.push_back(fault_site::kExecMorselScan);
    }
  }

  ExecutionResult last;
  bool have_last = false;
  FaultedRunOutcome outcome = RunWithFaultRetries(
      FaultInjector::Current(), sites, budget,
      [&](double eff_budget, const FaultRunState& state) -> FaultAttempt {
        const Engine engine =
            state.degrade_engine ? Engine::kTuple : options_.engine;
        Result<ExecutionResult> r = RunOnce(plan, root, eff_budget, spill,
                                            engine, !state.degrade_serial);
        FaultAttempt a;
        if (!r.ok()) {
          a.status = r.status();
          return a;
        }
        last = r.MoveValue();
        have_last = true;
        a.completed = last.completed;
        a.cost = last.cost_used;
        return a;
      });
  if (!outcome.status.ok()) return outcome.status;

  ExecutionResult result;
  if (outcome.final_attempt_valid && have_last) {
    result = std::move(last);
  } else {
    // Retries exhausted the budget before any attempt survived: the run
    // charges the budget with nothing learned — exactly the shape of a
    // clean budget-exhausted execution.
    result.node_stats.assign(static_cast<size_t>(plan.num_nodes()),
                             NodeStats{});
  }
  result.completed = outcome.completed;
  result.cost_used = outcome.cost_used;
  // The surviving attempt may carry its own fault accounting (shard
  // straggler / lost-chunk recoveries fire inside RunOnce); merge rather
  // than overwrite so neither side's counters are dropped.
  RobustnessReport rep = outcome.report;
  rep.Merge(result.robustness);
  result.robustness = rep;
  return result;
}

Result<ExecutionResult> Executor::Execute(const Plan& plan,
                                          double budget) const {
  return Run(plan, plan.root(), budget, /*spill=*/false);
}

Result<ExecutionResult> Executor::ExecuteSpill(const Plan& plan,
                                               int spill_node_id,
                                               double budget) const {
  RQP_CHECK(spill_node_id >= 0 && spill_node_id < plan.num_nodes());
  return Run(plan, plan.node(spill_node_id), budget, /*spill=*/true);
}

}  // namespace robustqp
