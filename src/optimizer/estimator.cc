#include "optimizer/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "storage/table.h"

namespace robustqp {

CardinalityEstimator::CardinalityEstimator(const Catalog* catalog,
                                           const Query* query)
    : query_(query) {
  RQP_CHECK(catalog != nullptr && query != nullptr);

  raw_rows_.reserve(query->tables().size());
  for (const auto& t : query->tables()) {
    raw_rows_.push_back(static_cast<double>(catalog->RowCount(t)));
  }

  filter_sel_.reserve(query->filters().size());
  for (const auto& f : query->filters()) {
    const ColumnStats* stats = catalog->FindColumnStats(f.table, f.column);
    RQP_CHECK(stats != nullptr);
    if (std::isnan(f.value)) {
      // A NaN literal satisfies no comparison; keep the floor so plan
      // costs stay finite.
      filter_sel_.push_back(1e-9);
      continue;
    }
    double sel = 1.0;
    // String filters estimate over the string histogram; the numeric
    // histogram for a string column describes rank space, which the
    // estimator cannot place a raw literal into without the dictionary.
    const double le = f.is_string
                          ? stats->str_histogram.EstimateLessEq(f.value_str)
                          : stats->histogram.EstimateLessEq(f.value);
    switch (f.op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
        sel = le;
        break;
      case CompareOp::kGt:
      case CompareOp::kGe:
        sel = 1.0 - le;
        break;
      case CompareOp::kEq:
        sel = stats->distinct_count > 0
                  ? 1.0 / static_cast<double>(stats->distinct_count)
                  : 0.0;
        break;
    }
    filter_sel_.push_back(std::clamp(sel, 1e-9, 1.0));
  }

  native_join_sel_.reserve(query->joins().size());
  for (const auto& jp : query->joins()) {
    const ColumnStats* ls = catalog->FindColumnStats(jp.left_table, jp.left_column);
    const ColumnStats* rs = catalog->FindColumnStats(jp.right_table, jp.right_column);
    RQP_CHECK(ls != nullptr && rs != nullptr);
    const double ndv = static_cast<double>(
        std::max<int64_t>(1, std::max(ls->distinct_count, rs->distinct_count)));
    native_join_sel_.push_back(std::clamp(1.0 / ndv, 1e-12, 1.0));
  }

  for (int f = 0; f < static_cast<int>(query->filters().size()); ++f) {
    filter_dim_.push_back(query->EppDimensionOfFilter(f));
  }
  for (int j = 0; j < query->num_joins(); ++j) {
    join_dim_.push_back(query->EppDimensionOfJoin(j));
  }
}

double CardinalityEstimator::FilteredRows(int table_idx,
                                          const std::vector<int>& filter_indices,
                                          const EssPoint& q) const {
  double rows = raw_rows_[static_cast<size_t>(table_idx)];
  for (int f : filter_indices) {
    rows *= FilterSelectivityAt(f, q);
  }
  return std::max(rows, 1.0);
}

EssPoint CardinalityEstimator::NativeEstimatePoint() const {
  EssPoint q(static_cast<size_t>(query_->num_epps()));
  for (int d = 0; d < query_->num_epps(); ++d) {
    const int j = query_->JoinOfEppDimension(d);
    q[static_cast<size_t>(d)] =
        j >= 0 ? native_join_sel_[static_cast<size_t>(j)]
               : filter_sel_[static_cast<size_t>(query_->FilterOfEppDimension(d))];
  }
  return q;
}

}  // namespace robustqp
