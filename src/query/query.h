// Query representation: select-project-join (SPJ) queries over the catalog,
// expressed as a join graph plus base-table filter predicates, with a
// designated subset of join predicates marked error-prone (the "epps" of
// the paper). The number of epps, D, is the sole parameter of SpillBound's
// MSO guarantee D^2 + 3D.

#ifndef ROBUSTQP_QUERY_QUERY_H_
#define ROBUSTQP_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace robustqp {

class Catalog;

/// Comparison operator for filter predicates.
enum class CompareOp {
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
};

const char* CompareOpToString(CompareOp op);

/// A base-table filter `table.column OP value`. String-column filters set
/// `is_string` and carry the literal in `value_str`; `value` is unused
/// until filter resolution translates the predicate into the column's
/// lexicographic rank space (see storage/encoding.h), after which the
/// scan kernels evaluate it like any numeric comparison.
struct FilterPredicate {
  std::string table;
  std::string column;
  CompareOp op = CompareOp::kLt;
  double value = 0.0;
  bool is_string = false;
  std::string value_str{};
};

/// An equi-join predicate `left.column = right.column` — one edge of the
/// join graph.
struct JoinPredicate {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;

  /// Short display label, e.g. "CS~DD" for catalog_sales x date_dim.
  std::string label;
};

/// Reference to an error-prone predicate: either a join edge or a base
/// filter (the paper's example query EQ treats the retail-price filter as
/// potentially error-prone alongside the joins).
struct EppRef {
  enum class Kind { kJoin, kFilter };

  EppRef() = default;
  EppRef(Kind k, int i) : kind(k), index(i) {}
  static EppRef Join(int join_idx) { return EppRef(Kind::kJoin, join_idx); }
  static EppRef Filter(int filter_idx) {
    return EppRef(Kind::kFilter, filter_idx);
  }

  Kind kind = Kind::kJoin;
  /// Index into Query::joins() or Query::filters(), per kind.
  int index = 0;
};

/// An SPJ query: tables, join edges, filters, and the error-prone
/// predicates. The epp order defines the ESS dimension order: dimension j
/// corresponds to epps()[j].
class Query {
 public:
  Query() = default;
  /// Convenience constructor for the common all-join-epps case:
  /// `epp_joins` are indices into `joins`.
  Query(std::string name, std::vector<std::string> tables,
        std::vector<JoinPredicate> joins, std::vector<FilterPredicate> filters,
        std::vector<int> epp_joins);
  /// General constructor with mixed join/filter epps.
  Query(std::string name, std::vector<std::string> tables,
        std::vector<JoinPredicate> joins, std::vector<FilterPredicate> filters,
        std::vector<EppRef> epps);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& tables() const { return tables_; }
  const std::vector<JoinPredicate>& joins() const { return joins_; }
  const std::vector<FilterPredicate>& filters() const { return filters_; }
  const std::vector<EppRef>& epps() const { return epps_; }

  int num_tables() const { return static_cast<int>(tables_.size()); }
  int num_joins() const { return static_cast<int>(joins_.size()); }

  /// Number of error-prone predicates (the ESS dimensionality D).
  int num_epps() const { return static_cast<int>(epps_.size()); }

  /// Index of the named table within tables(), or -1.
  int TableIndex(const std::string& table) const;

  /// ESS dimension of join predicate `join_idx`, or -1 if it is not an epp.
  int EppDimensionOfJoin(int join_idx) const;

  /// ESS dimension of filter predicate `filter_idx`, or -1.
  int EppDimensionOfFilter(int filter_idx) const;

  /// Join-predicate index of ESS dimension `dim`, or -1 if that dimension
  /// is a filter epp.
  int JoinOfEppDimension(int dim) const {
    const EppRef& e = epps_[static_cast<size_t>(dim)];
    return e.kind == EppRef::Kind::kJoin ? e.index : -1;
  }

  /// Filter-predicate index of ESS dimension `dim`, or -1 if that
  /// dimension is a join epp.
  int FilterOfEppDimension(int dim) const {
    const EppRef& e = epps_[static_cast<size_t>(dim)];
    return e.kind == EppRef::Kind::kFilter ? e.index : -1;
  }

  /// Display label for ESS dimension `dim`.
  std::string EppLabel(int dim) const;

  /// Table-id bitmask with bits for `left_table` and `right_table` of join
  /// `join_idx`.
  uint64_t JoinTableMask(int join_idx) const;

  /// Verifies structural sanity: tables distinct and present in `catalog`,
  /// join/filter columns resolvable, the join graph connected, and epp
  /// indices valid and distinct.
  Status Validate(const Catalog& catalog) const;

 private:
  std::string name_;
  std::vector<std::string> tables_;
  std::vector<JoinPredicate> joins_;
  std::vector<FilterPredicate> filters_;
  std::vector<EppRef> epps_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_QUERY_QUERY_H_
