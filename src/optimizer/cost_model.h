// The plan cost model. All operator cost formulas are strictly increasing
// in their input and output cardinalities, which (together with
// cardinalities being increasing in every predicate selectivity) gives the
// Plan Cost Monotonicity (PCM) property of Section 2.4, Eq. (5) — the
// load-bearing assumption behind every MSO guarantee in the paper.
//
// Two parameter flavours are provided: a PostgreSQL-like default and a
// "commercial" variant with different operator weightings. The paper's
// Section 1.1.3 observation — PlanBouquet's bound shifts across engines
// while SpillBound's does not — is reproduced by running both flavours
// (bench_platform_dependence).

#ifndef ROBUSTQP_OPTIMIZER_COST_MODEL_H_
#define ROBUSTQP_OPTIMIZER_COST_MODEL_H_

#include <algorithm>
#include <cmath>

namespace robustqp {

/// Per-tuple cost constants (arbitrary cost units, comparable across
/// operators within one flavour).
struct CostParams {
  /// Reading one stored tuple during a sequential scan (includes filter
  /// evaluation).
  double scan_tuple = 1.0;
  /// Inserting one tuple into a hash table (hash-join build).
  double hash_build_tuple = 2.0;
  /// Probing the hash table with one tuple.
  double hash_probe_tuple = 1.2;
  /// Materializing one inner tuple for a block nested-loop join.
  double nlj_materialize_tuple = 0.8;
  /// Comparing one (outer, inner) pair in a block nested-loop join.
  double nlj_pair = 0.02;
  /// Emitting one output tuple from any join.
  double join_output_tuple = 0.4;
  /// Probing a hash index with one outer tuple (index nested-loop join).
  double index_probe = 0.5;
  /// Fetching one index-matched stored tuple (pre-filter).
  double index_fetch = 0.25;
  /// Per tuple-comparison unit of sorting (multiplied by log2 n).
  double sort_tuple = 0.9;
  /// Advancing the merge cursor over one input tuple.
  double merge_tuple = 0.45;
};

/// Cost model: evaluates operator costs from input/output cardinalities.
class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams{}) : params_(params) {}

  /// PostgreSQL-flavoured defaults.
  static CostModel PostgresFlavour() { return CostModel(CostParams{}); }

  /// A commercial-engine-flavoured parameterization: relatively cheaper
  /// hashing, pricier nested-loop pairs and output handling. Shifts the
  /// plan diagram (and hence PlanBouquet's rho) without changing D.
  static CostModel CommercialFlavour() {
    CostParams p;
    p.scan_tuple = 1.0;
    p.hash_build_tuple = 1.1;
    p.hash_probe_tuple = 0.7;
    p.nlj_materialize_tuple = 1.0;
    p.nlj_pair = 0.05;
    p.join_output_tuple = 0.8;
    p.index_probe = 0.9;
    p.index_fetch = 0.4;
    p.sort_tuple = 0.5;
    p.merge_tuple = 0.3;
    return CostModel(p);
  }

  const CostParams& params() const { return params_; }

  /// Cost of scanning `raw_rows` stored tuples.
  double ScanCost(double raw_rows) const { return params_.scan_tuple * raw_rows; }

  /// Cost of a hash join given build/probe input and output cardinalities
  /// (excluding child costs).
  double HashJoinCost(double build_rows, double probe_rows,
                      double out_rows) const {
    return params_.hash_build_tuple * build_rows +
           params_.hash_probe_tuple * probe_rows +
           params_.join_output_tuple * out_rows;
  }

  /// Cost of a block nested-loop join given outer/inner input and output
  /// cardinalities (excluding child costs).
  double NLJoinCost(double outer_rows, double inner_rows,
                    double out_rows) const {
    return params_.nlj_materialize_tuple * inner_rows +
           params_.nlj_pair * outer_rows * inner_rows +
           params_.join_output_tuple * out_rows;
  }

  /// Cost of an index nested-loop join: one probe per outer tuple, one
  /// fetch per index match (`fetched_rows` is pre-filter), one output per
  /// surviving tuple. The probed table is never scanned.
  double IndexNLJoinCost(double outer_rows, double fetched_rows,
                         double out_rows) const {
    return params_.index_probe * outer_rows +
           params_.index_fetch * fetched_rows +
           params_.join_output_tuple * out_rows;
  }

  /// Cost of a sort-merge join: sort both inputs (n log2 n), merge, emit.
  double SortMergeJoinCost(double left_rows, double right_rows,
                           double out_rows) const {
    return SortMergeJoinCost(left_rows, right_rows, out_rows,
                             SortTerm(left_rows), SortTerm(right_rows));
  }

  /// SortMergeJoinCost with the inputs' SortTerm values precomputed (the
  /// optimizer DP evaluates them once per table subset); bit-identical to
  /// the overload above.
  double SortMergeJoinCost(double left_rows, double right_rows,
                           double out_rows, double left_sort,
                           double right_sort) const {
    return params_.sort_tuple * (left_sort + right_sort) +
           params_.merge_tuple * (left_rows + right_rows) +
           params_.join_output_tuple * out_rows;
  }

  /// n log2 n with the log floored at 1 (strictly increasing in n).
  static double SortTerm(double n) {
    return n * std::max(1.0, std::log2(std::max(n, 1.0)));
  }

 private:
  CostParams params_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_OPTIMIZER_COST_MODEL_H_
