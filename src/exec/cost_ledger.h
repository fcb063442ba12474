// Integer cost-event ledger shared by the tuple and batch execution
// engines.
//
// The tuple engine charges one floating-point amount per event
// (scan tuple, probe, output, ...). A batch engine cannot reproduce that
// running double sum bit-for-bit if it adds the same amounts in a
// different order, so both engines instead *count events* per cost-model
// constant and derive the spent budget through one canonical reduction,
// `CostLedger::Total`: a fixed-order dot product of the event counts with
// the `CostParams` constants (in struct declaration order) plus a single
// `extra` accumulator for the only non-unit charge in the engine (the
// super-linear remainder of the sort term, accumulated in blocking-phase
// order, which is identical in both engines).
//
// Because `Total` depends only on the final counts (not on the order
// events were counted in), a batch engine may count a whole morsel at
// once and still land on exactly the same double as the tuple engine.
// Every event count is non-negative and every `CostParams` constant is
// non-negative, so `Total` is non-decreasing event by event; "budget
// exhausted" is therefore well-defined as the first event (in tuple
// order) whose inclusion makes `Total` exceed the budget, and both
// engines agree on that boundary bit-for-bit.
//
// Counts are `EventCount`s: int64 counters that saturate at INT64_MAX
// instead of wrapping (with a debug assert), so a runaway chaos sweep can
// never silently overflow into a negative count and make `Total` — and
// with it every budget decision — go backwards.

#ifndef ROBUSTQP_EXEC_COST_LEDGER_H_
#define ROBUSTQP_EXEC_COST_LEDGER_H_

#include <cassert>
#include <cstdint>
#include <limits>

#include "optimizer/cost_model.h"

namespace robustqp {

/// A non-negative saturating event counter. Behaves like an int64_t for
/// reading and bulk adds, but clamps at INT64_MAX instead of wrapping
/// (asserting in debug builds, where an overflow is always a bug).
class EventCount {
 public:
  constexpr EventCount() = default;
  constexpr EventCount(int64_t v) : v_(v) {}  // NOLINT(runtime/explicit)

  constexpr operator int64_t() const { return v_; }  // NOLINT

  EventCount& operator+=(int64_t delta) {
    assert(delta >= 0 && "event counts only grow");
    assert(v_ <= std::numeric_limits<int64_t>::max() - delta &&
           "event count overflow");
    if (delta > std::numeric_limits<int64_t>::max() - v_) {
      v_ = std::numeric_limits<int64_t>::max();
    } else {
      v_ += delta;
    }
    return *this;
  }

  EventCount& operator++() { return *this += 1; }

 private:
  int64_t v_ = 0;
};

/// One counter per per-tuple cost constant, in `CostParams` declaration
/// order (the order `Total` reduces them in).
struct CostLedger {
  EventCount scan_tuple;
  EventCount hash_build_tuple;
  EventCount hash_probe_tuple;
  EventCount nlj_materialize_tuple;
  EventCount nlj_pair;
  EventCount join_output_tuple;
  EventCount index_probe;
  EventCount index_fetch;
  EventCount sort_tuple;
  EventCount merge_tuple;
  /// Non-unit charges: the sort remainder `sort_tuple * (SortTerm(n) - n)`
  /// charged once per sorted input, accumulated in pipeline order.
  double extra = 0.0;

  /// Canonical reduction; the ONLY way either engine turns the ledger
  /// into spent cost units. Fixed evaluation order — do not reorder.
  double Total(const CostParams& p) const {
    double s = static_cast<double>(scan_tuple) * p.scan_tuple;
    s += static_cast<double>(hash_build_tuple) * p.hash_build_tuple;
    s += static_cast<double>(hash_probe_tuple) * p.hash_probe_tuple;
    s += static_cast<double>(nlj_materialize_tuple) * p.nlj_materialize_tuple;
    s += static_cast<double>(nlj_pair) * p.nlj_pair;
    s += static_cast<double>(join_output_tuple) * p.join_output_tuple;
    s += static_cast<double>(index_probe) * p.index_probe;
    s += static_cast<double>(index_fetch) * p.index_fetch;
    s += static_cast<double>(sort_tuple) * p.sort_tuple;
    s += static_cast<double>(merge_tuple) * p.merge_tuple;
    s += extra;
    return s;
  }

  /// Merges another ledger's counts into this one (the chunk driver
  /// counts each chunk locally and merges in chunk order).
  void Merge(const CostLedger& o) {
    scan_tuple += o.scan_tuple;
    hash_build_tuple += o.hash_build_tuple;
    hash_probe_tuple += o.hash_probe_tuple;
    nlj_materialize_tuple += o.nlj_materialize_tuple;
    nlj_pair += o.nlj_pair;
    join_output_tuple += o.join_output_tuple;
    index_probe += o.index_probe;
    index_fetch += o.index_fetch;
    sort_tuple += o.sort_tuple;
    merge_tuple += o.merge_tuple;
    extra += o.extra;
  }
};

}  // namespace robustqp

#endif  // ROBUSTQP_EXEC_COST_LEDGER_H_
