// Contour-alignment machinery (Sections 3.3 and 5): a cache around the
// optimizer's constrained "least-cost plan that spills on epp j" search,
// and the contour-alignment analysis behind the paper's Table 2.

#ifndef ROBUSTQP_CORE_ALIGNMENT_H_
#define ROBUSTQP_CORE_ALIGNMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/shared_memo.h"
#include "ess/ess.h"
#include "plan/plan.h"

namespace robustqp {

/// Memoizing wrapper over Optimizer::OptimizeConstrainedSpill, keyed by
/// (grid location, spill dimension, unlearned-set). Get is thread-safe:
/// entries are pure functions of (Ess, key), kept in a SharedMemo. A
/// replacement plan already in the ESS's POSP pool *is* that POSP plan;
/// any other is owned here and named "R" + the 8-hex FNV-1a hash of its
/// signature, so names never depend on lookup order or thread schedule.
class ConstrainedPlanCache {
 public:
  explicit ConstrainedPlanCache(const Ess* ess) : ess_(ess) {}

  struct Entry {
    /// Cost of the cheapest plan spilling on the dimension at the
    /// location; infinity if none exists.
    double cost = 0.0;
    const Plan* plan = nullptr;
  };

  /// Cheapest plan at grid location `lin` whose spill dimension (w.r.t.
  /// `unlearned`) is `dim`.
  const Entry& Get(int64_t lin, int dim,
                   const std::vector<bool>& unlearned) const;

  /// Replacement plans owned here (those outside the POSP pool).
  int num_plans() const { return static_cast<int>(plans_.size()); }

 private:
  /// The POSP plan with `plan`'s signature, else the owned replacement.
  const Plan* Canonical(std::unique_ptr<Plan> plan) const;

  const Ess* ess_;
  SharedMemo<std::string, std::unique_ptr<const Plan>> plans_;  // by signature
  SharedMemo<std::tuple<int64_t, int, uint64_t>, Entry> cache_;
};

/// Alignment diagnostics for one contour over the full (nothing-learnt)
/// ESS grid.
struct ContourAlignmentInfo {
  /// Contour is natively aligned along at least one dimension, i.e. some
  /// dimension's extreme location has an optimal plan spilling on it.
  bool natively_aligned = false;
  /// Minimum over dimensions of the replacement penalty needed to align
  /// the contour (1.0 when natively aligned).
  double min_induce_penalty = 1.0;
};

/// Per-contour alignment analysis (drives Table 2). `max_candidates`
/// caps how many extreme locations are probed per dimension.
std::vector<ContourAlignmentInfo> AnalyzeContourAlignment(
    const Ess& ess, ConstrainedPlanCache* cache, int max_candidates = 8);

}  // namespace robustqp

#endif  // ROBUSTQP_CORE_ALIGNMENT_H_
