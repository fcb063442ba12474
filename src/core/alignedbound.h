// AlignedBound (Section 5): SpillBound's contour-wise discovery enhanced
// with predicate-set alignment. At each contour the remaining epps are
// partitioned into predicate sets, each with a leader dimension; PSA is
// exploited natively where it holds and induced (via minimum-penalty plan
// replacement, using the constrained-optimizer search) where it does not.
// A contour then needs only one execution per part — fewer than one per
// epp — driving the MSO into the platform-independent range
// [2D + 2, D^2 + 3D].

#ifndef ROBUSTQP_CORE_ALIGNEDBOUND_H_
#define ROBUSTQP_CORE_ALIGNEDBOUND_H_

#include <utility>
#include <vector>

#include "common/shared_memo.h"
#include "core/alignment.h"
#include "core/discovery.h"
#include "core/oracle.h"
#include "core/spillbound.h"
#include "ess/ess.h"

namespace robustqp {

/// The AlignedBound algorithm (Algorithm 2). One instance serves any
/// number of oracle runs, concurrently; per-(contour, learnt-slice)
/// partition choices and constrained-plan searches are memoized in shared
/// memos.
class AlignedBound : public DiscoveryAlgorithm {
 public:
  struct Options {
    /// Cap on the number of slice locations probed when inducing PSA for
    /// one (part, leader) pair — a pragmatic bound on constrained-
    /// optimizer calls; the chosen pair stays sound regardless.
    int max_induce_candidates = 6;
    /// Budget multiplier for delta-bounded cost-model error (Section 7);
    /// see SpillBound::Options::budget_inflation.
    double budget_inflation = 1.0;
  };

  AlignedBound(const Ess* ess, Options options);
  explicit AlignedBound(const Ess* ess);

  /// Runs discovery against `oracle` until the query completes. The
  /// result's max_replacement_penalty carries the paper's Table 4
  /// statistic for the partitions this run executed.
  DiscoveryResult RunImpl(ExecutionOracle* oracle) const override;

  std::string name() const override { return "AlignedBound"; }

  /// The guaranteed (upper) end of the instance's MSO range: alignment
  /// only removes executions relative to SpillBound, so SpillBound's
  /// ratio-generalized bound applies (Theorem 4.5 via Theorem 5.1).
  double MsoGuarantee() const override {
    return SpillBound::MsoGuaranteeForRatio(ess_->dims(),
                                            ess_->config().contour_cost_ratio);
  }

  /// The guarantee range [2D+2, D^2+3D] (Theorems 5.1 / 4.5).
  static std::pair<double, double> MsoGuaranteeRange(int num_epps) {
    const double d = num_epps;
    return {2.0 * d + 2.0, d * d + 3.0 * d};
  }

 private:
  /// One part of the chosen partition: spill `plan` on `leader` with
  /// `budget` (= Cost(plan, anchor location)).
  struct PartExec {
    int leader = -1;
    uint64_t members = 0;  // bitmask over ESS dims
    const Plan* plan = nullptr;
    double budget = 0.0;
    double penalty = 1.0;
    bool vacuous = false;  // no contour location spills on any member
  };

  struct ContourChoice {
    std::vector<PartExec> parts;
    double total_penalty = 0.0;
  };

  /// The minimum-penalty partition for (contour, learnt-slice); memoized.
  const ContourChoice& GetChoice(int contour,
                                 const std::vector<int>& fixed) const;
  ContourChoice ComputeChoice(int contour, const std::vector<int>& fixed) const;

  const Ess* ess_;
  Options options_;
  SpillBound fallback_;  // supplies the terminal 1D phase
  ConstrainedPlanCache constrained_;
  SharedMemo<std::pair<int, std::vector<int>>, ContourChoice> choice_cache_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_CORE_ALIGNEDBOUND_H_
