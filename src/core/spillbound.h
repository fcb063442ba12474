// SpillBound (Section 4): contour-wise selectivity discovery with
// half-space pruning via spill-mode execution and contour-density-
// independent progress. MSO guarantee: D^2 + 3D, a function of the query
// alone (its number of error-prone predicates), independent of the
// optimizer and platform.

#ifndef ROBUSTQP_CORE_SPILLBOUND_H_
#define ROBUSTQP_CORE_SPILLBOUND_H_

#include <utility>
#include <vector>

#include "common/shared_memo.h"
#include "core/discovery.h"
#include "core/oracle.h"
#include "ess/ess.h"

namespace robustqp {

/// The SpillBound algorithm (Algorithm 1 of the paper), including the
/// 2D special case and the terminal 1D PlanBouquet phase. One instance
/// serves any number of oracle runs, concurrently; per-(contour,
/// learnt-slice) plan choices are memoized in shared memos, which makes
/// exhaustive MSO sweeps and repeated service requests cheap.
class SpillBound : public DiscoveryAlgorithm {
 public:
  struct Options {
    /// Multiplies every execution budget. Deployments with a known
    /// delta-bounded cost model set this to (1 + delta) so that budgeted
    /// executions still complete despite cost-model error; the MSO
    /// guarantee then inflates to (D^2 + 3D)(1 + delta)^2 (Section 7).
    double budget_inflation = 1.0;
  };

  SpillBound(const Ess* ess, Options options)
      : ess_(ess), options_(options) {}
  explicit SpillBound(const Ess* ess) : SpillBound(ess, Options{}) {}

  /// Runs discovery against `oracle` until the query completes.
  DiscoveryResult RunImpl(ExecutionOracle* oracle) const override;

  std::string name() const override { return "SpillBound"; }

  /// The instance guarantee under the ESS's configured inter-contour
  /// cost ratio — D^2 + 3D for the paper's default doubling.
  double MsoGuarantee() const override {
    return MsoGuaranteeForRatio(ess_->dims(), ess_->config().contour_cost_ratio);
  }

  /// The platform-independent MSO guarantee (Theorem 4.5); D = 1 queries
  /// degenerate to 1D PlanBouquet whose guarantee is 4.
  static double MsoGuarantee(int num_epps) {
    if (num_epps <= 1) return 4.0;
    const double d = num_epps;
    return d * d + 3.0 * d;
  }

  /// The guarantee generalized to an inter-contour cost ratio r (the
  /// Section 4.2 remark: doubling is not ideal — e.g. r = 1.8 gives 9.9
  /// instead of 10 in 2D): r * (D * r / (r-1) + D (D-1) / 2), and the 1D
  /// PlanBouquet value r^2 / (r-1).
  static double MsoGuaranteeForRatio(int num_epps, double ratio) {
    const double r = ratio;
    if (num_epps <= 1) return r * r / (r - 1.0);
    const double d = num_epps;
    return r * (d * r / (r - 1.0) + d * (d - 1.0) / 2.0);
  }

  const Ess& ess() const { return *ess_; }

 private:
  friend class AlignedBound;

  /// Chosen (location, plan) for spilling on one dimension at a contour.
  struct SpillChoice {
    bool valid = false;
    int64_t loc = -1;
    int coord = -1;  // the location's grid index along the dimension
    const Plan* plan = nullptr;
  };

  /// Per-dimension P^j_max choices for (contour, learnt-slice); memoized.
  const std::vector<SpillChoice>& GetSpillChoices(
      int contour, const std::vector<int>& fixed) const;

  /// The single plan executed per contour in the terminal 1D phase: the
  /// optimal plan at the slice frontier's top location. Memoized.
  const SpillChoice& Get1DChoice(int contour,
                                 const std::vector<int>& fixed) const;

  /// Runs the terminal 1D PlanBouquet phase starting at `contour`;
  /// appends to `result` and returns when the query completes.
  void RunPlanBouquet1D(ExecutionOracle* oracle, int contour,
                        const std::vector<int>& fixed,
                        const std::vector<double>& learned,
                        DiscoveryResult* result) const;

  std::vector<double> QrunSnapshot(const std::vector<double>& learned,
                                   const std::vector<int>& floor) const;

  using SliceKey = std::pair<int, std::vector<int>>;  // (contour, fixed)

  const Ess* ess_;
  Options options_;
  SharedMemo<SliceKey, std::vector<SpillChoice>> choice_cache_;
  SharedMemo<SliceKey, SpillChoice> choice1d_cache_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_CORE_SPILLBOUND_H_
