// PlanBouquet (Dutt & Haritsa, reimplemented as the paper's comparison
// baseline): contour-wise sequenced cost-limited executions of the POSP
// plans on each iso-cost contour, with the anorexic-reduction transform
// (lambda-threshold plan-set set-cover) applied per contour. MSO
// guarantee: 4 * (1 + lambda) * rho_RED, a *behavioural* bound that
// depends on the optimizer's plan diagram.

#ifndef ROBUSTQP_CORE_PLANBOUQUET_H_
#define ROBUSTQP_CORE_PLANBOUQUET_H_

#include <vector>

#include "core/discovery.h"
#include "core/oracle.h"
#include "ess/ess.h"

namespace robustqp {

class PlanDiagram;

/// The PlanBouquet algorithm. Contour plan sets (optionally anorexically
/// reduced) are computed once at construction and never change after.
class PlanBouquet : public DiscoveryAlgorithm {
 public:
  struct Options {
    /// Anorexic-reduction cost-degradation threshold; the paper's default
    /// is 0.2. Set `anorexic` false to execute the full POSP contour sets.
    double lambda = 0.2;
    bool anorexic = true;
    /// Budget multiplier for delta-bounded cost-model error (Section 7);
    /// see SpillBound::Options::budget_inflation.
    double budget_inflation = 1.0;
  };

  PlanBouquet(const Ess* ess, Options options);
  explicit PlanBouquet(const Ess* ess);

  /// Draws the contour plan sets from an anorexically *reduced plan
  /// diagram* (the setup of the paper's Section 6.2: global reduction a
  /// la [10], then contour extraction). `diagram` must be over the same
  /// Ess and already reduced with the same lambda as `options.lambda`.
  PlanBouquet(const Ess* ess, const PlanDiagram& diagram, Options options);

  /// Runs discovery against `oracle` until the query completes.
  DiscoveryResult RunImpl(ExecutionOracle* oracle) const override;

  std::string name() const override { return "PlanBouquet"; }

  /// Maximum contour plan-set cardinality after reduction — the rho that
  /// enters the MSO guarantee.
  int rho() const { return rho_; }
  /// Maximum cardinality before reduction.
  int rho_original() const { return rho_original_; }

  /// The behavioural MSO guarantee 4 (1 + lambda) rho.
  double MsoGuarantee() const override {
    return 4.0 * (1.0 + effective_lambda()) * rho_;
  }

  double effective_lambda() const {
    return options_.anorexic ? options_.lambda : 0.0;
  }

  /// The (possibly reduced) plan set of contour i, in execution order.
  const std::vector<const Plan*>& ContourSet(int i) const {
    return contour_sets_[static_cast<size_t>(i)];
  }

  /// Total number of distinct plans across all contour sets — the size of
  /// the plan bouquet.
  int BouquetSize() const;

 private:
  const Ess* ess_;
  Options options_;
  std::vector<std::vector<const Plan*>> contour_sets_;
  int rho_ = 0;
  int rho_original_ = 0;
};

}  // namespace robustqp

#endif  // ROBUSTQP_CORE_PLANBOUQUET_H_
