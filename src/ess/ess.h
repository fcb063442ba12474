// The Error-prone Selectivity Space (ESS) machinery of Section 2: a
// discretized D-dimensional grid of epp selectivities; for every grid
// location the optimal plan (via repeated optimizer calls with selectivity
// injection) and its cost — together the Optimal Cost Surface (OCS) and the
// POSP plan set; and the doubling iso-cost contours IC_1..IC_m.
//
// Discrete contour definition. We take IC_i to be the *frontier* of the
// CC_i hypograph: grid locations q with OptCost(q) <= CC_i such that every
// one-step dominating neighbour q + e_d lies outside (cost > CC_i) or off
// the grid. With this definition the paper's covering property holds
// exactly on the grid: any location inside the hypograph is dominated by a
// frontier location (walk upward until every up-step leaves), which is
// what Lemmas 3.2 / 4.3 / 5.3 need for guaranteed quantum progress.

#ifndef ROBUSTQP_ESS_ESS_H_
#define ROBUSTQP_ESS_ESS_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/log_grid.h"
#include "optimizer/optimizer.h"
#include "plan/plan_pool.h"

namespace robustqp {

/// A grid location: one axis index per ESS dimension.
using GridLoc = std::vector<int>;

/// Largest grid (points_per_dim^D) Ess::TryBuild accepts; well above the
/// suite's largest grid (32,768 locations).
constexpr int64_t kMaxEssLocations = int64_t{1} << 20;

/// Smallest grid whose sweep fans out on a thread pool (when the build has
/// more than one thread). A location costs 0.25-1.6 us at 1 thread with the
/// incremental DP, and starting and joining a pool of 4 about 35-50 us
/// (Release, 4 vCPUs), so pool start-up is not what sets the cutoff: it
/// keeps the pool off the request-sized grids a serving process builds
/// (every context_churn and engine_mix grid is smaller), whose requests
/// already run side by side on the cores.
constexpr int64_t kSweepFanOutLocations = int64_t{1} << 15;

/// The built ESS for one query: optimal-plan / optimal-cost surfaces over
/// the grid plus contour structure. Immutable after Build.
class Ess {
 public:
  struct Config {
    /// Lower end of every selectivity axis (upper end is always 1.0).
    double min_sel = 1e-5;
    /// Grid points per dimension; 0 picks a default based on D that keeps
    /// the total grid size laptop-friendly.
    int points_per_dim = 0;
    /// Cost ratio between consecutive contours (the paper uses 2; its
    /// Section 4.2 remark explores 1.8 — see bench_ablation_costratio).
    double contour_cost_ratio = 2.0;
    /// Cost model flavour for the underlying optimizer.
    CostModel cost_model = CostModel::PostgresFlavour();
    /// Worker threads for the build's optimizer sweep; 0 = hardware
    /// concurrency. Surfaces are identical at any value.
    int num_threads = 0;
  };

  /// Construction statistics of the surface build.
  struct BuildStats {
    /// Optimizer invocations consumed by the build: one per grid location
    /// (a transient optimizer.dp fault fails before the DP runs). A call
    /// counts once however many DP cells it recomputed; most sweep calls
    /// reuse the previous location's DP.
    int64_t optimizer_calls = 0;
  };

  /// Builds the surface by one optimizer call per grid location (the
  /// sweep of Section 2.2). Aborts on build failure: an invalid config, or
  /// a fault from an armed FaultInjector.
  static std::unique_ptr<Ess> Build(const Catalog& catalog, const Query& query,
                                    const Config& config);

  /// Build variant that surfaces failures as a Status instead of aborting:
  /// InvalidArgument for fewer than 2 points per dimension, a grid past
  /// kMaxEssLocations, or a contour_cost_ratio that is not finite and > 1
  /// (checked before any allocation); injected permanent optimizer faults
  /// and exhausted transient retries otherwise.
  static Result<std::unique_ptr<Ess>> TryBuild(const Catalog& catalog,
                                               const Query& query,
                                               const Config& config);

  const Query& query() const { return *query_; }
  const Optimizer& optimizer() const { return *optimizer_; }
  const PlanPool& pool() const { return pool_; }
  const Config& config() const { return config_; }
  const BuildStats& build_stats() const { return build_stats_; }

  int dims() const { return dims_; }
  int points() const { return axis_.points(); }
  const LogAxis& axis() const { return axis_; }
  int64_t num_locations() const { return static_cast<int64_t>(cost_.size()); }

  int64_t ToLinear(const GridLoc& loc) const;
  GridLoc FromLinear(int64_t idx) const;
  /// Selectivity values at a grid location.
  EssPoint SelAt(const GridLoc& loc) const;

  double OptimalCost(int64_t lin) const { return cost_[static_cast<size_t>(lin)]; }
  const Plan* OptimalPlan(int64_t lin) const { return plan_[static_cast<size_t>(lin)]; }
  double OptimalCost(const GridLoc& loc) const { return OptimalCost(ToLinear(loc)); }
  const Plan* OptimalPlan(const GridLoc& loc) const { return plan_[static_cast<size_t>(ToLinear(loc))]; }

  /// Minimum (origin) and maximum (terminus) optimal costs.
  double cmin() const { return cmin_; }
  double cmax() const { return cmax_; }

  /// Number of iso-cost contours m.
  int num_contours() const { return static_cast<int>(contour_costs_.size()); }
  /// CC_i for 0-based contour index i (CC_0 = cmin, CC_{m-1} = cmax).
  double ContourCost(int i) const { return contour_costs_[static_cast<size_t>(i)]; }
  /// Smallest contour index whose cost budget covers `cost`.
  int ContourOf(double cost) const;

  /// Frontier locations of contour i over the full grid (precomputed).
  const std::vector<int64_t>& FrontierLocations(int i) const {
    return frontiers_[static_cast<size_t>(i)];
  }

  /// Distinct optimal plans on contour i's frontier — the contour plan set
  /// PL_i whose union over i forms the plan bouquet.
  std::vector<const Plan*> ContourPlans(int i) const;

  /// Frontier of contour i restricted to the slice where dimension d is
  /// pinned to fixed[d] (entries -1 are free): locations q in the slice
  /// with OptCost(q) <= CC_i whose every up-step *within a free dimension*
  /// leaves the hypograph (or the grid). This is the "effective search
  /// space" of Section 4.2 used once some selectivities are fully learnt.
  std::vector<int64_t> SliceFrontier(int i, const std::vector<int>& fixed) const;

  /// Serializes the built surface (grid costs + POSP plan structures) so
  /// canned queries can skip the optimizer sweep on later runs — the
  /// paper's Section 7 offline-enumeration deployment mode. The format is
  /// a versioned plain-text stream.
  Status Save(std::ostream& os) const;

  /// Rebuilds an Ess from a stream produced by Save. `catalog` and
  /// `query` must be the same (by name/dimensionality) as at save time;
  /// contours and frontiers are re-derived from the stored costs.
  static Result<std::unique_ptr<Ess>> Load(std::istream& is,
                                           const Catalog& catalog,
                                           const Query& query);

 private:
  Ess() = default;

  /// Derives strides; call after dims_/axis_ are set.
  void InitStrides();
  /// Derives cmin/cmax, contour budgets, and frontier sets from the
  /// filled cost_ surface.
  void ComputeContoursAndFrontiers();

  const Query* query_ = nullptr;
  std::unique_ptr<Optimizer> optimizer_;
  PlanPool pool_;
  Config config_;
  int dims_ = 0;
  LogAxis axis_{0.5, 2};
  std::vector<int64_t> strides_;
  std::vector<double> cost_;
  std::vector<const Plan*> plan_;
  double cmin_ = 0.0;
  double cmax_ = 0.0;
  std::vector<double> contour_costs_;
  std::vector<std::vector<int64_t>> frontiers_;
  BuildStats build_stats_;
};

/// Default points-per-dimension for a D-dimensional ESS.
int DefaultPointsPerDim(int dims);

}  // namespace robustqp

#endif  // ROBUSTQP_ESS_ESS_H_
