// Tests for the ESS machinery: grid indexing, cost-surface monotonicity
// (PCM on the optimal cost surface), contour budgets, and the discrete
// frontier invariants that the algorithms' quantum-progress lemmas need.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "ess/ess.h"
#include "test_util.h"

namespace robustqp {
namespace {

using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

class EssTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeTinyCatalog().release();
    query_ = new Query(MakeStarQuery(2));
    Ess::Config config;
    config.points_per_dim = 24;
    config.min_sel = 1e-4;
    ess_ = Ess::Build(*catalog_, *query_, config).release();
  }

  static Catalog* catalog_;
  static Query* query_;
  static Ess* ess_;
};

Catalog* EssTest::catalog_ = nullptr;
Query* EssTest::query_ = nullptr;
Ess* EssTest::ess_ = nullptr;

TEST_F(EssTest, GridIndexRoundTrip) {
  EXPECT_EQ(ess_->num_locations(), 24 * 24);
  for (int64_t lin : {int64_t{0}, int64_t{5}, int64_t{24 * 24 - 1}, int64_t{317}}) {
    EXPECT_EQ(ess_->ToLinear(ess_->FromLinear(lin)), lin);
  }
}

TEST_F(EssTest, SelAtMatchesAxis) {
  const GridLoc loc = {3, 10};
  const EssPoint q = ess_->SelAt(loc);
  EXPECT_DOUBLE_EQ(q[0], ess_->axis().value(3));
  EXPECT_DOUBLE_EQ(q[1], ess_->axis().value(10));
}

TEST_F(EssTest, CminCmaxAtCorners) {
  EXPECT_DOUBLE_EQ(ess_->cmin(), ess_->OptimalCost(int64_t{0}));
  EXPECT_DOUBLE_EQ(ess_->cmax(), ess_->OptimalCost(ess_->num_locations() - 1));
  EXPECT_LT(ess_->cmin(), ess_->cmax());
}

TEST_F(EssTest, OptimalCostSurfaceIsMonotone) {
  // PCM on the OCS: every up-step in any dimension strictly increases the
  // optimal cost.
  for (int64_t lin = 0; lin < ess_->num_locations(); ++lin) {
    const GridLoc loc = ess_->FromLinear(lin);
    for (int d = 0; d < ess_->dims(); ++d) {
      if (loc[static_cast<size_t>(d)] + 1 >= ess_->points()) continue;
      GridLoc up = loc;
      ++up[static_cast<size_t>(d)];
      EXPECT_GT(ess_->OptimalCost(up), ess_->OptimalCost(loc));
    }
  }
}

TEST_F(EssTest, ContourBudgetsDoubleAndCapAtCmax) {
  ASSERT_GE(ess_->num_contours(), 2);
  EXPECT_DOUBLE_EQ(ess_->ContourCost(0), ess_->cmin());
  EXPECT_DOUBLE_EQ(ess_->ContourCost(ess_->num_contours() - 1), ess_->cmax());
  for (int i = 1; i + 1 < ess_->num_contours(); ++i) {
    EXPECT_NEAR(ess_->ContourCost(i) / ess_->ContourCost(i - 1), 2.0, 1e-9);
  }
  // The cap never exceeds a doubling step.
  const int m = ess_->num_contours();
  EXPECT_LE(ess_->ContourCost(m - 1) / ess_->ContourCost(m - 2), 2.0 + 1e-9);
}

TEST_F(EssTest, ContourOfIsConsistent) {
  for (int64_t lin = 0; lin < ess_->num_locations(); lin += 7) {
    const double c = ess_->OptimalCost(lin);
    const int i = ess_->ContourOf(c);
    EXPECT_LE(c, ess_->ContourCost(i) * (1 + 1e-9));
    if (i > 0) {
      EXPECT_GT(c, ess_->ContourCost(i - 1));
    }
  }
}

TEST_F(EssTest, FrontierMembersAreWithinBudgetAndMaximal) {
  for (int i = 0; i < ess_->num_contours(); ++i) {
    const double budget = ess_->ContourCost(i) * (1 + 1e-9);
    for (int64_t lin : ess_->FrontierLocations(i)) {
      EXPECT_LE(ess_->OptimalCost(lin), budget);
      const GridLoc loc = ess_->FromLinear(lin);
      for (int d = 0; d < ess_->dims(); ++d) {
        if (loc[static_cast<size_t>(d)] + 1 >= ess_->points()) continue;
        GridLoc up = loc;
        ++up[static_cast<size_t>(d)];
        EXPECT_GT(ess_->OptimalCost(up), budget)
            << "frontier point has an in-hypograph up-neighbour";
      }
    }
  }
}

TEST_F(EssTest, EveryHypographPointDominatedByFrontier) {
  // The covering property behind Lemmas 3.2/4.3: every grid location in a
  // contour's hypograph is dominated by some frontier location.
  for (int i = 0; i < ess_->num_contours(); i += 3) {
    const double budget = ess_->ContourCost(i) * (1 + 1e-9);
    const auto& frontier = ess_->FrontierLocations(i);
    for (int64_t lin = 0; lin < ess_->num_locations(); lin += 11) {
      if (ess_->OptimalCost(lin) > budget) continue;
      const GridLoc loc = ess_->FromLinear(lin);
      bool dominated = false;
      for (int64_t f : frontier) {
        const GridLoc floc = ess_->FromLinear(f);
        bool ok = true;
        for (int d = 0; d < ess_->dims(); ++d) {
          if (floc[static_cast<size_t>(d)] < loc[static_cast<size_t>(d)]) {
            ok = false;
            break;
          }
        }
        if (ok) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated) << "hypograph point " << lin << " not covered";
    }
  }
}

TEST_F(EssTest, SliceFrontierMatchesFullFrontierWhenUnconstrained) {
  const std::vector<int> free(static_cast<size_t>(ess_->dims()), -1);
  for (int i = 0; i < ess_->num_contours(); i += 4) {
    const std::vector<int64_t> slice = ess_->SliceFrontier(i, free);
    const std::vector<int64_t>& full = ess_->FrontierLocations(i);
    EXPECT_EQ(std::set<int64_t>(slice.begin(), slice.end()),
              std::set<int64_t>(full.begin(), full.end()));
  }
}

TEST_F(EssTest, SliceFrontierRespectsPinnedDims) {
  const int pin = ess_->points() / 2;
  const std::vector<int> fixed = {pin, -1};
  for (int i = 0; i < ess_->num_contours(); ++i) {
    for (int64_t lin : ess_->SliceFrontier(i, fixed)) {
      EXPECT_EQ(ess_->FromLinear(lin)[0], pin);
      EXPECT_LE(ess_->OptimalCost(lin), ess_->ContourCost(i) * (1 + 1e-9));
    }
  }
}

TEST_F(EssTest, SliceFrontierIn1DIsSingleton) {
  // A fully pinned-but-one slice frontier has at most one location: the
  // largest index within budget.
  const std::vector<int> fixed = {5, -1};
  for (int i = 0; i < ess_->num_contours(); ++i) {
    const std::vector<int64_t> slice = ess_->SliceFrontier(i, fixed);
    EXPECT_LE(slice.size(), 1u);
  }
}

TEST_F(EssTest, PospPlansOptimalSomewhere) {
  // Every pooled plan must be the optimal plan of at least one location.
  std::set<const Plan*> used;
  for (int64_t lin = 0; lin < ess_->num_locations(); ++lin) {
    used.insert(ess_->OptimalPlan(lin));
  }
  EXPECT_EQ(static_cast<int>(used.size()), ess_->pool().size());
  EXPECT_GE(ess_->pool().size(), 3) << "expect plan diversity across the ESS";
}

TEST_F(EssTest, OptimalPlanCostMatchesOptimizer) {
  for (int64_t lin = 0; lin < ess_->num_locations(); lin += 37) {
    const EssPoint q = ess_->SelAt(ess_->FromLinear(lin));
    EXPECT_DOUBLE_EQ(ess_->OptimalCost(lin),
                     ess_->optimizer().PlanCost(*ess_->OptimalPlan(lin), q));
  }
}

TEST_F(EssTest, OptimalPlanIsActuallyOptimalAmongPool) {
  // No pooled plan may beat the recorded optimum anywhere.
  for (int64_t lin = 0; lin < ess_->num_locations(); lin += 53) {
    const EssPoint q = ess_->SelAt(ess_->FromLinear(lin));
    const double opt = ess_->OptimalCost(lin);
    for (const Plan* p : ess_->pool().plans()) {
      EXPECT_GE(ess_->optimizer().PlanCost(*p, q), opt * (1 - 1e-9));
    }
  }
}

TEST_F(EssTest, ExhaustiveSurfaceIsOneOptimizeCallPerLocation) {
  // Every location must hold exactly what a direct optimizer call there
  // returns.
  EXPECT_EQ(ess_->build_stats().optimizer_calls, ess_->num_locations());
  for (int64_t lin = 0; lin < ess_->num_locations(); ++lin) {
    const EssPoint q = ess_->SelAt(ess_->FromLinear(lin));
    const std::unique_ptr<Plan> direct = ess_->optimizer().Optimize(q);
    ASSERT_EQ(ess_->OptimalPlan(lin)->signature(), direct->signature())
        << "lin=" << lin;
    ASSERT_EQ(ess_->OptimalCost(lin), ess_->optimizer().PlanCost(*direct, q))
        << "lin=" << lin;
  }
}

TEST(EssConfigTest, DefaultPointsPerDim) {
  EXPECT_EQ(DefaultPointsPerDim(1), 64);
  EXPECT_EQ(DefaultPointsPerDim(2), 40);
  EXPECT_GE(DefaultPointsPerDim(6), 4);
}

TEST(EssConfigTest, CostRatioRespected) {
  auto catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(2);
  Ess::Config config;
  config.points_per_dim = 10;
  config.contour_cost_ratio = 1.8;
  auto ess = Ess::Build(*catalog, q, config);
  for (int i = 1; i + 1 < ess->num_contours(); ++i) {
    EXPECT_NEAR(ess->ContourCost(i) / ess->ContourCost(i - 1), 1.8, 1e-9);
  }
}

TEST(EssConfigTest, TryBuildRejectsUnbuildableConfigs) {
  auto catalog = MakeTinyCatalog();
  const Query q2 = MakeStarQuery(2);
  const auto code = [&](const Query& q, const Ess::Config& config) {
    return Ess::TryBuild(*catalog, q, config).status().code();
  };
  Ess::Config base;
  base.points_per_dim = 6;
  base.num_threads = 1;
  ASSERT_EQ(code(q2, base), StatusCode::kOk);

  Ess::Config c = base;
  c.points_per_dim = 1;
  EXPECT_EQ(code(q2, c), StatusCode::kInvalidArgument);
  // 1025^2 > kMaxEssLocations = 2^20; 1024^2 is exactly the limit. Also a
  // points^D that overflows int64_t must be refused, not wrap around.
  c.points_per_dim = 1025;
  EXPECT_EQ(code(q2, c), StatusCode::kInvalidArgument);
  c.points_per_dim = std::numeric_limits<int>::max();
  EXPECT_EQ(code(MakeStarQuery(3), c), StatusCode::kInvalidArgument);

  for (double bad : {1.0, 0.5, 0.0, -2.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(bad);
    c = base;
    c.contour_cost_ratio = bad;
    EXPECT_EQ(code(q2, c), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace robustqp
