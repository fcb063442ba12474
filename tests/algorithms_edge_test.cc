// Edge-case and invariant tests for the discovery algorithms beyond the
// headline theorems: boundary true locations, platform independence of
// the bound, non-doubling contour ratios, determinism, per-step budget
// accounting, contour coverage invariants, and alignment-analysis sanity.

#include <gtest/gtest.h>

#include <memory>

#include "core/alignedbound.h"
#include "core/alignment.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "harness/evaluator.h"
#include "test_util.h"

namespace robustqp {
namespace {

using testing_util::MakeBranchQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

struct Bundle {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
  std::unique_ptr<Ess> ess;
};

Bundle MakeBundle(int num_epps, int points, double ratio = 2.0,
                  CostModel cm = CostModel::PostgresFlavour()) {
  Bundle b;
  b.catalog = MakeTinyCatalog();
  b.query = std::make_unique<Query>(MakeStarQuery(num_epps));
  Ess::Config config;
  config.points_per_dim = points;
  config.min_sel = 1e-4;
  config.contour_cost_ratio = ratio;
  config.cost_model = cm;
  b.ess = Ess::Build(*b.catalog, *b.query, config);
  return b;
}

TEST(AlgorithmEdgeTest, OriginLocationIsCheapForAll) {
  Bundle b = MakeBundle(2, 16);
  const GridLoc origin = {0, 0};
  for (int algo = 0; algo < 3; ++algo) {
    SimulatedOracle oracle(b.ess.get(), origin);
    DiscoveryResult r;
    switch (algo) {
      case 0: {
        PlanBouquet pb(b.ess.get());
        r = pb.Run(&oracle);
        break;
      }
      case 1: {
        SpillBound sb(b.ess.get());
        r = sb.Run(&oracle);
        break;
      }
      default: {
        AlignedBound ab(b.ess.get());
        r = ab.Run(&oracle);
        break;
      }
    }
    ASSERT_TRUE(r.completed) << "algo " << algo;
    EXPECT_EQ(r.final_contour, 0) << "algo " << algo;
    // At the origin, total cost is at most a handful of C_min budgets.
    EXPECT_LE(r.total_cost / b.ess->OptimalCost(origin), 4.0) << "algo " << algo;
  }
}

TEST(AlgorithmEdgeTest, TerminusLocationCompletes) {
  Bundle b = MakeBundle(2, 16);
  const GridLoc terminus = {15, 15};
  SpillBound sb(b.ess.get());
  SimulatedOracle oracle(b.ess.get(), terminus);
  const DiscoveryResult r = sb.Run(&oracle);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.final_contour, b.ess->num_contours() - 1);
  EXPECT_LE(r.total_cost / b.ess->OptimalCost(terminus),
            SpillBound::MsoGuarantee(2) * (1 + 1e-6));
}

TEST(AlgorithmEdgeTest, BoundHoldsOnCommercialFlavour) {
  // Platform independence: the same D^2+3D bound holds on a different
  // engine cost model, even though the plan diagram (and PB's rho) shift.
  Bundle pg = MakeBundle(2, 12);
  Bundle com = MakeBundle(2, 12, 2.0, CostModel::CommercialFlavour());
  SpillBound sb_pg(pg.ess.get());
  SpillBound sb_com(com.ess.get());
  EXPECT_LE(Evaluate(sb_pg, *pg.ess).mso, 10.0 * (1 + 1e-6));
  EXPECT_LE(Evaluate(sb_com, *com.ess).mso, 10.0 * (1 + 1e-6));
  PlanBouquet pb_pg(pg.ess.get());
  PlanBouquet pb_com(com.ess.get());
  // PB's guarantee may differ across flavours; each must still hold.
  EXPECT_LE(Evaluate(pb_pg, *pg.ess).mso,
            pb_pg.MsoGuarantee() * (1 + 1e-6));
  EXPECT_LE(Evaluate(pb_com, *com.ess).mso,
            pb_com.MsoGuarantee() * (1 + 1e-6));
}

struct RatioCase {
  double ratio;
};

class CostRatioTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(CostRatioTest, GuaranteeHoldsForRatio) {
  const double r = GetParam().ratio;
  Bundle b = MakeBundle(2, 12, r);
  SpillBound sb(b.ess.get());
  const SuboptimalityStats stats = Evaluate(sb, *b.ess);
  EXPECT_LE(stats.mso,
            SpillBound::MsoGuaranteeForRatio(2, r) * (1 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CostRatioTest,
                         ::testing::Values(RatioCase{1.5}, RatioCase{1.8},
                                           RatioCase{2.5}, RatioCase{3.0}),
                         [](const ::testing::TestParamInfo<RatioCase>& info) {
                           return std::string("r").append(std::to_string(
                               static_cast<int>(info.param.ratio * 10)));
                         });

TEST(AlgorithmEdgeTest, GuaranteeFormulaSpecialValues) {
  // Paper values: doubling gives 10 in 2D; 1.8 gives 9.9.
  EXPECT_DOUBLE_EQ(SpillBound::MsoGuaranteeForRatio(2, 2.0), 10.0);
  EXPECT_NEAR(SpillBound::MsoGuaranteeForRatio(2, 1.8), 9.9, 1e-9);
  EXPECT_DOUBLE_EQ(SpillBound::MsoGuaranteeForRatio(1, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(SpillBound::MsoGuarantee(6), 54.0);
}

TEST(AlgorithmEdgeTest, RunsAreDeterministic) {
  Bundle b = MakeBundle(3, 8);
  SpillBound sb(b.ess.get());
  const GridLoc qa = {5, 2, 6};
  SimulatedOracle o1(b.ess.get(), qa);
  SimulatedOracle o2(b.ess.get(), qa);
  const DiscoveryResult r1 = sb.Run(&o1);
  const DiscoveryResult r2 = sb.Run(&o2);
  ASSERT_EQ(r1.steps.size(), r2.steps.size());
  EXPECT_DOUBLE_EQ(r1.total_cost, r2.total_cost);
  for (size_t i = 0; i < r1.steps.size(); ++i) {
    EXPECT_EQ(r1.steps[i].plan_name, r2.steps[i].plan_name);
    EXPECT_EQ(r1.steps[i].spill_dim, r2.steps[i].spill_dim);
    EXPECT_DOUBLE_EQ(r1.steps[i].cost_charged, r2.steps[i].cost_charged);
  }
}

TEST(AlgorithmEdgeTest, EveryStepChargesAtMostBudget) {
  Bundle b = MakeBundle(3, 8);
  SpillBound sb(b.ess.get());
  AlignedBound ab(b.ess.get());
  PlanBouquet pb(b.ess.get());
  for (int64_t lin = 0; lin < b.ess->num_locations(); lin += 13) {
    for (int algo = 0; algo < 3; ++algo) {
      SimulatedOracle oracle(b.ess.get(), b.ess->FromLinear(lin));
      const DiscoveryResult r = algo == 0   ? pb.Run(&oracle)
                                : algo == 1 ? sb.Run(&oracle)
                                            : ab.Run(&oracle);
      ASSERT_TRUE(r.completed);
      double total = 0.0;
      for (const auto& s : r.steps) {
        EXPECT_LE(s.cost_charged, s.budget * (1 + 1e-9));
        total += s.cost_charged;
      }
      EXPECT_NEAR(total, r.total_cost, r.total_cost * 1e-12);
    }
  }
}

TEST(AlgorithmEdgeTest, PlanBouquetContourSetsCoverFrontiers) {
  // The completion-everywhere proof needs: every frontier location of
  // contour i is covered by a reduced-set plan within (1+lambda) CC_i.
  Bundle b = MakeBundle(2, 16);
  const double lambda = 0.2;
  PlanBouquet pb(b.ess.get(), {lambda, true});
  for (int i = 0; i < b.ess->num_contours(); ++i) {
    const double budget = b.ess->ContourCost(i) * (1 + lambda) * (1 + 1e-9);
    for (int64_t lin : b.ess->FrontierLocations(i)) {
      const EssPoint q = b.ess->SelAt(b.ess->FromLinear(lin));
      bool covered = false;
      for (const Plan* p : pb.ContourSet(i)) {
        if (b.ess->optimizer().PlanCost(*p, q) <= budget) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "contour " << i << " location " << lin;
    }
  }
}

TEST(AlgorithmEdgeTest, SpillBoundChoicesSpillOnRequestedDim) {
  // P^j_max must actually spill on dimension j given the unlearned set.
  Bundle b = MakeBundle(3, 8);
  SpillBound sb(b.ess.get());
  SimulatedOracle oracle(b.ess.get(), {7, 7, 7});
  const DiscoveryResult r = sb.Run(&oracle);
  ASSERT_TRUE(r.completed);
  // Reconstruct unlearned state along the trace and check each spill step.
  std::vector<bool> unlearned(3, true);
  for (const auto& s : r.steps) {
    if (s.spill_dim < 0) continue;
    const Plan* plan = nullptr;
    for (const Plan* p : b.ess->pool().plans()) {
      if (p->display_name() == s.plan_name) plan = p;
    }
    ASSERT_NE(plan, nullptr) << s.plan_name;
    EXPECT_EQ(plan->SpillDimension(unlearned), s.spill_dim);
    if (s.completed) unlearned[static_cast<size_t>(s.spill_dim)] = false;
  }
}

TEST(AlignmentAnalysisTest, NativeAlignmentImpliesUnitPenalty) {
  Bundle b = MakeBundle(2, 16);
  ConstrainedPlanCache cache(b.ess.get());
  const std::vector<ContourAlignmentInfo> infos =
      AnalyzeContourAlignment(*b.ess, &cache);
  ASSERT_EQ(static_cast<int>(infos.size()), b.ess->num_contours());
  for (const auto& info : infos) {
    if (info.natively_aligned) {
      EXPECT_DOUBLE_EQ(info.min_induce_penalty, 1.0);
    } else {
      EXPECT_GE(info.min_induce_penalty, 1.0 - 1e-9);
    }
  }
}

TEST(AlignmentAnalysisTest, ConstrainedCacheMemoizes) {
  Bundle b = MakeBundle(2, 12);
  ConstrainedPlanCache cache(b.ess.get());
  const std::vector<bool> unlearned = {true, true};
  const auto& e1 = cache.Get(5, 0, unlearned);
  const int plans_after_first = cache.num_plans();
  const auto& e2 = cache.Get(5, 0, unlearned);
  EXPECT_EQ(&e1, &e2);
  EXPECT_EQ(cache.num_plans(), plans_after_first);
  // The constrained plan really spills on the requested dim.
  ASSERT_NE(e1.plan, nullptr);
  EXPECT_EQ(e1.plan->SpillDimension(unlearned), 0);
  EXPECT_GE(e1.cost, b.ess->OptimalCost(int64_t{5}) * (1 - 1e-9));
}

TEST(EssSliceTest, SliceCoveringPropertyUnderLearnedDims) {
  // The quantum-progress argument applied within an effective (learnt)
  // slice: every in-slice hypograph point is dominated (within the slice)
  // by a slice-frontier point.
  Bundle b = MakeBundle(2, 16);
  const int pin = 9;
  const std::vector<int> fixed = {pin, -1};
  for (int i = 0; i < b.ess->num_contours(); i += 2) {
    const double budget = b.ess->ContourCost(i) * (1 + 1e-9);
    const std::vector<int64_t> frontier = b.ess->SliceFrontier(i, fixed);
    for (int y = 0; y < 16; ++y) {
      const GridLoc loc = {pin, y};
      if (b.ess->OptimalCost(loc) > budget) continue;
      bool dominated = false;
      for (int64_t f : frontier) {
        if (b.ess->FromLinear(f)[1] >= y) dominated = true;
      }
      EXPECT_TRUE(dominated) << "contour " << i << " y " << y;
    }
  }
}

}  // namespace
}  // namespace robustqp
