// Tests for the grid-refinement ESS builder: the kExact mode must
// reproduce the exhaustive sweep's cost and plan surfaces bit-for-bit
// while spending far fewer optimizer calls, and the kRecost mode's
// reported deviation bound must soundly cover the true deviation.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ess/ess.h"
#include "server/context_cache.h"
#include "test_util.h"
#include "workloads/queries.h"

namespace robustqp {
namespace {

using testing_util::MakeMixedEppQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

Ess::Config BaseConfig(int points) {
  Ess::Config config;
  config.points_per_dim = points;
  config.min_sel = 1e-4;
  config.num_threads = 1;
  // The goldens below measure pure refinement; disable the exhaustive
  // fallback (some suite surfaces legitimately cross the default 0.5
  // call fraction — the fallback has its own tests).
  config.refine_fallback_fraction = 1.0;
  return config;
}

/// Asserts the two surfaces agree bit-for-bit: identical optimal costs
/// and structurally identical optimal plans at every grid location.
void ExpectIdenticalSurfaces(const Ess& exhaustive, const Ess& refined) {
  ASSERT_EQ(exhaustive.num_locations(), refined.num_locations());
  for (int64_t lin = 0; lin < exhaustive.num_locations(); ++lin) {
    ASSERT_EQ(exhaustive.OptimalCost(lin), refined.OptimalCost(lin))
        << "cost mismatch at lin=" << lin;
    ASSERT_EQ(exhaustive.OptimalPlan(lin)->signature(),
              refined.OptimalPlan(lin)->signature())
        << "plan mismatch at lin=" << lin;
  }
  ASSERT_EQ(exhaustive.num_contours(), refined.num_contours());
  for (int i = 0; i < exhaustive.num_contours(); ++i) {
    EXPECT_EQ(exhaustive.ContourCost(i), refined.ContourCost(i));
    EXPECT_EQ(exhaustive.FrontierLocations(i), refined.FrontierLocations(i));
  }
}

void RunGolden(const Catalog& catalog, const Query& query, int points) {
  Ess::Config config = BaseConfig(points);
  auto exhaustive = Ess::Build(catalog, query, config);
  config.build_mode = EssBuildMode::kExact;
  auto refined = Ess::Build(catalog, query, config);

  ExpectIdenticalSurfaces(*exhaustive, *refined);
  EXPECT_LT(refined->build_stats().optimizer_calls,
            exhaustive->build_stats().optimizer_calls);
  // Every location is either optimized directly or recosted, exactly once.
  EXPECT_EQ(refined->build_stats().exact_points +
                refined->build_stats().recosted_points,
            refined->num_locations());
  EXPECT_GE(refined->build_stats().optimizer_calls,
            refined->build_stats().exact_points);
  EXPECT_FALSE(refined->build_stats().fell_back);
}

TEST(EssBuilderTest, ExactMatchesExhaustiveOnTinyStar2D) {
  auto catalog = MakeTinyCatalog();
  const Query query = MakeStarQuery(2);
  RunGolden(*catalog, query, 24);
}

TEST(EssBuilderTest, ExactMatchesExhaustiveOnTinyStar3D) {
  auto catalog = MakeTinyCatalog();
  const Query query = MakeStarQuery(3);
  RunGolden(*catalog, query, 10);
}

TEST(EssBuilderTest, ExactMatchesExhaustiveOnMixedEpps) {
  auto catalog = MakeTinyCatalog();
  const Query query = MakeMixedEppQuery();
  RunGolden(*catalog, query, 10);
}

TEST(EssBuilderTest, ExactMatchesExhaustiveOnSuiteQueries) {
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  for (const char* id : {"2D_Q91", "3D_Q96", "3D_Q15"}) {
    SCOPED_TRACE(id);
    const Query query = MakeSuiteQuery(id);
    RunGolden(*catalog, query, query.num_epps() == 2 ? 20 : 10);
  }
}

TEST(EssBuilderTest, ExactCutsOptimizerCallsAtLeast5xOn2D40) {
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("2D_Q91");
  Ess::Config config = BaseConfig(40);
  config.build_mode = EssBuildMode::kExact;
  auto refined = Ess::Build(*catalog, query, config);
  EXPECT_LE(refined->build_stats().optimizer_calls * 5,
            refined->num_locations());

  config.build_mode = EssBuildMode::kExhaustive;
  auto exhaustive = Ess::Build(*catalog, query, config);
  ExpectIdenticalSurfaces(*exhaustive, *refined);
}

TEST(EssBuilderTest, LevelParallelRefinementIsDeterministic) {
  // The corner batches of each refinement level, and the whole kExhaustive
  // sweep, are optimized in parallel; the merge (ascending linear order)
  // must make the surface, the plan-pool interning order, and the build
  // stats independent of the thread count. 20x20 = 400 locations is past
  // the 256-location threshold below which the builder runs serially.
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("2D_Q91");
  for (EssBuildMode mode : {EssBuildMode::kExact, EssBuildMode::kExhaustive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Ess::Config config = BaseConfig(20);
    config.build_mode = mode;
    auto serial = Ess::Build(*catalog, query, config);
    config.num_threads = 4;
    auto parallel = Ess::Build(*catalog, query, config);
    ASSERT_GE(serial->num_locations(), 256);

    ExpectIdenticalSurfaces(*serial, *parallel);
    ASSERT_EQ(serial->pool().size(), parallel->pool().size());
    for (int i = 0; i < serial->pool().size(); ++i) {
      EXPECT_EQ(serial->pool().plans()[static_cast<size_t>(i)]->signature(),
                parallel->pool().plans()[static_cast<size_t>(i)]->signature())
          << "pool order differs at " << i;
    }
    EXPECT_EQ(serial->build_stats().optimizer_calls,
              parallel->build_stats().optimizer_calls);
    EXPECT_EQ(serial->build_stats().exact_points,
              parallel->build_stats().exact_points);
    EXPECT_EQ(serial->build_stats().recosted_points,
              parallel->build_stats().recosted_points);
    EXPECT_EQ(serial->build_stats().cells_certified,
              parallel->build_stats().cells_certified);
    EXPECT_EQ(serial->build_stats().cells_refined,
              parallel->build_stats().cells_refined);
    EXPECT_EQ(serial->build_stats().max_deviation_bound,
              parallel->build_stats().max_deviation_bound);
    EXPECT_EQ(serial->build_stats().fell_back,
              parallel->build_stats().fell_back);
  }
}

TEST(EssBuilderTest, FallbackToExhaustiveSweepOnLowFraction) {
  // With a near-zero call budget the refinement abandons itself after
  // the first corner batch and sweeps the rest of the grid; the result
  // must still be the exact surface, now with every point optimized.
  auto catalog = MakeTinyCatalog();
  const Query query = MakeStarQuery(2);
  Ess::Config config = BaseConfig(16);
  auto exhaustive = Ess::Build(*catalog, query, config);

  config.build_mode = EssBuildMode::kExact;
  config.refine_fallback_fraction = 0.01;
  auto fallen = Ess::Build(*catalog, query, config);

  EXPECT_TRUE(fallen->build_stats().fell_back);
  EXPECT_EQ(fallen->build_stats().exact_points, fallen->num_locations());
  ExpectIdenticalSurfaces(*exhaustive, *fallen);
}

TEST(EssBuilderTest, RecostBoundCoversTrueDeviation) {
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("2D_Q91");
  Ess::Config config = BaseConfig(20);
  auto exhaustive = Ess::Build(*catalog, query, config);

  for (double lambda : {1.2, 2.0, 4.0}) {
    SCOPED_TRACE(lambda);
    config.build_mode = EssBuildMode::kRecost;
    config.recost_lambda = lambda;
    auto approx = Ess::Build(*catalog, query, config);

    double true_dev = 1.0;
    for (int64_t lin = 0; lin < exhaustive->num_locations(); ++lin) {
      // The approximate surface can only over-estimate the optimum.
      ASSERT_GE(approx->OptimalCost(lin),
                exhaustive->OptimalCost(lin) * (1.0 - 1e-12));
      true_dev = std::max(
          true_dev, approx->OptimalCost(lin) / exhaustive->OptimalCost(lin));
    }
    const Ess::BuildStats& stats = approx->build_stats();
    EXPECT_GE(stats.max_deviation_bound, true_dev * (1.0 - 1e-12));
    EXPECT_GE(stats.max_deviation_bound, 1.0);
    EXPECT_LE(stats.optimizer_calls, exhaustive->build_stats().optimizer_calls);
  }
}

TEST(EssBuilderTest, RecostLambdaTradesCallsForDeviation) {
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("2D_Q91");
  Ess::Config config = BaseConfig(20);
  config.build_mode = EssBuildMode::kRecost;
  config.recost_lambda = 1.05;
  auto tight = Ess::Build(*catalog, query, config);
  config.recost_lambda = 8.0;
  auto loose = Ess::Build(*catalog, query, config);
  EXPECT_LE(loose->build_stats().optimizer_calls,
            tight->build_stats().optimizer_calls);
}

}  // namespace
}  // namespace robustqp
