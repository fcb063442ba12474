// Tests for the grid-refinement ESS builder: the kExact mode must
// reproduce the exhaustive sweep's cost and plan surfaces bit-for-bit
// while spending far fewer optimizer calls, and the kRecost mode's
// reported deviation bound must soundly cover the true deviation.
// Recorded goldens pin refinement builds (saved stream, plan-pool order,
// every BuildStats field) so builder optimizations stay bitwise neutral.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EssBuilderTest, RelaxationReachesItsFixpoint) {
  // After relaxation no location can lower its cost by adopting the plan
  // of any in-grid neighbour in the full 3^D - 1 stencil.
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("4D_Q91");
  Ess::Config config = BaseConfig(8);
  config.build_mode = EssBuildMode::kRecost;
  auto ess = Ess::Build(*catalog, query, config);
  ASSERT_FALSE(ess->build_stats().fell_back);
  ASSERT_GT(ess->build_stats().recosted_points, 0);

  const int dims = ess->dims();
  int64_t compared = 0;
  for (int64_t lin = 0; lin < ess->num_locations(); ++lin) {
    const GridLoc loc = ess->FromLinear(lin);
    const EssPoint q = ess->SelAt(loc);
    // Odometer over {-1, 0, +1}^D offsets.
    std::vector<int> off(static_cast<size_t>(dims), -1);
    while (true) {
      GridLoc nloc = loc;
      bool is_self = true;
      bool in_grid = true;
      for (int d = 0; d < dims; ++d) {
        const size_t sd = static_cast<size_t>(d);
        nloc[sd] += off[sd];
        is_self = is_self && off[sd] == 0;
        in_grid = in_grid && nloc[sd] >= 0 && nloc[sd] < ess->points();
      }
      if (!is_self && in_grid) {
        const Plan* np = ess->OptimalPlan(nloc);
        ASSERT_LE(ess->OptimalCost(lin), ess->optimizer().PlanCost(*np, q))
            << "lin=" << lin << " neighbour=" << ess->ToLinear(nloc);
        ++compared;
      }
      int d = dims - 1;
      for (; d >= 0; --d) {
        const size_t sd = static_cast<size_t>(d);
        if (++off[sd] <= 1) break;
        off[sd] = -1;
      }
      if (d < 0) break;
    }
  }
  EXPECT_GT(compared, ess->num_locations() * 16);
}

/// One recorded refinement build: the FNV-1a digest of its Save() stream,
/// its plan pool (size and digest of the signatures in interning order),
/// and every BuildStats field.
struct BuildGolden {
  const char* query;
  int points;
  EssBuildMode mode;
  double fallback;
  uint64_t stream_digest;
  int pool_size;
  uint64_t pool_digest;
  int64_t optimizer_calls;
  int64_t exact_points;
  int64_t recosted_points;
  int64_t cells_certified;
  int64_t cells_refined;
  double max_deviation_bound;
  bool fell_back;
};

BuildGolden Record(const char* id, int points, EssBuildMode mode,
                   double fallback, int threads) {
  const std::shared_ptr<Catalog> catalog = IsJobQuery(id)
                                               ? ContextCache::JobCatalog()
                                               : ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery(id);
  Ess::Config config;
  config.points_per_dim = points;
  config.build_mode = mode;
  config.refine_fallback_fraction = fallback;
  config.num_threads = threads;
  auto ess = Ess::Build(*catalog, query, config);
  std::ostringstream stream;
  EXPECT_TRUE(ess->Save(stream).ok());
  std::string signatures;
  for (const Plan* plan : ess->pool().plans()) {
    signatures += plan->signature();
    signatures += '\n';
  }
  const Ess::BuildStats& st = ess->build_stats();
  return BuildGolden{id,
                     points,
                     mode,
                     fallback,
                     Fnv1a(stream.str()),
                     ess->pool().size(),
                     Fnv1a(signatures),
                     st.optimizer_calls,
                     st.exact_points,
                     st.recosted_points,
                     st.cells_certified,
                     st.cells_refined,
                     st.max_deviation_bound,
                     st.fell_back};
}

/// The golden as a table row, so a deliberate change can be re-recorded
/// by pasting the failure message.
std::string FormatGolden(const BuildGolden& g) {
  std::ostringstream os;
  os << "{\"" << g.query << "\", " << g.points << ", EssBuildMode::"
     << (g.mode == EssBuildMode::kExact ? "kExact" : "kRecost") << ", "
     << g.fallback << ", 0x" << std::hex << g.stream_digest << "ull, "
     << std::dec << g.pool_size << ", 0x" << std::hex << g.pool_digest
     << "ull, " << std::dec << g.optimizer_calls << ", " << g.exact_points
     << ", " << g.recosted_points << ", " << g.cells_certified << ", "
     << g.cells_refined << ", " << std::hexfloat << g.max_deviation_bound
     << std::defaultfloat << ", " << (g.fell_back ? "true" : "false") << "}";
  return os.str();
}

// Recorded before the builder's relaxation and stencil were made
// incremental; kRecost runs at the default lambda = 2.
const BuildGolden kBuildGoldens[] = {
    {"3D_Q96", 16, EssBuildMode::kExact, 0.5, 0x7668381169ae32a5ull, 49,
     0x72f7bb960838e914ull, 4096, 4096, 0, 64, 9, 0x1.106db2e8077e3p+11, true},
    {"3D_Q96", 16, EssBuildMode::kExact, 1, 0x1aef7fdd5db4834aull, 49,
     0x72f7bb960838e914ull, 2442, 2442, 1654, 64, 9,
     0x1.106db2e8077e3p+11, false},
    {"3D_Q96", 16, EssBuildMode::kRecost, 0.5, 0x43989317a53de8ceull, 36,
     0x5c2f723103b11444ull, 98, 98, 3998, 43, 6, 0x1.106db2e8077e3p+11, false},
    {"3D_Q96", 16, EssBuildMode::kRecost, 1, 0x43989317a53de8ceull, 36,
     0x5c2f723103b11444ull, 98, 98, 3998, 43, 6, 0x1.106db2e8077e3p+11, false},
    {"4D_Q91", 6, EssBuildMode::kExact, 0.5, 0x5af216c3e19f1285ull, 188,
     0x5d07ad17a24bd25dull, 1296, 1296, 0, 16, 1, 0x1.bcc3fec61639fp+34, true},
    {"4D_Q91", 6, EssBuildMode::kExact, 1, 0x41af8b350c283c54ull, 188,
     0x5d07ad17a24bd25dull, 1296, 1296, 0, 16, 1, 0x1.bcc3fec61639fp+34, false},
    {"4D_Q91", 6, EssBuildMode::kRecost, 0.5, 0xa82b3c246ccba65cull, 66,
     0xa97e4a1cc4f92735ull, 81, 81, 1215, 16, 1, 0x1.bcc3fec61639fp+34, false},
    {"4D_Q91", 6, EssBuildMode::kRecost, 1, 0xa82b3c246ccba65cull, 66,
     0xa97e4a1cc4f92735ull, 81, 81, 1215, 16, 1, 0x1.bcc3fec61639fp+34, false},
    {"4D_JOB_Q1a", 8, EssBuildMode::kExact, 0.5, 0xdd7d6b85b75fea1full, 38,
     0x4930304f71a355acull, 4096, 4096, 0, 16, 1, 0x1.b7550a7fdcd7fp+21, true},
    {"4D_JOB_Q1a", 8, EssBuildMode::kExact, 1, 0x4b8d5f3617a79746ull, 38,
     0x4930304f71a355acull, 4044, 4044, 52, 16, 1,
     0x1.b7550a7fdcd7fp+21, false},
    {"4D_JOB_Q1a", 8, EssBuildMode::kRecost, 0.5, 0x3879a82399b14768ull, 22,
     0x5268e0245f2a6da1ull, 81, 81, 4015, 16, 1, 0x1.b7550a7fdcd7fp+21, false},
    {"4D_JOB_Q1a", 8, EssBuildMode::kRecost, 1, 0x3879a82399b14768ull, 22,
     0x5268e0245f2a6da1ull, 81, 81, 4015, 16, 1, 0x1.b7550a7fdcd7fp+21, false},
    {"5D_Q19", 4, EssBuildMode::kExact, 0.5, 0x5a7cb2a9e360ae39ull, 295,
     0xccf51d1c9860f507ull, 1024, 1024, 0, 1, 0, 0x1.e0a7f234c29c3p+39, true},
    {"5D_Q19", 4, EssBuildMode::kExact, 1, 0xd86e0ec2610ef48bull, 295,
     0xccf51d1c9860f507ull, 1024, 1024, 0, 1, 0, 0x1.e0a7f234c29c3p+39, false},
    {"5D_Q19", 4, EssBuildMode::kRecost, 0.5, 0xa4f7e0e11ebb3359ull, 26,
     0xd860b8f6f5bea38aull, 32, 32, 992, 1, 0, 0x1.e0a7f234c29c3p+39, false},
    {"5D_Q19", 4, EssBuildMode::kRecost, 1, 0xa4f7e0e11ebb3359ull, 26,
     0xd860b8f6f5bea38aull, 32, 32, 992, 1, 0, 0x1.e0a7f234c29c3p+39, false},
};

void ExpectGoldens(const std::string& id) {
  int checked = 0;
  for (const BuildGolden& want : kBuildGoldens) {
    if (id != want.query) continue;
    for (int threads : {1, 4}) {
      const BuildGolden got =
          Record(want.query, want.points, want.mode, want.fallback, threads);
      SCOPED_TRACE(FormatGolden(got) + " at threads=" +
                   std::to_string(threads));
      EXPECT_EQ(got.stream_digest, want.stream_digest);
      EXPECT_EQ(got.pool_size, want.pool_size);
      EXPECT_EQ(got.pool_digest, want.pool_digest);
      EXPECT_EQ(got.optimizer_calls, want.optimizer_calls);
      EXPECT_EQ(got.exact_points, want.exact_points);
      EXPECT_EQ(got.recosted_points, want.recosted_points);
      EXPECT_EQ(got.cells_certified, want.cells_certified);
      EXPECT_EQ(got.cells_refined, want.cells_refined);
      EXPECT_EQ(got.max_deviation_bound, want.max_deviation_bound);
      EXPECT_EQ(got.fell_back, want.fell_back);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 8);  // {kExact, kRecost} x {0.5, 1.0} x {1, 4} threads
}

TEST(EssBuilderGoldenTest, Q96_3D_16) { ExpectGoldens("3D_Q96"); }
TEST(EssBuilderGoldenTest, Q91_4D_6) { ExpectGoldens("4D_Q91"); }
TEST(EssBuilderGoldenTest, JobQ1a_4D_8) { ExpectGoldens("4D_JOB_Q1a"); }
TEST(EssBuilderGoldenTest, Q19_5D_4) { ExpectGoldens("5D_Q19"); }

}  // namespace
}  // namespace robustqp
