// Tests for the optimizer substrate: cardinality estimation with
// selectivity injection, DP optimality against brute-force plan
// enumeration, the constrained spill-dimension search, and the Plan Cost
// Monotonicity property (Eq. (5)) that underpins every MSO guarantee.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log_grid.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "server/context_cache.h"
#include "test_util.h"
#include "workloads/queries.h"

namespace robustqp {
namespace {

using testing_util::MakeBranchQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeTinyCatalog(); }
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(OptimizerTest, EstimatorNativeJoinSelectivity) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  // f_fk1 has up to 100 distinct values, d1_k exactly 100 -> sel ~ 1/100.
  EXPECT_NEAR(est.NativeJoinSelectivity(0), 0.01, 0.0005);
  // d2_k has 400 distinct -> sel ~ 1/400.
  EXPECT_NEAR(est.NativeJoinSelectivity(1), 1.0 / 400, 0.0005);
}

TEST_F(OptimizerTest, EstimatorFilterSelectivity) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  // d1_a uniform in [1,10], filter d1_a <= 3 -> ~0.3.
  EXPECT_NEAR(est.FilterSelectivity(0), 0.3, 0.1);
  // d2_a uniform in [1,20], filter <= 10 -> ~0.5.
  EXPECT_NEAR(est.FilterSelectivity(1), 0.5, 0.1);
}

TEST_F(OptimizerTest, EstimatorFilteredRowsAtLeastOne) {
  const Query q = MakeStarQuery(3);
  CardinalityEstimator est(catalog_.get(), &q);
  EXPECT_GE(est.FilteredRows(1, {0}, {}), 1.0);
  EXPECT_DOUBLE_EQ(est.RawRows(0), 4000.0);
}

TEST_F(OptimizerTest, EstimatorInjectionOverridesEppsOnly) {
  const Query q = MakeStarQuery(2);  // joins 0,1 epp; join 2 native
  CardinalityEstimator est(catalog_.get(), &q);
  const EssPoint inj = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(0, inj), 0.5);
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(1, inj), 0.25);
  EXPECT_DOUBLE_EQ(est.JoinSelectivity(2, inj), est.NativeJoinSelectivity(2));
}

TEST_F(OptimizerTest, NativeEstimatePointMatchesEstimator) {
  const Query q = MakeStarQuery(2);
  CardinalityEstimator est(catalog_.get(), &q);
  const EssPoint qe = est.NativeEstimatePoint();
  ASSERT_EQ(qe.size(), 2u);
  EXPECT_DOUBLE_EQ(qe[0], est.NativeJoinSelectivity(0));
  EXPECT_DOUBLE_EQ(qe[1], est.NativeJoinSelectivity(1));
}

// --- Brute-force plan enumeration for DP verification -------------------

/// Enumerates every physical plan of `query` (bushy trees over connected
/// subsets, HJ/NLJ both operand orders, plus index nested-loops where an
/// index exists) and calls `fn` on each root.
void EnumeratePlans(const Query& query, const Catalog& catalog,
                    const std::function<void(std::unique_ptr<PlanNode>)>& fn) {
  const int n = query.num_tables();
  std::vector<std::vector<int>> table_filters(static_cast<size_t>(n));
  for (int f = 0; f < static_cast<int>(query.filters().size()); ++f) {
    table_filters[static_cast<size_t>(
        query.TableIndex(query.filters()[static_cast<size_t>(f)].table))]
        .push_back(f);
  }

  // Recursively produce every plan for a table mask.
  std::function<std::vector<std::unique_ptr<PlanNode>>(uint64_t)> gen =
      [&](uint64_t mask) {
        std::vector<std::unique_ptr<PlanNode>> out;
        if ((mask & (mask - 1)) == 0) {
          int t = 0;
          while (!(mask & (uint64_t{1} << t))) ++t;
          auto scan = std::make_unique<PlanNode>();
          scan->op = PlanOp::kSeqScan;
          scan->table_idx = t;
          scan->filter_indices = table_filters[static_cast<size_t>(t)];
          out.push_back(std::move(scan));
          return out;
        }
        for (uint64_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
          const uint64_t s2 = mask ^ s1;
          if (s1 > s2) continue;
          std::vector<int> cross;
          for (int j = 0; j < query.num_joins(); ++j) {
            const uint64_t jm = query.JoinTableMask(j);
            if ((jm & mask) != jm) continue;
            if ((jm & s1) && (jm & s2)) cross.push_back(j);
          }
          if (cross.empty()) continue;
          // Index nested-loop applicability per side: single table,
          // exactly one crossing edge, index on its column of that edge.
          auto inlj_ok = [&](uint64_t side) {
            if (cross.size() != 1 || (side & (side - 1)) != 0) return false;
            const JoinPredicate& jp =
                query.joins()[static_cast<size_t>(cross[0])];
            int t = 0;
            while (!(side & (uint64_t{1} << t))) ++t;
            const std::string& tname = query.tables()[static_cast<size_t>(t)];
            if (jp.left_table == tname) {
              return catalog.FindIndex(tname, jp.left_column) != nullptr;
            }
            if (jp.right_table == tname) {
              return catalog.FindIndex(tname, jp.right_column) != nullptr;
            }
            return false;
          };
          auto lefts = gen(s1);
          auto rights = gen(s2);
          for (const auto& l : lefts) {
            for (const auto& r : rights) {
              for (PlanOp op : {PlanOp::kHashJoin, PlanOp::kNLJoin,
                                PlanOp::kSortMergeJoin}) {
                for (int order = 0; order < 2; ++order) {
                  auto node = std::make_unique<PlanNode>();
                  node->op = op;
                  node->join_indices = cross;
                  node->left = order == 0 ? l->Clone() : r->Clone();
                  node->right = order == 0 ? r->Clone() : l->Clone();
                  out.push_back(std::move(node));
                }
              }
              for (int order = 0; order < 2; ++order) {
                const uint64_t inner = order == 0 ? s2 : s1;
                if (!inlj_ok(inner)) continue;
                auto node = std::make_unique<PlanNode>();
                node->op = PlanOp::kIndexNLJoin;
                node->join_indices = cross;
                node->left = order == 0 ? l->Clone() : r->Clone();
                node->right = order == 0 ? r->Clone() : l->Clone();
                out.push_back(std::move(node));
              }
            }
          }
        }
        return out;
      };

  const uint64_t full = (uint64_t{1} << n) - 1;
  for (auto& plan : gen(full)) fn(std::move(plan));
}

TEST_F(OptimizerTest, DpMatchesBruteForceStar) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-4.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, DpMatchesBruteForceBranch) {
  const Query q = MakeBranchQuery(3);
  Optimizer opt(catalog_.get(), &q);
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-4.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, ConstrainedSpillMatchesBruteForce) {
  const Query q = MakeBranchQuery(3);
  Optimizer opt(catalog_.get(), &q);
  const std::vector<bool> unlearned = {true, true, true};
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
    for (int dim = 0; dim < 3; ++dim) {
      const std::unique_ptr<Plan> got =
          opt.OptimizeConstrainedSpill(inj, dim, unlearned);
      double best = std::numeric_limits<double>::infinity();
      EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
        Plan plan(&q, std::move(root));
        if (plan.SpillDimension(unlearned) == dim) {
          best = std::min(best, opt.PlanCost(plan, inj));
        }
      });
      if (got == nullptr) {
        EXPECT_TRUE(std::isinf(best));
        continue;
      }
      EXPECT_EQ(got->SpillDimension(unlearned), dim);
      EXPECT_NEAR(opt.PlanCost(*got, inj), best, best * 1e-9)
          << "dim " << dim << " trial " << trial;
    }
  }
}

TEST_F(OptimizerTest, ConstrainedSpillRespectsLearnedDims) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  const EssPoint inj = {0.01, 0.01, 0.01};
  // With dim 0 learnt, a returned plan must spill on the requested dim.
  const std::vector<bool> unlearned = {false, true, true};
  for (int dim = 1; dim <= 2; ++dim) {
    const auto plan = opt.OptimizeConstrainedSpill(inj, dim, unlearned);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->SpillDimension(unlearned), dim);
  }
}

TEST_F(OptimizerTest, CostPlanConsistentWithDp) {
  // The plan returned by Optimize must cost exactly what the DP claims,
  // i.e. re-costing the reconstruction gives the same optimum for a
  // different location ordering of the same plan.
  const Query q = MakeStarQuery(2);
  Optimizer opt(catalog_.get(), &q);
  const EssPoint a = {1e-3, 1e-2};
  const std::unique_ptr<Plan> plan = opt.Optimize(a);
  const PlanCosting costing = opt.CostPlan(*plan, a);
  EXPECT_GT(costing.total_cost(), 0.0);
  EXPECT_EQ(costing.rows.size(), static_cast<size_t>(plan->num_nodes()));
  // Root cumulative cost equals the total.
  EXPECT_DOUBLE_EQ(costing.cost[0], costing.total_cost());
  // Subtree costs are no larger than the total.
  for (double c : costing.cost) EXPECT_LE(c, costing.total_cost() * (1 + 1e-12));
}

TEST_F(OptimizerTest, DpMatchesBruteForceMixedEpps) {
  // Join + filter epps together: exercises the scan-leaf states of the
  // constrained DP and the injected filter selectivities.
  const Query q = testing_util::MakeMixedEppQuery();
  Optimizer opt(catalog_.get(), &q);
  Rng rng(321);
  for (int trial = 0; trial < 8; ++trial) {
    EssPoint inj(3);
    for (double& v : inj) v = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
    const std::unique_ptr<Plan> dp_plan = opt.Optimize(inj);
    const double dp_cost = opt.PlanCost(*dp_plan, inj);
    double best = std::numeric_limits<double>::infinity();
    EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
      Plan plan(&q, std::move(root));
      best = std::min(best, opt.PlanCost(plan, inj));
    });
    EXPECT_NEAR(dp_cost, best, best * 1e-9) << "trial " << trial;
  }
}

TEST_F(OptimizerTest, ConstrainedSpillOnFilterDim) {
  const Query q = testing_util::MakeMixedEppQuery();
  Optimizer opt(catalog_.get(), &q);
  const EssPoint inj = {0.01, 0.01, 0.3};
  const std::vector<bool> unlearned = {true, true, true};
  // Dimension 2 is the d1 filter: a plan spilling on it must have the d1
  // scan as the first unlearned epp in execution order — brute-force the
  // cheapest such plan and compare.
  const auto got = opt.OptimizeConstrainedSpill(inj, 2, unlearned);
  double best = std::numeric_limits<double>::infinity();
  EnumeratePlans(q, *catalog_, [&](std::unique_ptr<PlanNode> root) {
    Plan plan(&q, std::move(root));
    if (plan.SpillDimension(unlearned) == 2) {
      best = std::min(best, opt.PlanCost(plan, inj));
    }
  });
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->SpillDimension(unlearned), 2);
  EXPECT_NEAR(opt.PlanCost(*got, inj), best, best * 1e-9);
}

// --- Constrained-DP pins -------------------------------------------------
//
// OptimizeConstrainedSpill (AlignedBound's search) over a 4-point grid of
// suite queries, for every spill dimension and several unlearned subsets:
// all dimensions, the target alone, the target with the even or the odd
// dimensions, and every dimension but the target (no plan can spill
// there). The digest folds in, per call in that order, the winner's
// signature and the bits of its PlanCost, or a marker for no plan, so any
// change to winners, ties or cost bits moves the recorded values.

struct ConstrainedGolden {
  const char* query;
  uint64_t digest;
  int64_t plans;  // calls that returned a plan
};

ConstrainedGolden RecordConstrained(const char* id) {
  const std::shared_ptr<Catalog> catalog = IsJobQuery(id)
                                               ? ContextCache::JobCatalog()
                                               : ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery(id);
  const Optimizer opt(catalog.get(), &query);
  const int dims = query.num_epps();
  const LogAxis axis(1e-4, 4);
  uint64_t digest = 1469598103934665603ull;
  const auto fold = [&digest](const void* data, size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      digest ^= bytes[i];
      digest *= 1099511628211ull;
    }
  };
  int64_t plans = 0;
  std::vector<int> loc(static_cast<size_t>(dims), 0);
  EssPoint q(static_cast<size_t>(dims));
  while (true) {
    for (int d = 0; d < dims; ++d) {
      q[static_cast<size_t>(d)] = axis.value(loc[static_cast<size_t>(d)]);
    }
    for (int dim = 0; dim < dims; ++dim) {
      for (int subset = 0; subset < 5; ++subset) {
        std::vector<bool> unlearned(static_cast<size_t>(dims));
        for (int d = 0; d < dims; ++d) {
          const bool in = subset == 0 || (subset == 2 && d % 2 == 0) ||
                          (subset == 3 && d % 2 == 1);
          unlearned[static_cast<size_t>(d)] =
              subset == 4 ? d != dim : (in || d == dim);
        }
        const std::unique_ptr<Plan> plan =
            opt.OptimizeConstrainedSpill(q, dim, unlearned);
        if (plan == nullptr) {
          fold("-", 1);
          continue;
        }
        ++plans;
        const double cost = opt.PlanCost(*plan, q);
        fold(plan->signature().data(), plan->signature().size());
        fold(&cost, sizeof(cost));
      }
    }
    int d = dims - 1;
    while (d >= 0 && ++loc[static_cast<size_t>(d)] == axis.points()) {
      loc[static_cast<size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return ConstrainedGolden{id, digest, plans};
}

const ConstrainedGolden kConstrainedGoldens[] = {
    {"4D_Q91", 0x6f230bc587aea0f4ull, 4096},
    {"4D_JOB_Q1a", 0x16cc6ec59e8696caull, 4096},
    {"5D_Q19", 0x3e79b3fbc59de90cull, 20480},
};

void ExpectConstrainedGolden(const std::string& id) {
  int checked = 0;
  for (const ConstrainedGolden& want : kConstrainedGoldens) {
    if (id != want.query) continue;
    const ConstrainedGolden got = RecordConstrained(want.query);
    std::ostringstream recorded;
    recorded << "{\"" << got.query << "\", 0x" << std::hex << got.digest
             << "ull, " << std::dec << got.plans << "}";
    SCOPED_TRACE(recorded.str());
    EXPECT_EQ(got.digest, want.digest);
    EXPECT_EQ(got.plans, want.plans);
    ++checked;
  }
  EXPECT_EQ(checked, 1);
}

TEST(ConstrainedSpillGoldenTest, Q91_4D) { ExpectConstrainedGolden("4D_Q91"); }
TEST(ConstrainedSpillGoldenTest, JobQ1a_4D) {
  ExpectConstrainedGolden("4D_JOB_Q1a");
}
TEST(ConstrainedSpillGoldenTest, Q19_5D) { ExpectConstrainedGolden("5D_Q19"); }

// --- PCM property (parameterized sweep) ---------------------------------

struct PcmCase {
  int num_epps;
  uint64_t seed;
};

class PcmPropertyTest : public ::testing::TestWithParam<PcmCase> {};

TEST_P(PcmPropertyTest, CostMonotoneInSelectivities) {
  auto catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(GetParam().num_epps);
  Optimizer opt(catalog.get(), &q);
  Rng rng(GetParam().seed);
  const int D = q.num_epps();
  for (int trial = 0; trial < 40; ++trial) {
    // Random location and a random dominated location.
    EssPoint hi(static_cast<size_t>(D)), lo(static_cast<size_t>(D));
    for (int d = 0; d < D; ++d) {
      hi[static_cast<size_t>(d)] = std::pow(10.0, rng.UniformDouble(-3.0, 0.0));
      lo[static_cast<size_t>(d)] =
          hi[static_cast<size_t>(d)] * rng.UniformDouble(0.05, 0.8);
    }
    // A plan optimal somewhere in between exercises realistic shapes.
    const std::unique_ptr<Plan> plan = opt.Optimize(lo);
    EXPECT_GT(opt.PlanCost(*plan, hi), opt.PlanCost(*plan, lo))
        << "PCM violated at trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcmPropertyTest,
                         ::testing::Values(PcmCase{1, 1}, PcmCase{2, 2},
                                           PcmCase{2, 77}, PcmCase{3, 3},
                                           PcmCase{3, 1234}),
                         [](const ::testing::TestParamInfo<PcmCase>& info) {
                           std::string name = "D";
                           name += std::to_string(info.param.num_epps);
                           name += "_s";
                           name += std::to_string(info.param.seed);
                           return name;
                         });

TEST_F(OptimizerTest, CommercialFlavourDiffers) {
  const Query q = MakeStarQuery(2);
  Optimizer pg(catalog_.get(), &q, CostModel::PostgresFlavour());
  Optimizer com(catalog_.get(), &q, CostModel::CommercialFlavour());
  const EssPoint inj = {0.01, 0.01};
  const auto p1 = pg.Optimize(inj);
  // Costs must differ across flavours even if the plan shape coincides.
  EXPECT_NE(pg.PlanCost(*p1, inj), com.PlanCost(*p1, inj));
}

}  // namespace
}  // namespace robustqp
