// Tests for the optimizer substrate: cardinality estimation with
// selectivity injection, DP optimality against brute-force plan
// enumeration, the constrained spill-dimension search, the incremental
// reuse of a thread's last DP, and the Plan Cost Monotonicity property
// (Eq. (5)) that underpins every MSO guarantee.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
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
using testing_util::MakeMixedEppQuery;
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

// --- Incremental DP --------------------------------------------------------
//
// OptimizeKey reuses the calling thread's last plain DP of the same
// optimizer and recomputes only the cells whose epp dimensions changed.
// Every answer must be the one a fresh thread (an empty arena, so a full
// DP) gives, whatever ran on the thread before.

struct FreshAnswer {
  PlanKey key;
  std::string signature;
};

/// OptimizeKey at `q` on a new thread, and the signature of its plan.
FreshAnswer AnswerOnFreshThread(const Optimizer& opt, const EssPoint& q) {
  FreshAnswer out;
  std::thread([&] {
    opt.OptimizeKey(q, &out.key);
    out.signature = opt.PlanFromKey(out.key)->signature();
  }).join();
  return out;
}

struct IncrementalCase {
  std::string name;
  std::shared_ptr<Catalog> catalog;
  Query query;
};

/// Every suite query, ordered by dimensionality so that consecutive cases
/// often share it, then the tiny catalog's mixed query (the one with an
/// epp filter).
std::vector<IncrementalCase> IncrementalCases() {
  std::vector<IncrementalCase> cases;
  for (const std::string& id : SuiteQueryIds()) {
    cases.push_back({id,
                     IsJobQuery(id) ? ContextCache::JobCatalog()
                                    : ContextCache::TpcdsCatalog(),
                     MakeSuiteQuery(id)});
  }
  std::stable_sort(cases.begin(), cases.end(), [](const auto& a, const auto& b) {
    return a.query.num_epps() < b.query.num_epps();
  });
  cases.push_back({"mixed", MakeTinyCatalog(), MakeMixedEppQuery()});
  return cases;
}

TEST(IncrementalDpTest, EveryAnswerMatchesAFreshThread) {
  const std::vector<IncrementalCase> cases = IncrementalCases();
  const LogAxis axis(1e-5, 6);
  Rng rng(29);
  // One slot holds every case's optimizer in turn, so each is built at the
  // address of the one destroyed before it, and its first call repeats
  // that one's last location (the lowest corner).
  std::optional<Optimizer> opt;
  for (const IncrementalCase& c : cases) {
    SCOPED_TRACE(c.name);
    opt.reset();
    opt.emplace(c.catalog.get(), &c.query);
    const Optimizer other(c.catalog.get(), &c.query);
    const int dims = c.query.num_epps();
    std::map<EssPoint, FreshAnswer> fresh;
    int64_t step = 0;
    PlanKey key;
    // Alternates the two entry points; Optimize runs OptimizeKey.
    const auto check = [&](const Optimizer& o, const EssPoint& q) {
      auto it = fresh.find(q);
      if (it == fresh.end()) {
        it = fresh.emplace(q, AnswerOnFreshThread(o, q)).first;
      }
      SCOPED_TRACE("step " + std::to_string(step) + " at " +
                   ::testing::PrintToString(q));
      if (step++ % 2 == 0) {
        o.OptimizeKey(q, &key);
        EXPECT_EQ(key, it->second.key);
      } else {
        EXPECT_EQ(o.Optimize(q)->signature(), it->second.signature);
      }
    };
    const auto at = [&](const std::vector<int>& loc) {
      EssPoint q(static_cast<size_t>(dims));
      for (int d = 0; d < dims; ++d) {
        q[static_cast<size_t>(d)] = axis.value(loc[static_cast<size_t>(d)]);
      }
      return q;
    };
    const auto random_loc = [&] {
      std::vector<int> loc(static_cast<size_t>(dims));
      for (int& v : loc) {
        v = static_cast<int>(rng.UniformInt(0, axis.points() - 1));
      }
      return loc;
    };
    const std::vector<bool> all_unlearned(static_cast<size_t>(dims), true);

    // Odometer order over three values per dimension, interleaving a
    // constrained DP at the same location and a second optimizer.
    const int odo[] = {0, 2, 5};
    std::vector<int> digit(static_cast<size_t>(dims), 0);
    for (int64_t n = 0;; ++n) {
      std::vector<int> loc(static_cast<size_t>(dims));
      for (int d = 0; d < dims; ++d) {
        loc[static_cast<size_t>(d)] = odo[digit[static_cast<size_t>(d)]];
      }
      const EssPoint q = at(loc);
      check(*opt, q);
      if (n % 11 == 3) {
        // Not every dimension can be the spill node; the call runs the
        // constrained DP on the arena either way.
        opt->OptimizeConstrainedSpill(q, static_cast<int>(n % dims),
                                      all_unlearned);
        check(*opt, q);
      }
      if (n % 7 == 5) check(other, at(random_loc()));
      int d = dims - 1;
      while (d >= 0 && ++digit[static_cast<size_t>(d)] == 3) {
        digit[static_cast<size_t>(d)] = 0;
        --d;
      }
      if (d < 0) break;
    }

    // Random jumps, some of them repeated.
    for (int n = 0; n < 40; ++n) {
      const EssPoint q = at(random_loc());
      check(*opt, q);
      if (n % 4 == 1) check(*opt, q);
      if (n % 9 == 2) check(other, q);
    }

    // Single-dimension steps in every dimension, up the axis and back.
    std::vector<int> loc = random_loc();
    for (int d = 0; d < dims; ++d) {
      int& v = loc[static_cast<size_t>(d)];
      const int start = v;
      for (v = 0; v < axis.points(); ++v) check(*opt, at(loc));
      for (v = axis.points() - 1; v >= 0; --v) check(*opt, at(loc));
      v = start;
      if (d % 2 == 0) opt->OptimizeConstrainedSpill(at(loc), d, all_unlearned);
      check(*opt, at(loc));
    }

    check(*opt, at(std::vector<int>(static_cast<size_t>(dims), 0)));
  }
}

TEST(IncrementalDpTest, ConcurrentWalksOfOneOptimizerMatchFreshThreads) {
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("4D_Q91");
  const Optimizer opt(catalog.get(), &query);
  const LogAxis axis(1e-5, 4);
  std::vector<EssPoint> grid;
  for (int lin = 0; lin < 256; ++lin) {
    EssPoint q(4);
    for (int d = 0; d < 4; ++d) {
      q[static_cast<size_t>(d)] = axis.value((lin >> (2 * (3 - d))) & 3);
    }
    grid.push_back(q);
  }
  std::vector<FreshAnswer> want;
  for (const EssPoint& q : grid) want.push_back(AnswerOnFreshThread(opt, q));

  // Each thread walks the grid with its own stride, so the threads' arenas
  // hold different locations of the same optimizer at any moment.
  constexpr int kThreads = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PlanKey key;
      const size_t stride = static_cast<size_t>(2 * t + 1);
      for (size_t n = 0; n < 2 * grid.size(); ++n) {
        const size_t i = (n * stride) % grid.size();
        opt.OptimizeKey(grid[i], &key);
        if (key != want[i].key) ++mismatches[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

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
