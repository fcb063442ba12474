// Tests for the hash-index access path and index nested-loop joins:
// index lookup correctness, INLJ result equivalence with other join
// operators, cost-model behaviour (wins at tiny selectivity, loses at
// large), budget abort, epp ordering without a blocking child, and
// selectivity monitoring via the uncharged filtered-inner count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "storage/hash_index.h"
#include "storage/table.h"
#include "test_util.h"
#include "workloads/stale_stats.h"

namespace robustqp {
namespace {

using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

class IndexJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeTinyCatalog();
    executor_ = std::make_unique<Executor>(catalog_.get(),
                                           CostModel::PostgresFlavour());
  }
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(IndexJoinTest, HashIndexLookup) {
  const HashIndex* idx = catalog_->FindIndex("d1", "d1_k");
  ASSERT_NE(idx, nullptr);
  // d1_k is a serial key 1..100: every key has exactly one row.
  EXPECT_EQ(idx->distinct_keys(), 100);
  const RowIdSpan rows = idx->Lookup(42);
  ASSERT_FALSE(rows.empty());
  ASSERT_EQ(rows.size(), 1);
  EXPECT_EQ(rows[0], 41);  // row ids are 0-based
  EXPECT_TRUE(idx->Lookup(101).empty());
}

TEST_F(IndexJoinTest, IndexOnlyOnBuiltColumns) {
  EXPECT_NE(catalog_->FindIndex("d2", "d2_k"), nullptr);
  EXPECT_EQ(catalog_->FindIndex("d2", "d2_a"), nullptr);
  EXPECT_EQ(catalog_->FindIndex("nope", "x"), nullptr);
}

TEST_F(IndexJoinTest, BuildIndexValidation) {
  EXPECT_FALSE(catalog_->BuildIndex("nope", "x").ok());
  EXPECT_FALSE(catalog_->BuildIndex("d1", "nope").ok());
  // f_v is a DOUBLE column: unsupported.
  EXPECT_FALSE(catalog_->BuildIndex("f", "f_v").ok());
  EXPECT_TRUE(catalog_->BuildIndex("f", "f_fk1").ok());
}

std::unique_ptr<Plan> MakeInljPlan(const Query& q) {
  // INLJ(f -> d1) on join 0, with d1's filter applied post-fetch.
  auto scan_f = std::make_unique<PlanNode>();
  scan_f->op = PlanOp::kSeqScan;
  scan_f->table_idx = 0;
  auto scan_d = std::make_unique<PlanNode>();
  scan_d->op = PlanOp::kSeqScan;
  scan_d->table_idx = 1;
  scan_d->filter_indices = {0};  // d1_a <= 3
  auto join = std::make_unique<PlanNode>();
  join->op = PlanOp::kIndexNLJoin;
  join->join_indices = {0};
  join->left = std::move(scan_f);
  join->right = std::move(scan_d);
  return std::make_unique<Plan>(&q, std::move(join));
}

TEST_F(IndexJoinTest, InljMatchesHashJoinResult) {
  const Query q = MakeStarQuery(1);
  const std::unique_ptr<Plan> inlj = MakeInljPlan(q);

  auto scan_f = std::make_unique<PlanNode>();
  scan_f->op = PlanOp::kSeqScan;
  scan_f->table_idx = 0;
  auto scan_d = std::make_unique<PlanNode>();
  scan_d->op = PlanOp::kSeqScan;
  scan_d->table_idx = 1;
  scan_d->filter_indices = {0};
  auto hj = std::make_unique<PlanNode>();
  hj->op = PlanOp::kHashJoin;
  hj->join_indices = {0};
  hj->left = std::move(scan_d);
  hj->right = std::move(scan_f);
  Plan hash_plan(&q, std::move(hj));

  const auto r1 = executor_->Execute(*inlj, -1.0);
  const auto r2 = executor_->Execute(hash_plan, -1.0);
  ASSERT_TRUE(r1.ok() && r1->completed);
  ASSERT_TRUE(r2.ok() && r2->completed);
  EXPECT_EQ(r1->output_rows, r2->output_rows);
  EXPECT_GT(r1->output_rows, 0);
}

// Every dimension key is serial, so each index takes the dense layout.
// Index-NL into it must produce what a hash join on the same key does,
// and what a brute-force count of the matching pairs gives, on both
// engines.
TEST_F(IndexJoinTest, InljOnDenseIndexMatchesHashJoin) {
  const Query q = MakeStarQuery(3);
  const Table& f = *catalog_->FindTable("f")->table;
  const struct {
    std::string dim, key, fk;
    std::vector<int> filters;  // query filter indices on the dimension
    std::string filter_col;
    double filter_max;
  } dims[] = {{"d1", "d1_k", "f_fk1", {0}, "d1_a", 3},
              {"d2", "d2_k", "f_fk2", {1}, "d2_a", 10},
              {"d3", "d3_k", "f_fk3", {}, "", 0}};
  for (int j = 0; j < 3; ++j) {
    const auto& d = dims[j];
    const HashIndex* idx = catalog_->FindIndex(d.dim, d.key);
    ASSERT_NE(idx, nullptr) << d.dim;
    EXPECT_TRUE(idx->dense()) << d.dim;

    const Table& dim = *catalog_->FindTable(d.dim)->table;
    const int key_col = dim.schema().FindColumn(d.key);
    const int filter_col = dim.schema().FindColumn(d.filter_col);
    const int fk_col = f.schema().FindColumn(d.fk);
    int64_t want = 0;
    for (int64_t r = 0; r < f.num_rows(); ++r) {
      for (int64_t s = 0; s < dim.num_rows(); ++s) {
        want += f.column(fk_col).GetNumeric(r) ==
                    dim.column(key_col).GetNumeric(s) &&
                (filter_col < 0 ||
                 dim.column(filter_col).GetNumeric(s) <= d.filter_max);
      }
    }
    ASSERT_GT(want, 0) << d.dim;

    const auto make = [&](PlanOp op) {
      auto scan_f = std::make_unique<PlanNode>();
      scan_f->op = PlanOp::kSeqScan;
      scan_f->table_idx = 0;
      auto scan_d = std::make_unique<PlanNode>();
      scan_d->op = PlanOp::kSeqScan;
      scan_d->table_idx = j + 1;
      scan_d->filter_indices = d.filters;
      auto join = std::make_unique<PlanNode>();
      join->op = op;
      join->join_indices = {j};
      const bool index = op == PlanOp::kIndexNLJoin;
      join->left = index ? std::move(scan_f) : std::move(scan_d);
      join->right = index ? std::move(scan_d) : std::move(scan_f);
      return Plan(&q, std::move(join));
    };
    const Plan inlj = make(PlanOp::kIndexNLJoin);
    const Plan hj = make(PlanOp::kHashJoin);
    for (const Executor::Engine engine :
         {Executor::Engine::kTuple, Executor::Engine::kBatch}) {
      Executor::Options options;
      options.engine = engine;
      const Executor ex(catalog_.get(), CostModel::PostgresFlavour(), options);
      const auto r1 = ex.Execute(inlj, -1.0);
      const auto r2 = ex.Execute(hj, -1.0);
      ASSERT_TRUE(r1.ok() && r1->completed) << d.dim;
      ASSERT_TRUE(r2.ok() && r2->completed) << d.dim;
      EXPECT_EQ(r1->output_rows, want) << d.dim;
      EXPECT_EQ(r2->output_rows, want) << d.dim;
    }
  }
}

TEST_F(IndexJoinTest, InljObservedSelectivityUsesFilteredInner) {
  const Query q = MakeStarQuery(1);
  const std::unique_ptr<Plan> inlj = MakeInljPlan(q);
  const auto res = executor_->Execute(*inlj, -1.0);
  ASSERT_TRUE(res.ok() && res->completed);
  const NodeStats& st = res->node_stats[0];
  EXPECT_EQ(st.left_in, 4000);  // all fact rows probe
  // right_in is the uncharged filtered-inner count, not the fetch count.
  EXPECT_GT(st.right_in, 0);
  EXPECT_LT(st.right_in, 100);
  // Observed selectivity = out / (probes x filtered inner): for an FK
  // join this approximates 1/|d1| (zipf-vs-filter interplay allowed).
  EXPECT_NEAR(res->ObservedJoinSelectivity(0), 0.01, 0.006);
}

TEST_F(IndexJoinTest, InljCheaperThanScanJoinsAtTinySelectivity) {
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog_.get(), &q);
  // At minuscule selectivities the optimizer should pick index probes
  // somewhere in the plan (no full scans of the dimension tables).
  const std::unique_ptr<Plan> plan = opt.Optimize({1e-6, 1e-6, 1e-6});
  EXPECT_NE(plan->signature().find("INLJ"), std::string::npos)
      << plan->signature();
  // At selectivity 1 the cross products make probing every pair absurd:
  // no INLJ should survive.
  const std::unique_ptr<Plan> big = opt.Optimize({1.0, 1.0, 1.0});
  EXPECT_EQ(big->signature().find("INLJ"), std::string::npos)
      << big->signature();
}

TEST_F(IndexJoinTest, InljBudgetAbort) {
  const Query q = MakeStarQuery(1);
  const std::unique_ptr<Plan> inlj = MakeInljPlan(q);
  const auto res = executor_->Execute(*inlj, 25.0);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->completed);
  EXPECT_LE(res->cost_used, 25.0 + 1e-9);
}

TEST_F(IndexJoinTest, InljEppOrderHasNoBlockingChild) {
  const Query q = MakeStarQuery(3);
  // INLJ(HJ(d2-build, HJ(d3-build, f)), d1): the INLJ's right side holds
  // no epps; order is inner HJs bottom-up then the INLJ last.
  auto scan_f = std::make_unique<PlanNode>();
  scan_f->op = PlanOp::kSeqScan;
  scan_f->table_idx = 0;
  auto scan_d2 = std::make_unique<PlanNode>();
  scan_d2->op = PlanOp::kSeqScan;
  scan_d2->table_idx = 2;
  auto scan_d3 = std::make_unique<PlanNode>();
  scan_d3->op = PlanOp::kSeqScan;
  scan_d3->table_idx = 3;
  auto scan_d1 = std::make_unique<PlanNode>();
  scan_d1->op = PlanOp::kSeqScan;
  scan_d1->table_idx = 1;

  auto hj3 = std::make_unique<PlanNode>();
  hj3->op = PlanOp::kHashJoin;
  hj3->join_indices = {2};
  hj3->left = std::move(scan_d3);
  hj3->right = std::move(scan_f);
  auto hj2 = std::make_unique<PlanNode>();
  hj2->op = PlanOp::kHashJoin;
  hj2->join_indices = {1};
  hj2->left = std::move(scan_d2);
  hj2->right = std::move(hj3);
  auto inlj = std::make_unique<PlanNode>();
  inlj->op = PlanOp::kIndexNLJoin;
  inlj->join_indices = {0};
  inlj->left = std::move(hj2);
  inlj->right = std::move(scan_d1);

  Plan plan(&q, std::move(inlj));
  ASSERT_EQ(plan.epp_execution_order().size(), 3u);
  EXPECT_EQ(plan.epp_execution_order()[0], 2);
  EXPECT_EQ(plan.epp_execution_order()[1], 1);
  EXPECT_EQ(plan.epp_execution_order()[2], 0);
}

TEST_F(IndexJoinTest, InljCostExcludesInnerScan) {
  const Query q = MakeStarQuery(1);
  Optimizer opt(catalog_.get(), &q);
  const std::unique_ptr<Plan> inlj = MakeInljPlan(q);
  const PlanCosting costing = opt.CostPlan(*inlj, {1e-5});
  // The probed table keeps its standalone subtree cost (what a spill
  // execution of that scan would pay), but contributes nothing to the
  // parent: root cost == outer cost + local INLJ cost exactly.
  double scan_cost = 0.0, outer_cost = 0.0, outer_rows = 0.0;
  for (int i = 0; i < inlj->num_nodes(); ++i) {
    if (inlj->node(i).op != PlanOp::kSeqScan) continue;
    if (inlj->node(i).table_idx == 1) {
      scan_cost = costing.cost[static_cast<size_t>(i)];
    } else {
      outer_cost = costing.cost[static_cast<size_t>(i)];
      outer_rows = costing.rows[static_cast<size_t>(i)];
    }
  }
  EXPECT_GT(scan_cost, 0.0) << "probed scan keeps its standalone cost";
  const double fetched = outer_rows * 100.0 * 1e-5;  // raw |d1| = 100
  const double local = opt.cost_model().IndexNLJoinCost(
      outer_rows, fetched, costing.rows[0]);
  EXPECT_NEAR(costing.total_cost(), outer_cost + local,
              costing.total_cost() * 1e-9);
  // Engine charge roughly tracks the modelled cost at the data's truth.
  const auto res = executor_->Execute(*inlj, -1.0);
  ASSERT_TRUE(res.ok() && res->completed);
  const PlanCosting at_truth = opt.CostPlan(*inlj, {0.01});
  EXPECT_GT(res->cost_used, at_truth.total_cost() * 0.3);
  EXPECT_LT(res->cost_used, at_truth.total_cost() * 3.0);
}

TEST(StaleStatsTest, InflatesDistinctCounts) {
  auto fresh = MakeTinyCatalog();
  auto stale = WithStaleStatistics(*fresh, 50.0);
  const ColumnStats* fresh_cs = fresh->FindColumnStats("d1", "d1_k");
  const ColumnStats* stale_cs = stale->FindColumnStats("d1", "d1_k");
  EXPECT_EQ(stale_cs->distinct_count, fresh_cs->distinct_count * 50);
  // Data is shared, not copied.
  EXPECT_EQ(fresh->FindTable("d1")->table.get(),
            stale->FindTable("d1")->table.get());
  // Indexes carried over.
  EXPECT_NE(stale->FindIndex("d1", "d1_k"), nullptr);
}

TEST(StaleStatsTest, ShiftsNativeEstimatesNotTruth) {
  auto fresh = MakeTinyCatalog();
  auto stale = WithStaleStatistics(*fresh, 50.0);
  const Query q = MakeStarQuery(2);
  CardinalityEstimator fresh_est(fresh.get(), &q);
  CardinalityEstimator stale_est(stale.get(), &q);
  EXPECT_NEAR(stale_est.NativeJoinSelectivity(0),
              fresh_est.NativeJoinSelectivity(0) / 50.0, 1e-9);
}

}  // namespace
}  // namespace robustqp
