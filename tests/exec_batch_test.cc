// Differential tests for the batch execution engine: on random
// (query, plan, budget, spill-node) tuples the batch engine must produce
// an ExecutionResult that is *bit-identical* to the tuple engine's —
// same completion flag, same output_rows, same cost_used double, and the
// same NodeStats counters down to the exact tuple a budget abort lands
// on (including aborts that fall mid-batch). Morsel-parallel full runs
// must be deterministic across thread counts. Failures print the seed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/cost_ledger.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "storage/column_file.h"
#include "storage/hash_index.h"
#include "storage/stats_builder.h"
#include "storage/table.h"
#include "test_util.h"

namespace robustqp {
namespace {

using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

Executor MakeEngine(const Catalog* catalog, Executor::Engine engine,
                    int threads = 1, bool zone_maps = true,
                    bool compression = true) {
  Executor::Options options;
  options.engine = engine;
  options.num_threads = threads;
  options.use_zone_maps = zone_maps;
  options.use_compression = compression;
  return Executor(catalog, CostModel::PostgresFlavour(), options);
}

void ExpectSameResult(const ExecutionResult& a, const ExecutionResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.output_rows, b.output_rows) << what;
  EXPECT_EQ(a.cost_used, b.cost_used) << what;  // bitwise double equality
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size()) << what;
  for (size_t i = 0; i < a.node_stats.size(); ++i) {
    const NodeStats& x = a.node_stats[i];
    const NodeStats& y = b.node_stats[i];
    EXPECT_EQ(x.left_in, y.left_in) << what << " node " << i;
    EXPECT_EQ(x.right_in, y.right_in) << what << " node " << i;
    EXPECT_EQ(x.out, y.out) << what << " node " << i;
    ASSERT_EQ(x.filter_in.size(), y.filter_in.size()) << what << " node " << i;
    for (size_t k = 0; k < x.filter_in.size(); ++k) {
      EXPECT_EQ(x.filter_in[k], y.filter_in[k])
          << what << " node " << i << " filter " << k;
      EXPECT_EQ(x.filter_pass[k], y.filter_pass[k])
          << what << " node " << i << " filter " << k;
    }
  }
}

struct ExecInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
};

/// Random database + tree-join query, in the style of fuzz_property_test:
/// one fact table (sized >= min_fact_rows), 2-4 dimensions with zipf-skewed
/// FKs, random filters, random epp set. Indexes on most dimension keys so
/// index-NL plans participate.
ExecInstance MakeExecInstance(uint64_t seed, int64_t min_fact_rows = 2000) {
  Rng rng(seed);
  ExecInstance inst;
  inst.catalog = std::make_unique<Catalog>();

  const int num_tables = static_cast<int>(rng.UniformInt(3, 5));
  std::vector<std::string> names;
  std::vector<int64_t> sizes;
  for (int t = 0; t < num_tables; ++t) {
    names.push_back("t" + std::to_string(t));
    sizes.push_back(t == 0 ? rng.UniformInt(min_fact_rows, min_fact_rows + 4000)
                           : rng.UniformInt(20, 400));
  }

  std::vector<JoinPredicate> joins;
  std::vector<std::vector<std::pair<std::string, std::function<double(Rng&, int64_t)>>>>
      columns(static_cast<size_t>(num_tables));
  for (int t = 0; t < num_tables; ++t) {
    columns[static_cast<size_t>(t)].push_back(
        {"k" + std::to_string(t),
         [](Rng&, int64_t row) { return static_cast<double>(row + 1); }});
    const int64_t attr_domain = rng.UniformInt(4, 40);
    columns[static_cast<size_t>(t)].push_back(
        {"a" + std::to_string(t), [attr_domain](Rng& r, int64_t) {
           return static_cast<double>(r.UniformInt(1, attr_domain));
         }});
  }
  for (int t = 1; t < num_tables; ++t) {
    const int parent = static_cast<int>(rng.UniformInt(0, t - 1));
    const double theta = rng.UniformDouble(0.2, 1.2);
    auto sampler = std::make_shared<ZipfSampler>(
        sizes[static_cast<size_t>(parent)], theta);
    const std::string fk = "fk" + std::to_string(t);
    const int big =
        sizes[static_cast<size_t>(t)] >= sizes[static_cast<size_t>(parent)]
            ? t
            : parent;
    const int small = big == t ? parent : t;
    columns[static_cast<size_t>(big)].push_back(
        {fk, [sampler](Rng& r, int64_t) {
           return static_cast<double>(sampler->Sample(&r));
         }});
    joins.push_back({names[static_cast<size_t>(big)], fk,
                     names[static_cast<size_t>(small)],
                     "k" + std::to_string(small), ""});
  }

  for (int t = 0; t < num_tables; ++t) {
    std::vector<ColumnDef> defs;
    for (const auto& [cname, gen] : columns[static_cast<size_t>(t)]) {
      defs.push_back({cname, DataType::kInt64});
    }
    auto table = std::make_shared<Table>(
        TableSchema(names[static_cast<size_t>(t)], defs));
    for (int64_t r = 0; r < sizes[static_cast<size_t>(t)]; ++r) {
      for (size_t c = 0; c < columns[static_cast<size_t>(t)].size(); ++c) {
        table->column(static_cast<int>(c))
            .AppendInt(static_cast<int64_t>(
                columns[static_cast<size_t>(t)][c].second(rng, r)));
      }
    }
    RQP_CHECK(table->Finalize().ok());
    auto stats = ComputeTableStats(*table);
    RQP_CHECK(inst.catalog->AddTable(std::move(table), std::move(stats)).ok());
  }
  for (int t = 1; t < num_tables; ++t) {
    if (rng.Bernoulli(0.7)) {
      RQP_CHECK(inst.catalog
                        ->BuildIndex(names[static_cast<size_t>(t)],
                                     "k" + std::to_string(t))
                        .ok() ||
                true);
    }
  }

  std::vector<FilterPredicate> filters;
  for (int t = 1; t < num_tables && filters.size() < 2; ++t) {
    if (rng.Bernoulli(0.6)) {
      filters.push_back({names[static_cast<size_t>(t)],
                         "a" + std::to_string(t), CompareOp::kLe,
                         static_cast<double>(rng.UniformInt(2, 20))});
    }
  }

  std::vector<EppRef> epps;
  const int want = static_cast<int>(rng.UniformInt(2, 3));
  for (int j = 0; j < static_cast<int>(joins.size()) &&
                  static_cast<int>(epps.size()) < want;
       ++j) {
    epps.push_back(EppRef::Join(j));
  }
  if (!filters.empty() && rng.Bernoulli(0.5)) {
    epps.push_back(EppRef::Filter(0));
  }

  inst.query = std::make_unique<Query>("exbatch" + std::to_string(seed), names,
                                       joins, filters, epps);
  RQP_CHECK(inst.query->Validate(*inst.catalog).ok());
  return inst;
}

/// Random log-uniform selectivity point in [1e-4, 1]^dims.
EssPoint RandomPoint(Rng* rng, int dims) {
  EssPoint p(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    p[static_cast<size_t>(d)] =
        std::pow(10.0, -4.0 * rng->UniformDouble(0.0, 1.0));
  }
  return p;
}

class ExecBatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// The core differential property: tuple and batch engines agree exactly —
// on full runs, on budget-limited runs whose abort lands at arbitrary
// (mostly mid-batch) tuples, and on spill executions of epp subtrees.
TEST_P(ExecBatchDifferentialTest, TupleAndBatchAgreeExactly) {
  const uint64_t seed = GetParam();
  ExecInstance inst = MakeExecInstance(seed);
  Rng rng(seed * 7919 + 1);
  Executor tuple_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  Executor batch_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  std::set<std::string> shapes;
  for (int trial = 0; trial < 4; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    shapes.insert(plan->signature());
    const std::string tag =
        "seed " + std::to_string(seed) + " plan " + plan->signature();

    // Full runs.
    const Result<ExecutionResult> ft = tuple_exec.Execute(*plan, -1.0);
    const Result<ExecutionResult> fb = batch_exec.Execute(*plan, -1.0);
    ASSERT_TRUE(ft.ok()) << tag;
    ASSERT_TRUE(fb.ok()) << tag;
    ASSERT_TRUE(ft->completed) << tag;
    ExpectSameResult(*ft, *fb, tag + " [full]");

    // Budgeted runs: sweep fractions of the true cost so aborts land at
    // arbitrary positions inside batches (none of these budgets align
    // with a 1024-row morsel boundary in general).
    for (const double frac : {0.031, 0.22, 0.455, 0.71, 0.93, 0.997}) {
      const double budget = ft->cost_used * frac;
      const Result<ExecutionResult> bt = tuple_exec.Execute(*plan, budget);
      const Result<ExecutionResult> bb = batch_exec.Execute(*plan, budget);
      ASSERT_TRUE(bt.ok()) << tag;
      ASSERT_TRUE(bb.ok()) << tag;
      ExpectSameResult(*bt, *bb,
                       tag + " [budget " + std::to_string(budget) + "]");
    }

    // Spill executions (full and budget-aborted) on every epp subtree.
    for (int d = 0; d < dims; ++d) {
      const int node_id = plan->EppNodeId(d);
      if (node_id < 0) continue;
      const Result<ExecutionResult> st =
          tuple_exec.ExecuteSpill(*plan, node_id, -1.0);
      const Result<ExecutionResult> sb =
          batch_exec.ExecuteSpill(*plan, node_id, -1.0);
      ASSERT_TRUE(st.ok()) << tag;
      ASSERT_TRUE(sb.ok()) << tag;
      ExpectSameResult(*st, *sb,
                       tag + " [spill node " + std::to_string(node_id) + "]");

      const double sbudget = st->cost_used * 0.47;
      const Result<ExecutionResult> pt =
          tuple_exec.ExecuteSpill(*plan, node_id, sbudget);
      const Result<ExecutionResult> pb =
          batch_exec.ExecuteSpill(*plan, node_id, sbudget);
      ASSERT_TRUE(pt.ok()) << tag;
      ASSERT_TRUE(pb.ok()) << tag;
      ExpectSameResult(
          *pt, *pb,
          tag + " [spill-budget node " + std::to_string(node_id) + "]");
    }
  }
}

// Full (non-budgeted, non-spill) batch runs must be bit-identical at any
// thread count — and identical to the tuple engine. These fact tables fit
// in one chunk; shard_test's driver matrix covers multi-chunk tables,
// where chunks actually fan out.
TEST_P(ExecBatchDifferentialTest, MorselParallelScansAreDeterministic) {
  const uint64_t seed = GetParam() + 5000;
  ExecInstance inst = MakeExecInstance(seed, /*min_fact_rows=*/6000);
  Rng rng(seed * 104729 + 3);
  Executor tuple_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  Executor batch1 = MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 1);
  Executor batch2 = MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 2);
  Executor batch4 = MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 4);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  for (int trial = 0; trial < 3; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag =
        "seed " + std::to_string(seed) + " plan " + plan->signature();
    const Result<ExecutionResult> rt = tuple_exec.Execute(*plan, -1.0);
    const Result<ExecutionResult> r1 = batch1.Execute(*plan, -1.0);
    const Result<ExecutionResult> r2 = batch2.Execute(*plan, -1.0);
    const Result<ExecutionResult> r4 = batch4.Execute(*plan, -1.0);
    ASSERT_TRUE(rt.ok() && r1.ok() && r2.ok() && r4.ok()) << tag;
    ExpectSameResult(*rt, *r1, tag + " [tuple vs 1t]");
    ExpectSameResult(*r1, *r2, tag + " [1t vs 2t]");
    ExpectSameResult(*r1, *r4, tag + " [1t vs 4t]");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecBatchDifferentialTest,
                         ::testing::Values(11, 23, 37, 41, 59, 67, 73, 89),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Deterministic golden: a budget that exhausts strictly inside a morsel.
// The engines must agree on the exact abort tuple, and the abort must in
// fact land mid-batch (some executed scan consumed a number of rows that
// is not a multiple of the 1024-row batch width).
TEST(ExecBatchGoldenTest, MidBatchAbortLandsOnSameTuple) {
  const std::unique_ptr<Catalog> catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog.get(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.01, 0.0025, 0.02});
  Executor tuple_exec = MakeEngine(catalog.get(), Executor::Engine::kTuple);
  Executor batch_exec = MakeEngine(catalog.get(), Executor::Engine::kBatch);

  const Result<ExecutionResult> full = tuple_exec.Execute(*plan, -1.0);
  ASSERT_TRUE(full.ok() && full->completed);

  bool saw_mid_batch_abort = false;
  for (const double frac : {0.11, 0.29, 0.52, 0.78, 0.96}) {
    const double budget = full->cost_used * frac;
    const Result<ExecutionResult> bt = tuple_exec.Execute(*plan, budget);
    const Result<ExecutionResult> bb = batch_exec.Execute(*plan, budget);
    ASSERT_TRUE(bt.ok() && bb.ok());
    EXPECT_FALSE(bt->completed);
    ExpectSameResult(*bt, *bb, "budget " + std::to_string(budget));
    for (const NodeStats& st : bb->node_stats) {
      if (st.left_in > 0 && st.left_in % 1024 != 0) saw_mid_batch_abort = true;
    }
  }
  EXPECT_TRUE(saw_mid_batch_abort)
      << "sweep never aborted mid-batch; weaken the test's assumptions";
}

// Budget edge cases around the exact completion cost: the abort predicate
// is strictly `total > budget`, so a budget equal to the full run's cost
// completes on both engines, while one representable double below it
// aborts — on the same tuple in both engines.
TEST(ExecBatchGoldenTest, BudgetExactlyMetAndJustMissed) {
  const std::unique_ptr<Catalog> catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog.get(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.01, 0.0025, 0.02});
  Executor tuple_exec = MakeEngine(catalog.get(), Executor::Engine::kTuple);
  Executor batch_exec = MakeEngine(catalog.get(), Executor::Engine::kBatch);

  const Result<ExecutionResult> full = tuple_exec.Execute(*plan, -1.0);
  ASSERT_TRUE(full.ok() && full->completed);
  const double exact = full->cost_used;

  // Budget exactly met: completes, charges exactly the budget.
  const Result<ExecutionResult> et = tuple_exec.Execute(*plan, exact);
  const Result<ExecutionResult> eb = batch_exec.Execute(*plan, exact);
  ASSERT_TRUE(et.ok() && eb.ok());
  EXPECT_TRUE(et->completed);
  EXPECT_EQ(et->cost_used, exact);
  ExpectSameResult(*et, *eb, "budget == exact cost");

  // One ulp below: the final cost event exceeds the budget, so the run
  // aborts on the very last charge of the plan.
  const double just_under = std::nextafter(exact, 0.0);
  const Result<ExecutionResult> ut = tuple_exec.Execute(*plan, just_under);
  const Result<ExecutionResult> ub = batch_exec.Execute(*plan, just_under);
  ASSERT_TRUE(ut.ok() && ub.ok());
  EXPECT_FALSE(ut->completed);
  EXPECT_LE(ut->cost_used, just_under);
  ExpectSameResult(*ut, *ub, "budget one ulp under exact cost");
}

// A transient fault mid-spill: the spill attempt's lost work is charged
// (cost_used = clean cost + retried work) while the retried attempt's
// learned counters stand — identically on both engines, because fault
// draws happen before the attempt, outside engine internals.
TEST(ExecBatchGoldenTest, MidSpillTransientChargesLostWorkOnBothEngines) {
  const std::unique_ptr<Catalog> catalog = MakeTinyCatalog();
  const Query q = MakeStarQuery(3);
  Optimizer opt(catalog.get(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.01, 0.0025, 0.02});
  const int node_id = plan->EppNodeId(0);
  ASSERT_GE(node_id, 0);
  Executor tuple_exec = MakeEngine(catalog.get(), Executor::Engine::kTuple);
  Executor batch_exec = MakeEngine(catalog.get(), Executor::Engine::kBatch);

  const Result<ExecutionResult> clean =
      tuple_exec.ExecuteSpill(*plan, node_id, -1.0);
  ASSERT_TRUE(clean.ok() && clean->completed);

  ASSERT_TRUE(FaultInjector::Configure("exec.spill.run:after=0", 42).ok());
  ExecutionResult rt, rb;
  {
    FaultStreamScope scope(0);
    Result<ExecutionResult> r = tuple_exec.ExecuteSpill(*plan, node_id, -1.0);
    ASSERT_TRUE(r.ok());
    rt = r.MoveValue();
  }
  {
    FaultStreamScope scope(0);
    Result<ExecutionResult> r = batch_exec.ExecuteSpill(*plan, node_id, -1.0);
    ASSERT_TRUE(r.ok());
    rb = r.MoveValue();
  }
  FaultInjector::Disarm();

  EXPECT_EQ(rt.robustness.transient_retries, 1);
  EXPECT_TRUE(rt.completed);
  // Lost work is charged on top of the clean attempt's cost.
  EXPECT_DOUBLE_EQ(rt.cost_used,
                   clean->cost_used + rt.robustness.retried_cost);
  // The counters of the surviving attempt are the clean run's.
  ASSERT_EQ(rt.node_stats.size(), clean->node_stats.size());
  for (size_t i = 0; i < rt.node_stats.size(); ++i) {
    EXPECT_EQ(rt.node_stats[i].out, clean->node_stats[i].out);
  }
  // Same stream => same severity draw => bit-identical charge on the
  // batch engine too.
  EXPECT_EQ(rb.robustness.transient_retries, 1);
  EXPECT_EQ(rb.cost_used, rt.cost_used);
  ExpectSameResult(rt, rb, "faulted spill, tuple vs batch");
}

// Differential fuzz under an armed injector: with per-attempt pre-drawn
// faults the engines must still agree exactly — completion, abort tuple,
// cost_used including retry charges — stream-scoped so both engines see
// the identical fault sequence.
TEST_P(ExecBatchDifferentialTest, TupleAndBatchAgreeUnderFaults) {
  const uint64_t seed = GetParam() + 9000;
  ExecInstance inst = MakeExecInstance(seed);
  Rng rng(seed * 6151 + 5);
  Executor tuple_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  Executor batch_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  // Transients and spikes on the shared operator sites. The batch engine
  // additionally draws exec.batch.pipeline, but per-site counters are
  // independent, so the shared sites' sequences stay identical.
  ASSERT_TRUE(FaultInjector::Configure(
                  "exec.scan.read:p=0.3;exec.hashjoin.build:p=0.3;"
                  "exec.nljoin.pair:p=0.2,kind=spike,mult=2",
                  seed)
                  .ok());
  for (int trial = 0; trial < 3; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag =
        "seed " + std::to_string(seed) + " plan " + plan->signature();
    for (const double frac : {-1.0, 0.9, 0.45}) {
      FaultInjector::Disarm();
      const Result<ExecutionResult> clean = tuple_exec.Execute(*plan, -1.0);
      ASSERT_TRUE(clean.ok()) << tag;
      const double budget = frac < 0.0 ? -1.0 : clean->cost_used * frac;
      ASSERT_TRUE(FaultInjector::Configure(
                      "exec.scan.read:p=0.3;"
                      "exec.hashjoin.build:p=0.3;"
                      "exec.nljoin.pair:p=0.2,kind=spike,mult=2",
                      seed)
                      .ok());
      ExecutionResult rt, rb;
      bool rt_ok, rb_ok;
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = tuple_exec.Execute(*plan, budget);
        rt_ok = r.ok();
        if (rt_ok) rt = r.MoveValue();
        // Unbudgeted retry exhaustion is a legal transient outcome; any
        // other error is a real failure.
        if (!rt_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = batch_exec.Execute(*plan, budget);
        rb_ok = r.ok();
        if (rb_ok) rb = r.MoveValue();
        if (!rb_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      // Same stream, same draws: the engines must agree on the outcome
      // shape, not just on successful results.
      ASSERT_EQ(rt_ok, rb_ok) << tag;
      if (!rt_ok) continue;
      ExpectSameResult(rt, rb, tag + " [faulted, budget " +
                                   std::to_string(budget) + "]");
      EXPECT_EQ(rt.robustness.transient_retries,
                rb.robustness.transient_retries)
          << tag;
      EXPECT_EQ(rt.robustness.cost_spikes, rb.robustness.cost_spikes) << tag;
      EXPECT_EQ(rt.robustness.retried_cost, rb.robustness.retried_cost)
          << tag;
    }
  }
  FaultInjector::Disarm();
}

// ---------------------------------------------------------------------------
// Zone-map / kernel differential fuzz: predicates engineered to stress
// block classification (block-boundary constants, clustered columns,
// NaN/±inf doubles, empty ranges) must yield identical tuples, NodeStats,
// and cost_used across (a) the tuple engine — whose per-row loops and
// node-based join structures are the legacy reference — (b) the batch
// engine with zone-map pruning, and (c) the batch engine with pruning
// disabled. Any block a pruned scan skips but still has to account for
// shows up as a counter diff here.
// ---------------------------------------------------------------------------

/// Star instance tuned for zone maps: a multi-block fact table with a
/// clustered int column (monotone in row order, so blocks have disjoint
/// ranges) and a double column salted with NaN/±inf/-0.0; filter
/// constants drawn from block edges and out-of-domain values. `policy`
/// picks the storage layout — the same seed yields identical data and
/// query under every policy, which is what the compression differential
/// tests lean on (fk1/fk2/c0 are dictionary-friendly, k0 is serial so it
/// packs, d0's salted doubles abandon the dictionary under kAuto).
ExecInstance MakeZoneInstance(uint64_t seed,
                              const EncodingPolicy& policy =
                                  EncodingPolicy::Raw()) {
  Rng rng(seed);
  ExecInstance inst;
  inst.catalog = std::make_unique<Catalog>();

  const int64_t fact_rows = rng.UniformInt(3 * 4096 - 100, 4 * 4096 + 100);
  const int64_t dim_rows[2] = {rng.UniformInt(40, 250),
                               rng.UniformInt(40, 250)};

  // Fact table t0: serial key, two FKs, clustered c0, salted double d0.
  {
    TableSchema schema("t0", {{"k0", DataType::kInt64},
                              {"fk1", DataType::kInt64},
                              {"fk2", DataType::kInt64},
                              {"c0", DataType::kInt64},
                              {"d0", DataType::kDouble}});
    auto table = std::make_shared<Table>(schema, policy);
    const double inf = std::numeric_limits<double>::infinity();
    for (int64_t r = 0; r < fact_rows; ++r) {
      table->column(0).AppendInt(r + 1);
      table->column(1).AppendInt(rng.UniformInt(1, dim_rows[0]));
      table->column(2).AppendInt(rng.UniformInt(1, dim_rows[1]));
      table->column(3).AppendInt(r / 97);  // clustered: ascending in r
      double d = static_cast<double>(r) * 0.5;
      if (rng.Bernoulli(0.01)) d = std::nan("");
      if (rng.Bernoulli(0.005)) d = inf;
      if (rng.Bernoulli(0.005)) d = -inf;
      if (rng.Bernoulli(0.005)) d = -0.0;
      table->column(4).AppendDouble(d);
    }
    RQP_CHECK(table->Finalize().ok());
    auto stats = ComputeTableStats(*table);
    RQP_CHECK(inst.catalog->AddTable(std::move(table), std::move(stats)).ok());
  }
  for (int t = 0; t < 2; ++t) {
    const std::string name = "t" + std::to_string(t + 1);
    TableSchema schema(name, {{"k" + std::to_string(t + 1), DataType::kInt64},
                              {"a" + std::to_string(t + 1), DataType::kInt64}});
    auto table = std::make_shared<Table>(schema, policy);
    for (int64_t r = 0; r < dim_rows[t]; ++r) {
      table->column(0).AppendInt(r + 1);
      table->column(1).AppendInt(rng.UniformInt(1, 20));
    }
    RQP_CHECK(table->Finalize().ok());
    auto stats = ComputeTableStats(*table);
    RQP_CHECK(inst.catalog->AddTable(std::move(table), std::move(stats)).ok());
    RQP_CHECK(
        inst.catalog->BuildIndex(name, "k" + std::to_string(t + 1)).ok());
  }

  const std::vector<JoinPredicate> joins = {{"t0", "fk1", "t1", "k1", ""},
                                            {"t0", "fk2", "t2", "k2", ""}};

  // Filter constants that land on or next to zone-block and morsel
  // boundaries, plus out-of-domain (empty-range) and special values.
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq};
  auto pick_op = [&]() {
    return ops[rng.UniformInt(0, 4)];
  };
  const double c0_max = static_cast<double>((fact_rows - 1) / 97);
  const double c0_candidates[] = {
      0.0,
      static_cast<double>(1024 / 97),
      static_cast<double>(4095 / 97),
      static_cast<double>(4096 / 97),
      static_cast<double>(4097 / 97),
      c0_max / 2.0,
      c0_max,
      c0_max + 5.0,  // empty range for kGt/kGe/kEq
      -3.0,          // empty range for kLt/kLe/kEq
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double d0_candidates[] = {
      0.0, -0.0, 512.0, 2048.0, static_cast<double>(fact_rows) * 0.25,
      inf, -inf, std::nan(""),  // NaN literal: satisfies nothing
  };
  std::vector<FilterPredicate> filters;
  filters.push_back({"t0", "c0", pick_op(),
                     c0_candidates[rng.UniformInt(0, 8)]});
  if (rng.Bernoulli(0.8)) {
    filters.push_back({"t0", "d0", pick_op(),
                       d0_candidates[rng.UniformInt(0, 7)]});
  }
  if (rng.Bernoulli(0.5)) {
    filters.push_back({"t1", "a1", CompareOp::kLe,
                       static_cast<double>(rng.UniformInt(2, 18))});
  }

  const std::vector<EppRef> epps = {EppRef::Join(0), EppRef::Join(1)};
  inst.query = std::make_unique<Query>(
      "zonefuzz" + std::to_string(seed), std::vector<std::string>{"t0", "t1", "t2"},
      joins, filters, epps);
  RQP_CHECK(inst.query->Validate(*inst.catalog).ok());
  return inst;
}

class ZoneMapDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZoneMapDifferentialTest, PrunedUnprunedAndTupleAgreeExactly) {
  const uint64_t seed = GetParam();
  ExecInstance inst = MakeZoneInstance(seed);
  Rng rng(seed * 2713 + 9);
  Executor tuple_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  Executor pruned =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 1, true);
  Executor unpruned =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 1, false);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  for (int trial = 0; trial < 4; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag =
        "seed " + std::to_string(seed) + " plan " + plan->signature();

    const Result<ExecutionResult> ft = tuple_exec.Execute(*plan, -1.0);
    const Result<ExecutionResult> fp = pruned.Execute(*plan, -1.0);
    const Result<ExecutionResult> fu = unpruned.Execute(*plan, -1.0);
    ASSERT_TRUE(ft.ok() && fp.ok() && fu.ok()) << tag;
    ExpectSameResult(*ft, *fp, tag + " [full tuple vs pruned]");
    ExpectSameResult(*fp, *fu, tag + " [full pruned vs unpruned]");

    // Budgeted: pruned scans must charge skipped blocks as scanned, so
    // the abort lands on the same tuple whether or not blocks were read.
    for (const double frac : {0.18, 0.62, 0.94}) {
      const double budget = ft->cost_used * frac;
      const Result<ExecutionResult> bt = tuple_exec.Execute(*plan, budget);
      const Result<ExecutionResult> bp = pruned.Execute(*plan, budget);
      const Result<ExecutionResult> bu = unpruned.Execute(*plan, budget);
      ASSERT_TRUE(bt.ok() && bp.ok() && bu.ok()) << tag;
      ExpectSameResult(*bt, *bp,
                       tag + " [budget " + std::to_string(budget) + " pruned]");
      ExpectSameResult(*bp, *bu, tag + " [budget " + std::to_string(budget) +
                                     " pruned vs unpruned]");
    }

    // Spill executions on the epp subtrees.
    for (int d = 0; d < dims; ++d) {
      const int node_id = plan->EppNodeId(d);
      if (node_id < 0) continue;
      const Result<ExecutionResult> st =
          tuple_exec.ExecuteSpill(*plan, node_id, -1.0);
      const Result<ExecutionResult> sp =
          pruned.ExecuteSpill(*plan, node_id, -1.0);
      const Result<ExecutionResult> su =
          unpruned.ExecuteSpill(*plan, node_id, -1.0);
      ASSERT_TRUE(st.ok() && sp.ok() && su.ok()) << tag;
      ExpectSameResult(*st, *sp,
                       tag + " [spill " + std::to_string(node_id) + "]");
      ExpectSameResult(*sp, *su, tag + " [spill " + std::to_string(node_id) +
                                     " pruned vs unpruned]");
    }
  }
}

// The same agreement must hold with the fault injector armed: fault draws
// happen per attempt outside engine internals, so pruning cannot shift
// the fault sequence or the retry accounting.
TEST_P(ZoneMapDifferentialTest, PrunedUnprunedAgreeUnderFaults) {
  const uint64_t seed = GetParam() + 400;
  ExecInstance inst = MakeZoneInstance(seed);
  Rng rng(seed * 911 + 4);
  Executor tuple_exec =
      MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  Executor pruned =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 1, true);
  Executor unpruned =
      MakeEngine(inst.catalog.get(), Executor::Engine::kBatch, 1, false);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  const char* spec =
      "exec.scan.read:p=0.3;exec.hashjoin.build:p=0.3;"
      "exec.nljoin.pair:p=0.2,kind=spike,mult=2";
  for (int trial = 0; trial < 2; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag =
        "seed " + std::to_string(seed) + " plan " + plan->signature();
    FaultInjector::Disarm();
    const Result<ExecutionResult> clean = tuple_exec.Execute(*plan, -1.0);
    ASSERT_TRUE(clean.ok()) << tag;
    for (const double frac : {-1.0, 0.55}) {
      const double budget = frac < 0.0 ? -1.0 : clean->cost_used * frac;
      ExecutionResult rt, rp, ru;
      bool rt_ok, rp_ok, ru_ok;
      ASSERT_TRUE(FaultInjector::Configure(spec, seed).ok());
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = tuple_exec.Execute(*plan, budget);
        rt_ok = r.ok();
        if (rt_ok) rt = r.MoveValue();
        if (!rt_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = pruned.Execute(*plan, budget);
        rp_ok = r.ok();
        if (rp_ok) rp = r.MoveValue();
        if (!rp_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = unpruned.Execute(*plan, budget);
        ru_ok = r.ok();
        if (ru_ok) ru = r.MoveValue();
        if (!ru_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      FaultInjector::Disarm();
      ASSERT_EQ(rt_ok, rp_ok) << tag;
      ASSERT_EQ(rp_ok, ru_ok) << tag;
      if (!rt_ok) continue;
      ExpectSameResult(rt, rp, tag + " [faulted tuple vs pruned]");
      ExpectSameResult(rp, ru, tag + " [faulted pruned vs unpruned]");
      EXPECT_EQ(rp.robustness.transient_retries, ru.robustness.transient_retries)
          << tag;
      EXPECT_EQ(rp.robustness.retried_cost, ru.robustness.retried_cost) << tag;
    }
  }
  FaultInjector::Disarm();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneMapDifferentialTest,
                         ::testing::Values(3, 17, 29, 53, 71),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Compression differential fuzz: the same instance built raw and encoded
// must be indistinguishable through every cost-visible surface — tuple
// engine, batch fused filter-on-compressed, batch decode-then-filter,
// zone maps on and off, full / budgeted / spill runs, faults armed.
// ---------------------------------------------------------------------------

class CompressionDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CompressionDifferentialTest, EncodedAndRawAgreeExactly) {
  const uint64_t seed = GetParam();
  for (const Encoding kind :
       {Encoding::kAuto, Encoding::kDict, Encoding::kPacked}) {
    EncodingPolicy policy;
    policy.kind = kind;
    ExecInstance raw = MakeZoneInstance(seed);
    ExecInstance enc = MakeZoneInstance(seed, policy);
    Rng rng(seed * 131 + static_cast<uint64_t>(kind));

    Executor tuple_raw = MakeEngine(raw.catalog.get(), Executor::Engine::kTuple);
    Executor tuple_enc = MakeEngine(enc.catalog.get(), Executor::Engine::kTuple);
    Executor batch_raw = MakeEngine(raw.catalog.get(), Executor::Engine::kBatch);
    Executor fused =
        MakeEngine(enc.catalog.get(), Executor::Engine::kBatch, 1, true, true);
    Executor decoded =
        MakeEngine(enc.catalog.get(), Executor::Engine::kBatch, 1, true, false);
    Executor fused_nz =
        MakeEngine(enc.catalog.get(), Executor::Engine::kBatch, 1, false, true);

    Optimizer opt(raw.catalog.get(), raw.query.get());
    const int dims = raw.query->num_epps();
    for (int trial = 0; trial < 2; ++trial) {
      const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
      const std::string tag = "seed " + std::to_string(seed) + " enc " +
                              EncodingName(kind) + " plan " +
                              plan->signature();

      const Result<ExecutionResult> rt = tuple_raw.Execute(*plan, -1.0);
      const Result<ExecutionResult> et = tuple_enc.Execute(*plan, -1.0);
      const Result<ExecutionResult> rb = batch_raw.Execute(*plan, -1.0);
      const Result<ExecutionResult> ef = fused.Execute(*plan, -1.0);
      const Result<ExecutionResult> ed = decoded.Execute(*plan, -1.0);
      const Result<ExecutionResult> en = fused_nz.Execute(*plan, -1.0);
      ASSERT_TRUE(rt.ok() && et.ok() && rb.ok() && ef.ok() && ed.ok() &&
                  en.ok())
          << tag;
      ExpectSameResult(*rt, *et, tag + " [tuple raw vs encoded]");
      ExpectSameResult(*rt, *rb, tag + " [tuple vs batch raw]");
      ExpectSameResult(*rb, *ef, tag + " [batch raw vs fused]");
      ExpectSameResult(*ef, *ed, tag + " [fused vs decode-then-filter]");
      ExpectSameResult(*ef, *en, tag + " [fused zones on vs off]");

      // Budget aborts must land on the same tuple on every storage form.
      for (const double frac : {0.22, 0.71}) {
        const double budget = rt->cost_used * frac;
        const std::string btag =
            tag + " [budget " + std::to_string(budget) + "]";
        const Result<ExecutionResult> bt = tuple_raw.Execute(*plan, budget);
        const Result<ExecutionResult> bf = fused.Execute(*plan, budget);
        const Result<ExecutionResult> bd = decoded.Execute(*plan, budget);
        const Result<ExecutionResult> bn = fused_nz.Execute(*plan, budget);
        ASSERT_TRUE(bt.ok() && bf.ok() && bd.ok() && bn.ok()) << btag;
        ExpectSameResult(*bt, *bf, btag + " tuple vs fused");
        ExpectSameResult(*bf, *bd, btag + " fused vs decoded");
        ExpectSameResult(*bf, *bn, btag + " zones on vs off");
      }

      // Spill executions over the epp subtrees.
      for (int d = 0; d < dims; ++d) {
        const int node_id = plan->EppNodeId(d);
        if (node_id < 0) continue;
        const std::string stag = tag + " [spill " + std::to_string(node_id) +
                                 "]";
        const Result<ExecutionResult> sr =
            batch_raw.ExecuteSpill(*plan, node_id, -1.0);
        const Result<ExecutionResult> sf =
            fused.ExecuteSpill(*plan, node_id, -1.0);
        const Result<ExecutionResult> sd =
            decoded.ExecuteSpill(*plan, node_id, -1.0);
        ASSERT_TRUE(sr.ok() && sf.ok() && sd.ok()) << stag;
        ExpectSameResult(*sr, *sf, stag + " raw vs fused");
        ExpectSameResult(*sf, *sd, stag + " fused vs decoded");
      }
    }
  }
}

// Armed fault specs must not distinguish the storage forms either: the
// per-attempt draw sequence depends on charged events, which compression
// leaves untouched.
TEST_P(CompressionDifferentialTest, EncodedAndRawAgreeUnderFaults) {
  const uint64_t seed = GetParam() + 800;
  EncodingPolicy policy;  // kAuto
  ExecInstance raw = MakeZoneInstance(seed);
  ExecInstance enc = MakeZoneInstance(seed, policy);
  Rng rng(seed * 577 + 1);
  Executor batch_raw = MakeEngine(raw.catalog.get(), Executor::Engine::kBatch);
  Executor fused =
      MakeEngine(enc.catalog.get(), Executor::Engine::kBatch, 1, true, true);
  Executor decoded =
      MakeEngine(enc.catalog.get(), Executor::Engine::kBatch, 1, true, false);

  Optimizer opt(raw.catalog.get(), raw.query.get());
  const int dims = raw.query->num_epps();
  const char* spec =
      "exec.scan.read:p=0.3;exec.hashjoin.build:p=0.3;"
      "exec.nljoin.pair:p=0.2,kind=spike,mult=2";
  for (int trial = 0; trial < 2; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag = "seed " + std::to_string(seed) + " plan " +
                            plan->signature();
    FaultInjector::Disarm();
    const Result<ExecutionResult> clean = batch_raw.Execute(*plan, -1.0);
    ASSERT_TRUE(clean.ok()) << tag;
    for (const double frac : {-1.0, 0.55}) {
      const double budget = frac < 0.0 ? -1.0 : clean->cost_used * frac;
      ExecutionResult rr, rf, rd;
      bool rr_ok, rf_ok, rd_ok;
      ASSERT_TRUE(FaultInjector::Configure(spec, seed).ok());
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = batch_raw.Execute(*plan, budget);
        rr_ok = r.ok();
        if (rr_ok) rr = r.MoveValue();
        if (!rr_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = fused.Execute(*plan, budget);
        rf_ok = r.ok();
        if (rf_ok) rf = r.MoveValue();
        if (!rf_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      {
        FaultStreamScope scope(static_cast<uint64_t>(trial));
        Result<ExecutionResult> r = decoded.Execute(*plan, budget);
        rd_ok = r.ok();
        if (rd_ok) rd = r.MoveValue();
        if (!rd_ok) {
          ASSERT_TRUE(r.status().IsTransient()) << tag;
        }
      }
      FaultInjector::Disarm();
      ASSERT_EQ(rr_ok, rf_ok) << tag;
      ASSERT_EQ(rf_ok, rd_ok) << tag;
      if (!rr_ok) continue;
      ExpectSameResult(rr, rf, tag + " [faulted raw vs fused]");
      ExpectSameResult(rf, rd, tag + " [faulted fused vs decoded]");
      EXPECT_EQ(rr.robustness.transient_retries, rf.robustness.transient_retries)
          << tag;
      EXPECT_EQ(rr.robustness.retried_cost, rf.robustness.retried_cost) << tag;
    }
  }
  FaultInjector::Disarm();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionDifferentialTest,
                         ::testing::Values(7, 23, 47),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Budgeted-abort boundaries. A budgeted batch run sizes its morsels from
// the remaining slack and replays only the morsel that crosses the
// budget. Each case below aims the abort at a spot
// where that arithmetic could slip — the first morsel of an NLJ over a
// large inner buffer, the first and last row of a 1024-row-aligned window,
// a slack cap already down to one row, a sort-merge batch, index-NL and
// hash-probe stages — with budgets at exact ledger totals, their
// std::nextafter neighbours and fractions of the true cost, on resident
// and mapped storage, zone maps on and off, and an armed exec.* spec.
// ---------------------------------------------------------------------------

/// Serializes every table to a column file and reopens it mapped, with
/// the same indexes. The files are unlinked once mapped.
std::unique_ptr<Catalog> MapCatalog(const Catalog& resident) {
  char tmpl[] = "/tmp/rqp_abort_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  RQP_CHECK(dir != nullptr);
  auto mapped = std::make_unique<Catalog>();
  for (const std::string& name : resident.TableNames()) {
    const CatalogEntry* entry = resident.FindTable(name);
    const std::string path = std::string(dir) + "/" + name + ".rqp";
    RQP_CHECK(WriteTableFile(*entry->table, entry->stats, path).ok());
    MappedTable mt;
    RQP_CHECK(OpenMappedTable(path, &mt).ok());
    std::remove(path.c_str());
    RQP_CHECK(mapped->AddTable(mt.table, std::move(mt.stats)).ok());
    for (const auto& [column, index] : entry->indexes) {
      (void)index;
      RQP_CHECK(mapped->BuildIndex(name, column).ok());
    }
  }
  rmdir(dir);
  return mapped;
}

/// Fact f (9000 rows: three zone blocks, nine 1024-row windows) joined to
/// an indexed d1 of 3000 rows. f.c is clustered, so `c <= 60` passes the
/// first block whole, the second in part and proves the third empty.
struct AbortInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
};

AbortInstance MakeAbortInstance() {
  Rng rng(2026);
  AbortInstance inst;
  inst.catalog = std::make_unique<Catalog>();
  auto f = std::make_shared<Table>(TableSchema(
      "f", {{"k", DataType::kInt64},
            {"fk1", DataType::kInt64},
            {"c", DataType::kInt64},
            {"a", DataType::kInt64}}));
  for (int64_t r = 0; r < 9000; ++r) {
    f->column(0).AppendInt(r + 1);
    f->column(1).AppendInt(rng.UniformInt(1, 3000));
    f->column(2).AppendInt(r / 97);
    f->column(3).AppendInt(rng.UniformInt(1, 16));
  }
  RQP_CHECK(f->Finalize().ok());
  auto f_stats = ComputeTableStats(*f);
  RQP_CHECK(inst.catalog->AddTable(std::move(f), std::move(f_stats)).ok());
  auto d1 = std::make_shared<Table>(
      TableSchema("d1", {{"kd1", DataType::kInt64}, {"ad1", DataType::kInt64}}));
  for (int64_t r = 0; r < 3000; ++r) {
    d1->column(0).AppendInt(r + 1);
    d1->column(1).AppendInt(rng.UniformInt(1, 8));
  }
  RQP_CHECK(d1->Finalize().ok());
  auto d1_stats = ComputeTableStats(*d1);
  RQP_CHECK(inst.catalog->AddTable(std::move(d1), std::move(d1_stats)).ok());
  RQP_CHECK(inst.catalog->BuildIndex("d1", "kd1").ok());
  inst.query = std::make_unique<Query>(
      "abort", std::vector<std::string>{"f", "d1"},
      std::vector<JoinPredicate>{{"f", "fk1", "d1", "kd1", ""}},
      std::vector<FilterPredicate>{{"f", "c", CompareOp::kLe, 60.0, false, ""},
                                   {"f", "a", CompareOp::kLe, 12.0, false, ""},
                                   {"d1", "ad1", CompareOp::kLe, 7.0, false,
                                    ""}},
      std::vector<EppRef>{EppRef::Join(0)});
  RQP_CHECK(inst.query->Validate(*inst.catalog).ok());
  return inst;
}

std::unique_ptr<PlanNode> AbortScan(int table, std::vector<int> filters) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kSeqScan;
  n->table_idx = table;
  n->filter_indices = std::move(filters);
  return n;
}

/// Join of f (table 0, filters c and a) and d1 (table 1, filter ad1);
/// `f_left` puts f on the left. Node ids: join 0, left 1, right 2.
std::unique_ptr<PlanNode> AbortJoin(PlanOp op, bool f_left) {
  auto n = std::make_unique<PlanNode>();
  n->op = op;
  n->join_indices = {0};
  auto f = AbortScan(0, {0, 1});
  auto d1 = AbortScan(1, {2});
  n->left = f_left ? std::move(f) : std::move(d1);
  n->right = f_left ? std::move(d1) : std::move(f);
  return n;
}

/// The ledger a run has charged once the streaming pipeline over f has
/// consumed its first `k` rows: `base` (every earlier pipeline) plus each
/// row's events — one scan event, then for a surviving row the join's
/// per-row events. Valid for every shape below except sort-merge.
CostLedger LedgerAfterFactRows(const Catalog& catalog, PlanOp op, bool spill,
                               int64_t k) {
  const Table& f = *catalog.FindTable("f")->table;
  const Table& d1 = *catalog.FindTable("d1")->table;
  std::vector<int64_t> inner(3001, 0);  // d1 rows with kd1 == key, ad1 <= 7
  int64_t m = 0;
  for (int64_t r = 0; r < d1.num_rows(); ++r) {
    if (d1.column(1).GetNumeric(r) <= 7.0) {
      ++inner[static_cast<size_t>(d1.column(0).GetNumeric(r))];
      ++m;
    }
  }
  CostLedger l;
  if (!spill && op == PlanOp::kNLJoin) {
    l.scan_tuple += d1.num_rows();
    l.nlj_materialize_tuple += m;
  } else if (!spill && op == PlanOp::kHashJoin) {
    l.scan_tuple += d1.num_rows();
    l.hash_build_tuple += m;
  }
  for (int64_t r = 0; r < k; ++r) {
    ++l.scan_tuple;
    if (spill || f.column(2).GetNumeric(r) > 60.0 ||
        f.column(3).GetNumeric(r) > 12.0) {
      continue;
    }
    const int64_t matches =
        inner[static_cast<size_t>(f.column(1).GetNumeric(r))];
    if (op == PlanOp::kNLJoin) l.nlj_pair += m;
    if (op == PlanOp::kHashJoin) ++l.hash_probe_tuple;
    if (op == PlanOp::kIndexNLJoin) {
      ++l.index_probe;
      ++l.index_fetch;  // kd1 is unique and every fk1 has its row
    }
    l.join_output_tuple += matches;
  }
  return l;
}

TEST(BudgetedAbortBoundaryTest, BatchMatchesTupleAtEveryAbortShape) {
  const AbortInstance inst = MakeAbortInstance();
  const std::unique_ptr<Catalog> mapped = MapCatalog(*inst.catalog);
  const CostParams params = CostModel::PostgresFlavour().params();
  const char* spec = "exec.*:p=0.2";

  struct Shape {
    std::string name;
    PlanOp op;
    bool f_left;
    bool spill;  // spill the f scan: a scan-only pipeline
    std::vector<int64_t> rows;  // abort targets: f rows consumed
  };
  const std::vector<int64_t> wide = {0,    1,    15,   16,   17,   1023,
                                     1024, 1025, 2047, 2048, 4095, 4096,
                                     4097, 6000, 8191, 8192, 8193, 8999};
  const std::vector<Shape> shapes = {
      // PlanBouquet's NLJ shape: ~2600 materialized inner rows, aborts
      // inside the first outer morsels and around the first window edge.
      {"nlj", PlanOp::kNLJoin, true, false,
       {0, 1, 2, 15, 16, 17, 47, 48, 49, 1023, 1024, 1025}},
      {"hash-probe", PlanOp::kHashJoin, false, false, wide},
      {"index-nl", PlanOp::kIndexNLJoin, true, false, wide},
      {"scan-spill", PlanOp::kHashJoin, false, true, wide},
      {"sort-merge", PlanOp::kSortMergeJoin, true, false, {}},
  };

  for (const Shape& shape : shapes) {
    const Plan plan(inst.query.get(), AbortJoin(shape.op, shape.f_left));
    const int f_node = shape.f_left ? 1 : 2;
    const int root = shape.spill ? f_node : 0;

    // Budgets: exact ledger totals T_k at the target rows and their
    // neighbours, then fractions of the true cost. `abort_row[b]` is the f
    // row budget b must abort on (-1: no claim): T_k aborts on row k+1's
    // scan event, one ulp below it on row k's last event.
    std::vector<double> budgets;
    std::vector<int64_t> abort_row;
    for (const int64_t k : shape.rows) {
      const double t =
          LedgerAfterFactRows(*inst.catalog, shape.op, shape.spill, k)
              .Total(params);
      const double below = std::nextafter(t, 0.0);
      budgets.insert(budgets.end(), {t, below, std::nextafter(t, HUGE_VAL)});
      abort_row.insert(abort_row.end(), {k + 1, below < t ? k : -1, k + 1});
    }
    // The true cost: the ledger model's total after every f row, checked
    // against a tuple-engine run except for the NLJ, whose full run is
    // ~23M pair events (its fractions stay in the first few windows).
    double full_cost = LedgerAfterFactRows(*inst.catalog, shape.op,
                                           shape.spill, 9000)
                           .Total(params);
    std::vector<double> fractions = {0.001, 0.003, 0.01, 0.02};
    if (shape.op != PlanOp::kNLJoin) {
      Executor tuple = MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
      const Result<ExecutionResult> full =
          shape.spill ? tuple.ExecuteSpill(plan, root, -1.0)
                      : tuple.Execute(plan, -1.0);
      ASSERT_TRUE(full.ok() && full->completed) << shape.name;
      if (shape.op != PlanOp::kSortMergeJoin) {
        EXPECT_EQ(full->cost_used, full_cost) << shape.name;
      }
      full_cost = full->cost_used;
      fractions = {0.003, 0.1, 0.37, 0.5, 0.81, 0.9, 0.95, 0.99, 0.995,
                   0.999, 0.9999, 1.0};
      budgets.push_back(std::nextafter(full_cost, 0.0));
    }
    for (const double frac : fractions) budgets.push_back(full_cost * frac);
    abort_row.resize(budgets.size(), -1);

    for (const bool use_mapped : {false, true}) {
      const Catalog* catalog = use_mapped ? mapped.get() : inst.catalog.get();
      Executor tuple = MakeEngine(catalog, Executor::Engine::kTuple);
      for (const bool zones : {true, false}) {
        Executor batch =
            MakeEngine(catalog, Executor::Engine::kBatch, 1, zones);
        for (const bool faults : {false, true}) {
          for (size_t b = 0; b < budgets.size(); ++b) {
            const double budget = budgets[b];
            const std::string tag =
                shape.name + (use_mapped ? " mmap" : " resident") +
                (zones ? " zones" : " no-zones") +
                (faults ? " faults" : "") + " budget#" + std::to_string(b) +
                "=" + std::to_string(budget);
            const auto run = [&](const Executor& ex) {
              if (faults) {
                EXPECT_TRUE(FaultInjector::Configure(spec, b).ok());
              }
              FaultStreamScope scope(b);
              Result<ExecutionResult> r =
                  shape.spill ? ex.ExecuteSpill(plan, root, budget)
                              : ex.Execute(plan, budget);
              FaultInjector::Disarm();
              return r;
            };
            const Result<ExecutionResult> rt = run(tuple);
            const Result<ExecutionResult> rb = run(batch);
            ASSERT_EQ(rt.ok(), rb.ok()) << tag;
            if (!rt.ok()) {
              EXPECT_TRUE(rt.status().IsTransient()) << tag;
              continue;
            }
            ExpectSameResult(*rt, *rb, tag);
            if (!faults && abort_row[b] >= 0) {
              EXPECT_FALSE(rt->completed) << tag;
              EXPECT_EQ(rt->node_stats[static_cast<size_t>(f_node)].left_in,
                        abort_row[b])
                  << tag;
            }
          }
        }
      }
    }
  }
}

// The NLJ stage's key compare at every key width: keyless (a cross
// product), one key, and two keys, where the second column narrows what
// the first selected. Each plan runs as the root, which only counts the
// matches, and under a hash join that reads an inner payload column at
// the match positions; full and budgeted runs must equal the tuple
// engine's.
TEST(NljKeyWidthTest, BatchMatchesTupleAtEveryKeyWidth) {
  Rng rng(77);
  Catalog catalog;
  const auto add_table = [&](const std::string& name,
                             const std::vector<std::string>& cols,
                             int64_t rows, const std::vector<int64_t>& domain) {
    std::vector<ColumnDef> defs;
    for (const std::string& c : cols) defs.push_back({c, DataType::kInt64});
    auto t = std::make_shared<Table>(TableSchema(name, defs));
    for (int64_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols.size(); ++c) {
        t->column(static_cast<int>(c))
            .AppendInt(domain[c] > 0 ? rng.UniformInt(1, domain[c]) : r + 1);
      }
    }
    RQP_CHECK(t->Finalize().ok());
    auto stats = ComputeTableStats(*t);
    RQP_CHECK(catalog.AddTable(std::move(t), std::move(stats)).ok());
  };
  add_table("f", {"x", "y"}, 1200, {40, 6});
  add_table("d", {"x", "y", "z"}, 200, {40, 6, 10});
  add_table("e", {"z"}, 10, {0});
  const Query query(
      "nljkeys", {"f", "d", "e"},
      {{"f", "x", "d", "x", ""}, {"f", "y", "d", "y", ""},
       {"d", "z", "e", "z", ""}},
      {}, std::vector<EppRef>{EppRef::Join(0)});
  ASSERT_TRUE(query.Validate(catalog).ok());

  const auto nlj = [](std::vector<int> keys) {
    auto n = std::make_unique<PlanNode>();
    n->op = PlanOp::kNLJoin;
    n->join_indices = std::move(keys);
    n->left = AbortScan(0, {});
    n->right = AbortScan(1, {});
    return n;
  };
  Executor tuple = MakeEngine(&catalog, Executor::Engine::kTuple);
  Executor batch = MakeEngine(&catalog, Executor::Engine::kBatch);
  const std::vector<std::vector<int>> widths = {{}, {0}, {0, 1}};
  std::vector<int64_t> root_rows;
  for (const std::vector<int>& keys : widths) {
    for (const bool payload : {false, true}) {
      std::unique_ptr<PlanNode> root = nlj(keys);
      if (payload) {
        auto hj = std::make_unique<PlanNode>();
        hj->op = PlanOp::kHashJoin;
        hj->join_indices = {2};
        hj->left = std::move(root);
        hj->right = AbortScan(2, {});
        root = std::move(hj);
      }
      const Plan plan(&query, std::move(root));
      const std::string tag = std::to_string(keys.size()) + " keys" +
                              (payload ? " under a hash join" : " at root");
      const Result<ExecutionResult> full = tuple.Execute(plan, -1.0);
      ASSERT_TRUE(full.ok() && full->completed) << tag;
      if (!payload) root_rows.push_back(full->output_rows);
      for (const double frac : {-1.0, 0.01, 0.1, 0.5, 0.9, 1.0}) {
        const double budget = frac < 0 ? -1.0 : full->cost_used * frac;
        const Result<ExecutionResult> rt = tuple.Execute(plan, budget);
        const Result<ExecutionResult> rb = batch.Execute(plan, budget);
        ASSERT_TRUE(rt.ok() && rb.ok()) << tag;
        ExpectSameResult(*rt, *rb, tag + " budget=" + std::to_string(budget));
      }
    }
  }
  // Every inner row matches a keyless join; each key narrows the matches.
  ASSERT_EQ(root_rows.size(), 3u);
  EXPECT_EQ(root_rows[0], 1200 * 200);
  EXPECT_LT(root_rows[1], root_rows[0]);
  EXPECT_LT(root_rows[2], root_rows[1]);
  EXPECT_GT(root_rows[2], 0);
}

// ---------------------------------------------------------------------------
// Probe stages over encoded inner columns. The index-NL stage lists
// (probe row, inner row) pairs, filters them column-at-a-time through the
// batched row-id gather and gathers its outputs; the hash-probe stage
// probes row-major keys of any width through FindBatch; the NLJ stage
// lists each outer row's matches in the materialized inner. Budgeted runs
// use the same code on 64-row (index), 256-row (hash) and 16-row (NLJ)
// sub-ranges with a budget check between them. Budgets below are found on
// the tuple engine so that the abort lands on chosen outer rows of each
// stage — around the sub-range edges — and every run must equal the tuple
// engine's.
// ---------------------------------------------------------------------------

/// o (outer, 3000 rows; its first 600 keys miss the g index), g (inner,
/// 9000 rows, indexed on gk with 18 consecutive rows per key; filter and
/// output columns vbyte, dict, string and packed), t (build side: every
/// (v, x, q) combination) and u (1500 rows, indexed on uk: unique keys
/// 101..1974 that skip every fifth value, so the index is dense and o's
/// keys miss below its range, above it and in its holes).
struct ProbeInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
};

ProbeInstance MakeProbeInstance() {
  Rng rng(4242);
  ProbeInstance inst;
  inst.catalog = std::make_unique<Catalog>();
  const auto add = [&](std::shared_ptr<Table> t) {
    RQP_CHECK(t->Finalize().ok());
    auto stats = ComputeTableStats(*t);
    RQP_CHECK(inst.catalog->AddTable(std::move(t), std::move(stats)).ok());
  };
  auto o = std::make_shared<Table>(TableSchema(
      "o", {{"k", DataType::kInt64},
            {"x", DataType::kInt64},
            {"y", DataType::kInt64}}));
  for (int64_t r = 0; r < 3000; ++r) {
    // Keys 600..1199 descend, so consecutive index spans step backwards
    // through g's vbyte skip groups.
    o->column(0).AppendInt(r < 600    ? rng.UniformInt(2001, 2400)
                           : r < 1200 ? 500 - (r - 600) % 500
                                      : rng.UniformInt(1, 550));
    o->column(1).AppendInt(rng.UniformInt(1, 5));
    o->column(2).AppendInt(rng.UniformInt(1, 20));
  }
  add(o);
  EncodingPolicy gpolicy = EncodingPolicy::Auto();
  gpolicy.per_column = {{"v", Encoding::kVbyte},
                        {"dct", Encoding::kDict},
                        {"p", Encoding::kPacked}};
  auto g = std::make_shared<Table>(
      TableSchema("g", {{"gk", DataType::kInt64},
                        {"v", DataType::kInt64},
                        {"dct", DataType::kInt64},
                        {"s", DataType::kString},
                        {"p", DataType::kInt64},
                        {"q", DataType::kInt64}}),
      gpolicy);
  for (int64_t r = 0; r < 9000; ++r) {
    g->column(0).AppendInt(r / 18 + 1);  // 18 consecutive rows per key
    g->column(1).AppendInt(rng.UniformInt(1, 20));
    g->column(2).AppendInt(rng.UniformInt(0, 50) * 1009);
    g->column(3).AppendString(
        std::string("s").append(std::to_string(100 + rng.UniformInt(0, 80))));
    g->column(4).AppendInt(rng.UniformInt(0, 1000000));
    g->column(5).AppendInt(rng.UniformInt(1, 2));
  }
  add(g);
  RQP_CHECK(inst.catalog->BuildIndex("g", "gk").ok());
  auto t = std::make_shared<Table>(TableSchema(
      "t", {{"v", DataType::kInt64},
            {"x", DataType::kInt64},
            {"q", DataType::kInt64}}));
  for (int64_t v = 1; v <= 20; ++v) {
    for (int64_t x = 1; x <= 5; ++x) {
      for (int64_t q = 1; q <= 2; ++q) {
        t->column(0).AppendInt(v);
        t->column(1).AppendInt(x);
        t->column(2).AppendInt(q);
      }
    }
  }
  add(t);
  EncodingPolicy upolicy = EncodingPolicy::Auto();
  upolicy.per_column = {{"uv", Encoding::kVbyte}, {"up", Encoding::kPacked}};
  auto u = std::make_shared<Table>(
      TableSchema("u", {{"uk", DataType::kInt64},
                        {"uv", DataType::kInt64},
                        {"up", DataType::kInt64}}),
      upolicy);
  for (int64_t r = 0; r < 1500; ++r) {
    u->column(0).AppendInt(101 + r + r / 4);
    u->column(1).AppendInt(rng.UniformInt(1, 20));
    u->column(2).AppendInt(rng.UniformInt(0, 1000000));
  }
  add(u);
  RQP_CHECK(inst.catalog->BuildIndex("u", "uk").ok());
  RQP_CHECK(inst.catalog->FindIndex("u", "uk")->dense());
  inst.query = std::make_unique<Query>(
      "probes", std::vector<std::string>{"o", "g", "t", "u"},
      std::vector<JoinPredicate>{{"o", "k", "g", "gk", ""},
                                 {"g", "v", "t", "v", ""},
                                 {"o", "x", "t", "x", ""},
                                 {"g", "q", "t", "q", ""},
                                 {"o", "y", "t", "v", ""},
                                 {"o", "k", "u", "uk", ""},
                                 {"u", "uv", "t", "v", ""}},
      std::vector<FilterPredicate>{
          {"g", "v", CompareOp::kLe, 15.0, false, ""},
          {"g", "dct", CompareOp::kGe, 10.0 * 1009, false, ""},
          {"g", "s", CompareOp::kLe, 0.0, true, "s160"},
          {"g", "p", CompareOp::kLt, 900000.0, false, ""},
          {"u", "uv", CompareOp::kLe, 15.0, false, ""},
          {"u", "up", CompareOp::kLt, 900000.0, false, ""}},
      std::vector<EppRef>{EppRef::Join(0)});
  RQP_CHECK(inst.query->Validate(*inst.catalog).ok());
  return inst;
}

/// A plan whose stage `stage_node` the aborts target: budgets are found
/// on the tuple engine so that the abort lands on that stage's outer row
/// k, for each k in `rows`.
struct ProbeShape {
  std::string name;
  std::function<std::unique_ptr<PlanNode>()> make;
  int stage_node;
  bool left;  // index-NL / NLJ stage (left_in) or hash probe (right_in)
  std::vector<int64_t> rows;
};

/// Index-NL from o into g (join 0) or, with `dense`, into u (join 5).
std::unique_ptr<PlanNode> ProbeIndexNl(std::vector<int> filters,
                                       bool dense = false) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kIndexNLJoin;
  n->join_indices = {dense ? 5 : 0};
  n->left = AbortScan(0, {});
  n->right = AbortScan(dense ? 3 : 1, std::move(filters));
  return n;
}

/// NLJ from o into the materialized t on o.x = t.x (join 2).
std::unique_ptr<PlanNode> ProbeNlj() {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kNLJoin;
  n->join_indices = {2};
  n->left = AbortScan(0, {});
  n->right = AbortScan(2, {});
  return n;
}

/// Hash join building on table `build` (t by default) and probing with
/// `probe`.
std::unique_ptr<PlanNode> ProbeHash(std::vector<int> joins,
                                    std::unique_ptr<PlanNode> probe,
                                    int build = 2) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kHashJoin;
  n->join_indices = std::move(joins);
  n->left = AbortScan(build, {});
  n->right = std::move(probe);
  return n;
}

/// Runs every shape at its abort rows and at fractions of its full cost,
/// resident and mmap, with and without zone maps: the batch engine must
/// equal the tuple engine and abort on the targeted stage row.
void ExpectSubRangeAbortsMatchTuple(const std::vector<ProbeShape>& shapes) {
  const ProbeInstance inst = MakeProbeInstance();
  const std::unique_ptr<Catalog> mapped = MapCatalog(*inst.catalog);
  Executor tuple_res = MakeEngine(inst.catalog.get(), Executor::Engine::kTuple);
  for (const ProbeShape& shape : shapes) {
    const Plan plan(inst.query.get(), shape.make());
    const auto stage_rows = [&](const ExecutionResult& r) {
      const NodeStats& st = r.node_stats[static_cast<size_t>(shape.stage_node)];
      return shape.left ? st.left_in : st.right_in;
    };
    const Result<ExecutionResult> full = tuple_res.Execute(plan, -1.0);
    ASSERT_TRUE(full.ok() && full->completed) << shape.name;
    ASSERT_GT(full->output_rows, 0) << shape.name;

    // Smallest budget whose tuple run reaches stage row k (0-based), i.e.
    // aborts while that row is in the stage: bisection on the monotone
    // map budget -> rows that entered the stage.
    std::vector<double> budgets = {-1.0, full->cost_used,
                                   std::nextafter(full->cost_used, 0.0)};
    std::vector<int64_t> expect_rows = {-1, -1, -1};
    for (const int64_t k : shape.rows) {
      double lo = 0.0, hi = full->cost_used;
      for (int it = 0; it < 200 && std::nextafter(lo, hi) < hi; ++it) {
        const double mid = lo + (hi - lo) / 2;
        const Result<ExecutionResult> r = tuple_res.Execute(plan, mid);
        ASSERT_TRUE(r.ok()) << shape.name;
        (r->completed || stage_rows(*r) >= k + 1 ? hi : lo) = mid;
      }
      budgets.insert(budgets.end(), {hi, std::nextafter(hi, 0.0),
                                     std::nextafter(hi, HUGE_VAL)});
      expect_rows.insert(expect_rows.end(), {k + 1, k, k + 1});
    }
    for (const double frac : {0.01, 0.2, 0.5, 0.9, 0.999}) {
      budgets.push_back(full->cost_used * frac);
      expect_rows.push_back(-1);
    }

    for (const bool use_mapped : {false, true}) {
      const Catalog* catalog = use_mapped ? mapped.get() : inst.catalog.get();
      Executor tuple = MakeEngine(catalog, Executor::Engine::kTuple);
      for (const bool zones : {true, false}) {
        Executor batch = MakeEngine(catalog, Executor::Engine::kBatch, 1, zones);
        for (size_t b = 0; b < budgets.size(); ++b) {
          const std::string tag = shape.name +
                                  (use_mapped ? " mmap" : " resident") +
                                  (zones ? " zones" : " no-zones") +
                                  " budget#" + std::to_string(b);
          const Result<ExecutionResult> rt = tuple.Execute(plan, budgets[b]);
          const Result<ExecutionResult> rb = batch.Execute(plan, budgets[b]);
          ASSERT_TRUE(rt.ok() && rb.ok()) << tag;
          ExpectSameResult(*rt, *rb, tag);
          if (expect_rows[b] >= 0) {
            EXPECT_FALSE(rb->completed) << tag;
            EXPECT_EQ(stage_rows(*rb), expect_rows[b]) << tag;
          }
        }
      }
    }
  }
}

TEST(ProbeStageTest, IndexAndHashProbesMatchTupleAtSubRangeAborts) {
  const std::vector<int64_t> index_rows = {0,   63,  64,  65,  175, 176,
                                           177, 255, 256, 257, 663, 664,
                                           665, 1100};
  const std::vector<int64_t> hash_rows = {0,   255, 256, 257, 511,
                                          512, 513, 767, 1500};
  ExpectSubRangeAbortsMatchTuple({
      // Index-NL under a three-key hash join: the stage filters on vbyte,
      // dict, string and packed columns and emits o.x (from the outer
      // batch) and g.v, g.q (gathered from the inner table).
      {"index-nl filtered, 3-key hash above",
       [] { return ProbeHash({1, 2, 3}, ProbeIndexNl({0, 1, 2, 3})); }, 2,
       true, index_rows},
      {"index-nl unfiltered at root", [] { return ProbeIndexNl({}); }, 0,
       true, index_rows},
      {"index-nl filtered at root", [] { return ProbeIndexNl({2, 0}); }, 0,
       true, index_rows},
      // The dense index on u: unfiltered at root (count only), and
      // filtered on vbyte and packed columns under a two-key hash join,
      // emitting o.x (outer batch) and u.uv (gathered from u).
      {"dense index-nl unfiltered at root",
       [] { return ProbeIndexNl({}, true); }, 0, true, index_rows},
      {"dense index-nl filtered, 2-key hash above",
       [] { return ProbeHash({6, 2}, ProbeIndexNl({4, 5}, true)); }, 2, true,
       index_rows},
      {"hash probe 1 key", [] { return ProbeHash({2}, AbortScan(0, {})); }, 0,
       false, hash_rows},
      {"hash probe 2 keys",
       [] { return ProbeHash({2, 4}, AbortScan(0, {})); }, 0, false,
       hash_rows},
  });
}

// The NLJ stage lists its pairs per 16-row sub-range: aborts on either
// side of the first two sub-range edges, and in o's last 1024-row window
// (rows 2048..2999), whose 952 rows end in a partial sub-range.
TEST(ProbeStageTest, NljMatchesTupleAtSubRangeAborts) {
  const std::vector<int64_t> nlj_rows = {0,  15,   16,   17,   31,  32,
                                         33, 2991, 2992, 2995, 2999};
  ExpectSubRangeAbortsMatchTuple({
      // At root the stage only counts its matches; under a hash join that
      // builds on u, the stage emits o.k (outer batch) and t.v (inner
      // payload) as the hash keys.
      {"nlj at root", ProbeNlj, 0, true, nlj_rows},
      {"nlj, 2-key hash above", [] { return ProbeHash({5, 6}, ProbeNlj(), 3); },
       2, true, nlj_rows},
  });
}

// ---------------------------------------------------------------------------
// Tuple-engine block reads: the tuple engine's scans and its index-NL
// count pass read storage one decoded block at a time. Aborts on either
// side of every block edge, under every forced encoding, resident and
// mapped, must still equal the batch engine bit for bit.
// ---------------------------------------------------------------------------

/// f: 14000 rows, three full 4096-row blocks and a partial fourth of 1712.
/// f.c <= 30 passes no row of block 2, so output columns skip a block
/// that the filter columns read. d: 9000 rows (a partial third block),
/// densely indexed on kd. Every column uses `enc` (the string columns are
/// dictionary-coded whatever it says and are read as ranks).
AbortInstance MakeBlockEdgeInstance(Encoding enc) {
  Rng rng(99);
  AbortInstance inst;
  inst.catalog = std::make_unique<Catalog>();
  EncodingPolicy policy;
  policy.kind = enc;
  policy.dict_max_card = 1 << 20;  // forced kDict never falls back
  const auto add = [&](std::shared_ptr<Table> t) {
    RQP_CHECK(t->Finalize().ok());
    for (int c = 0; c < t->schema().num_columns(); ++c) {
      if (t->column(c).type() == DataType::kInt64) {
        RQP_CHECK(t->column(c).enc().mode() == enc);
      }
    }
    auto stats = ComputeTableStats(*t);
    RQP_CHECK(inst.catalog->AddTable(std::move(t), std::move(stats)).ok());
  };
  const auto str = [&](int64_t lo, int64_t hi) {
    return std::string("s").append(std::to_string(rng.UniformInt(lo, hi)));
  };
  auto f = std::make_shared<Table>(
      TableSchema("f", {{"fk", DataType::kInt64},
                        {"c", DataType::kInt64},
                        {"a", DataType::kInt64},
                        {"s", DataType::kString},
                        {"x", DataType::kDouble}}),
      policy);
  for (int64_t r = 0; r < 14000; ++r) {
    f->column(0).AppendInt(rng.UniformInt(1, 9000));
    f->column(1).AppendInt(r / 4096 == 2 ? 100 + r % 7 : (r / 97) % 50);
    f->column(2).AppendInt(rng.UniformInt(1, 16) * 1000003);
    f->column(3).AppendString(str(100, 180));
    f->column(4).AppendDouble(static_cast<double>(rng.UniformInt(0, 200)) * 0.5);
  }
  add(f);
  auto d = std::make_shared<Table>(
      TableSchema("d", {{"kd", DataType::kInt64},
                        {"ad", DataType::kInt64},
                        {"ds", DataType::kString},
                        {"dx", DataType::kDouble}}),
      policy);
  for (int64_t r = 0; r < 9000; ++r) {
    d->column(0).AppendInt(r + 1);
    d->column(1).AppendInt(rng.UniformInt(1, 8) * 65537);
    d->column(2).AppendString(str(100, 180));
    d->column(3).AppendDouble(static_cast<double>(rng.UniformInt(0, 200)) * 0.5);
  }
  add(d);
  RQP_CHECK(inst.catalog->BuildIndex("d", "kd").ok());
  inst.query = std::make_unique<Query>(
      "block_edges", std::vector<std::string>{"f", "d"},
      std::vector<JoinPredicate>{{"f", "fk", "d", "kd", ""}},
      std::vector<FilterPredicate>{
          {"f", "c", CompareOp::kLe, 30.0, false, ""},
          {"f", "a", CompareOp::kLe, 12.0 * 1000003, false, ""},
          {"f", "s", CompareOp::kLe, 0.0, true, "s160"},
          {"f", "x", CompareOp::kGe, 20.0, false, ""},
          {"d", "ad", CompareOp::kLe, 7.0 * 65537, false, ""},
          {"d", "ds", CompareOp::kGe, 0.0, true, "s120"},
          {"d", "dx", CompareOp::kLt, 90.0, false, ""}},
      std::vector<EppRef>{EppRef::Join(0)});
  RQP_CHECK(inst.query->Validate(*inst.catalog).ok());
  return inst;
}

TEST(TupleBlockReadTest, TupleMatchesBatchAcrossBlockEdgesUnderEveryEncoding) {
  const std::vector<int64_t> f_rows = {0,    4095,  4096,  4097,
                                       8191, 8192,  8193,  12287,
                                       12288, 12289, 13999};
  const std::vector<int64_t> d_rows = {0, 4095, 4096, 4097, 8191, 8192, 8193,
                                       8999};
  struct Shape {
    std::string name;
    std::function<std::unique_ptr<PlanNode>()> make;
    int scan_node;  // the scan whose rows the aborts target
    std::vector<int64_t> rows;
  };
  const auto join = [](PlanOp op, std::unique_ptr<PlanNode> left,
                       std::unique_ptr<PlanNode> right) {
    auto n = std::make_unique<PlanNode>();
    n->op = op;
    n->join_indices = {0};
    n->left = std::move(left);
    n->right = std::move(right);
    return n;
  };
  const std::vector<Shape> shapes = {
      {"f scan, 4 filters", [] { return AbortScan(0, {0, 1, 2, 3}); }, 0,
       f_rows},
      {"f scan, no filter", [] { return AbortScan(0, {}); }, 0, f_rows},
      {"d scan, 3 filters", [] { return AbortScan(1, {4, 5, 6}); }, 0, d_rows},
      // The inner filters run in the uncharged count pass over all of d
      // before the first outer row, and as point reads per fetched row.
      {"index-nl f -> d, inner filters",
       [&] {
         return join(PlanOp::kIndexNLJoin, AbortScan(0, {0}),
                     AbortScan(1, {4, 5, 6}));
       },
       1, f_rows},
      // Build on filtered d, probe with filtered f: hash keys come from
      // the scans' output columns.
      {"hash d |x| f",
       [&] {
         return join(PlanOp::kHashJoin, AbortScan(1, {4, 5, 6}),
                     AbortScan(0, {0, 1, 2, 3}));
       },
       2, f_rows},
  };

  for (const Encoding enc : {Encoding::kRaw, Encoding::kPacked,
                             Encoding::kDict, Encoding::kVbyte}) {
    const AbortInstance inst = MakeBlockEdgeInstance(enc);
    const std::unique_ptr<Catalog> mapped = MapCatalog(*inst.catalog);
    Executor batch_res = MakeEngine(inst.catalog.get(), Executor::Engine::kBatch);
    for (const Shape& shape : shapes) {
      const Plan plan(inst.query.get(), shape.make());
      const auto scan_rows = [&](const ExecutionResult& r) {
        return r.node_stats[static_cast<size_t>(shape.scan_node)].left_in;
      };
      const Result<ExecutionResult> full = batch_res.Execute(plan, -1.0);
      ASSERT_TRUE(full.ok() && full->completed) << shape.name;
      ASSERT_GT(full->output_rows, 0) << shape.name;

      // Smallest budget whose batch run charges scan row k (0-based), so
      // the abort lands on that row's scan event: bisection on the
      // monotone map budget -> rows scanned. Its upper neighbour aborts
      // there too; its lower one, a row earlier (no claim at k = 0).
      std::vector<double> budgets = {-1.0};
      std::vector<int64_t> expect_rows = {-1};
      for (const int64_t k : shape.rows) {
        double lo = 0.0, hi = full->cost_used;
        for (int it = 0; it < 200 && std::nextafter(lo, hi) < hi; ++it) {
          const double mid = lo + (hi - lo) / 2;
          const Result<ExecutionResult> r = batch_res.Execute(plan, mid);
          ASSERT_TRUE(r.ok()) << shape.name;
          (r->completed || scan_rows(*r) >= k + 1 ? hi : lo) = mid;
        }
        budgets.insert(budgets.end(), {hi, std::nextafter(hi, HUGE_VAL),
                                       std::nextafter(hi, 0.0)});
        expect_rows.insert(expect_rows.end(), {k + 1, k + 1, k > 0 ? k : -1});
      }

      for (const bool use_mapped : {false, true}) {
        const Catalog* catalog = use_mapped ? mapped.get() : inst.catalog.get();
        Executor tuple = MakeEngine(catalog, Executor::Engine::kTuple);
        Executor batch = MakeEngine(catalog, Executor::Engine::kBatch);
        for (size_t b = 0; b < budgets.size(); ++b) {
          const std::string tag = std::string(EncodingName(enc)) + " " +
                                  shape.name +
                                  (use_mapped ? " mmap" : " resident") +
                                  " budget#" + std::to_string(b);
          const Result<ExecutionResult> rt = tuple.Execute(plan, budgets[b]);
          const Result<ExecutionResult> rb = batch.Execute(plan, budgets[b]);
          ASSERT_TRUE(rt.ok() && rb.ok()) << tag;
          ExpectSameResult(*rt, *rb, tag);
          if (expect_rows[b] >= 0) {
            EXPECT_FALSE(rt->completed) << tag;
            EXPECT_EQ(scan_rows(*rt), expect_rows[b]) << tag;
          }
        }
      }
    }
  }
}

TEST(ExecBatchGoldenTest, ParseEngine) {
  Executor::Engine e;
  EXPECT_TRUE(Executor::ParseEngine("tuple", &e));
  EXPECT_EQ(e, Executor::Engine::kTuple);
  EXPECT_TRUE(Executor::ParseEngine("batch", &e));
  EXPECT_EQ(e, Executor::Engine::kBatch);
  EXPECT_FALSE(Executor::ParseEngine("vector", &e));
}

// Regression for the ObservedJoinSelectivity evidence guard: empty input
// sides yield 0.0 (not NaN/inf), and the ratio is clamped to [0, 1].
TEST(ObservedJoinSelectivityTest, GuardsZeroAndClampsOverflow) {
  ExecutionResult res;
  res.node_stats.resize(1);
  NodeStats& st = res.node_stats[0];

  st.left_in = 0;
  st.right_in = 0;
  st.out = 0;
  EXPECT_EQ(res.ObservedJoinSelectivity(0), 0.0);

  st.left_in = 0;
  st.right_in = 100;
  st.out = 0;
  EXPECT_EQ(res.ObservedJoinSelectivity(0), 0.0);

  // Cross-joins (or count mismatches) can push out above left*right; the
  // value must clamp to 1, never exceed it.
  st.left_in = 2;
  st.right_in = 1;
  st.out = 10;
  EXPECT_EQ(res.ObservedJoinSelectivity(0), 1.0);

  st.left_in = 5;
  st.right_in = 4;
  st.out = 2;
  EXPECT_DOUBLE_EQ(res.ObservedJoinSelectivity(0), 0.1);
}

}  // namespace
}  // namespace robustqp
