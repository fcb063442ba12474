// Engine microbenchmarks: throughput/latency of the substrate primitives
// the reproduction is built on — sequential scan, hash/index/block-nested
// joins, optimizer calls (plain and constrained), ESS construction, and
// one full SpillBound discovery. These are conventional timing benchmarks
// (real iterations), useful for tracking substrate regressions; the
// per-figure binaries measure the *algorithms*.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "exec/kernels.h"
#include "core/oracle.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "server/context_cache.h"
#include "optimizer/optimizer.h"
#include "workloads/queries.h"
#include "workloads/tpcds.h"

namespace robustqp {
namespace {

const Catalog& SharedCatalog() { return *ContextCache::TpcdsCatalog(); }

Executor::Options EngineOpts(Executor::Engine engine, int threads = 1,
                             bool zone_maps = true) {
  Executor::Options options;
  options.engine = engine;
  options.num_threads = threads;
  options.use_zone_maps = zone_maps;
  return options;
}

void BM_SeqScan(benchmark::State& state, Executor::Engine engine,
                int threads) {
  const Catalog& catalog = SharedCatalog();
  Query q("scan_only", {"store_sales", "date_dim"},
          {{"store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", ""}},
          {{"store_sales", "ss_quantity", CompareOp::kLe, 5}}, std::vector<int>{0});
  Optimizer opt(&catalog, &q);
  Executor exec(&catalog, CostModel::PostgresFlavour(),
                EngineOpts(engine, threads));
  const std::unique_ptr<Plan> plan = opt.Optimize({1e-4});
  int64_t rows = 0;
  for (auto _ : state) {
    const auto res = exec.Execute(*plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    rows = res->node_stats[static_cast<size_t>(plan->num_nodes() - 1)].left_in +
           res->node_stats[0].left_in;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * catalog.RowCount("store_sales"));
}
BENCHMARK_CAPTURE(BM_SeqScan, Tuple, Executor::Engine::kTuple, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqScan, Batch, Executor::Engine::kBatch, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqScan, BatchMorsels, Executor::Engine::kBatch, 0)
    ->Unit(benchmark::kMillisecond);

void BM_JoinOperators(benchmark::State& state, PlanOp op, bool swap,
                      Executor::Engine engine) {
  const Catalog& catalog = SharedCatalog();
  Query q("join_micro", {"store_sales", "date_dim"},
          {{"store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", ""}},
          {{"date_dim", "d_moy", CompareOp::kEq, 3}}, std::vector<int>{0});
  auto scan_ss = std::make_unique<PlanNode>();
  scan_ss->op = PlanOp::kSeqScan;
  scan_ss->table_idx = 0;
  auto scan_d = std::make_unique<PlanNode>();
  scan_d->op = PlanOp::kSeqScan;
  scan_d->table_idx = 1;
  scan_d->filter_indices = {0};
  auto join = std::make_unique<PlanNode>();
  join->op = op;
  join->join_indices = {0};
  join->left = swap ? std::move(scan_d) : std::move(scan_ss);
  join->right = swap ? std::move(scan_ss) : std::move(scan_d);
  Plan plan(&q, std::move(join));
  Executor exec(&catalog, CostModel::PostgresFlavour(), EngineOpts(engine));
  for (auto _ : state) {
    const auto res = exec.Execute(plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    benchmark::DoNotOptimize(res->output_rows);
  }
  state.SetItemsProcessed(state.iterations() * catalog.RowCount("store_sales"));
}
BENCHMARK_CAPTURE(BM_JoinOperators, HashJoin_BuildDim_Tuple, PlanOp::kHashJoin,
                  true, Executor::Engine::kTuple)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_JoinOperators, HashJoin_BuildDim_Batch, PlanOp::kHashJoin,
                  true, Executor::Engine::kBatch)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_JoinOperators, IndexNLJoin_ProbeDim_Tuple,
                  PlanOp::kIndexNLJoin, false, Executor::Engine::kTuple)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_JoinOperators, IndexNLJoin_ProbeDim_Batch,
                  PlanOp::kIndexNLJoin, false, Executor::Engine::kBatch)
    ->Unit(benchmark::kMillisecond);

// Budget-aborting batch executions, the learning primitive of every
// discovery algorithm. NLJ: store_sales streams past a materialized
// date_dim inner; the budget pays for the inner pipeline plus ~100 outer
// rows, so the run aborts inside its first outer morsels (PlanBouquet's
// shape on 4D_Q91). HashJoin: the date_dim build completes and the
// store_sales probe pipeline aborts halfway.
void BM_BudgetedAbort(benchmark::State& state, PlanOp op) {
  const Catalog& catalog = SharedCatalog();
  Query q("abort_micro", {"store_sales", "date_dim"},
          {{"store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", ""}},
          {}, std::vector<int>{0});
  auto scan_ss = std::make_unique<PlanNode>();
  scan_ss->op = PlanOp::kSeqScan;
  scan_ss->table_idx = 0;
  auto scan_d = std::make_unique<PlanNode>();
  scan_d->op = PlanOp::kSeqScan;
  scan_d->table_idx = 1;
  auto join = std::make_unique<PlanNode>();
  join->op = op;
  join->join_indices = {0};
  const bool nlj = op == PlanOp::kNLJoin;
  join->left = nlj ? std::move(scan_ss) : std::move(scan_d);
  join->right = nlj ? std::move(scan_d) : std::move(scan_ss);
  Plan plan(&q, std::move(join));
  Executor exec(&catalog, CostModel::PostgresFlavour(),
                EngineOpts(Executor::Engine::kBatch));
  const CostParams& p = CostModel::PostgresFlavour().params();
  const double inner = static_cast<double>(catalog.RowCount("date_dim"));
  double budget = 0.0;
  if (nlj) {
    budget = inner * (p.scan_tuple + p.nlj_materialize_tuple) +
             100.0 * (p.scan_tuple + inner * p.nlj_pair);
  } else {
    const auto full = exec.Execute(plan, -1.0);
    RQP_CHECK(full.ok() && full->completed);
    budget = 0.5 * full->cost_used;
  }
  for (auto _ : state) {
    const auto res = exec.Execute(plan, budget);
    RQP_CHECK(res.ok() && !res->completed);
    benchmark::DoNotOptimize(res->cost_used);
  }
  state.counters["budget"] = budget;
}
BENCHMARK_CAPTURE(BM_BudgetedAbort, NLJ_FirstMorsel, PlanOp::kNLJoin)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BudgetedAbort, HashJoin_MidProbe, PlanOp::kHashJoin)
    ->Unit(benchmark::kMillisecond);

// Raw filter-kernel throughput over a 1M-row int64 column, away from any
// engine overhead. `est` steers FilterRange onto the sparse (selection-list
// append) or dense (bytemask + compaction) path; the value is chosen so the
// actual pass rate matches the label.
void BM_FilterInt64(benchmark::State& state, double value, double est) {
  constexpr int64_t kRows = 1 << 20;
  TableSchema schema("filter_micro", {{"v", DataType::kInt64}});
  Table table(schema);
  Rng rng(7);
  for (int64_t r = 0; r < kRows; ++r) {
    table.column(0).AppendInt(rng.UniformInt(0, 999));
  }
  RQP_CHECK(table.Finalize().ok());
  const ColumnData& col = table.column(0);
  std::vector<int64_t> sel;
  kernels::FilterScratch scratch;
  int64_t pass = 0;
  for (auto _ : state) {
    pass = kernels::FilterRange(col, CompareOp::kLe, value, 0, kRows, est,
                                &sel, &scratch);
    benchmark::DoNotOptimize(pass);
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["sel"] = static_cast<double>(pass) / static_cast<double>(kRows);
}
BENCHMARK_CAPTURE(BM_FilterInt64, Sel1pct_Sparse, 9.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterInt64, Sel50pct_Sparse, 499.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterInt64, Sel50pct_Dense, 499.0, 0.5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterInt64, Sel99pct_Dense, 989.0, 0.99)
    ->Unit(benchmark::kMicrosecond);

// Zone-map pruning on a clustered column: ss_ticket_number is a serial key,
// so a small kLe range keeps only the leading blocks and the zone maps can
// prove every later block empty. Pruned vs unpruned runs produce identical
// results and cost accounting; only the wall clock differs.
void BM_ZoneMapScan(benchmark::State& state, bool zone_maps) {
  const Catalog& catalog = SharedCatalog();
  Query q("zonescan", {"store_sales", "date_dim"},
          {{"store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", ""}},
          {{"store_sales", "ss_ticket_number", CompareOp::kLe, 600}},
          std::vector<int>{0});
  Optimizer opt(&catalog, &q);
  Executor exec(&catalog, CostModel::PostgresFlavour(),
                EngineOpts(Executor::Engine::kBatch, 1, zone_maps));
  const std::unique_ptr<Plan> plan = opt.Optimize({1e-4});
  for (auto _ : state) {
    const auto res = exec.Execute(*plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    benchmark::DoNotOptimize(res->output_rows);
  }
  state.SetItemsProcessed(state.iterations() * catalog.RowCount("store_sales"));
}
BENCHMARK_CAPTURE(BM_ZoneMapScan, Pruned, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ZoneMapScan, Unpruned, false)
    ->Unit(benchmark::kMillisecond);

// Flat open-addressing join-table probe throughput: 64K unique build keys,
// 1M probes in batches of 4K through the two-pass FindBatch. Hit-heavy
// probes land on existing keys; miss-heavy probes walk to an empty slot.
void BM_FlatHashProbe(benchmark::State& state, bool hits) {
  constexpr int64_t kKeys = 64 * 1024;
  constexpr int64_t kProbes = 1 << 20;
  constexpr int64_t kBatch = 4096;
  kernels::FlatJoinTable ht;
  ht.Init(1, 1);
  for (int64_t k = 0; k < kKeys; ++k) {
    const double key = static_cast<double>(k);
    const double pay = static_cast<double>(k * 2);
    ht.Insert(&key, &pay);
  }
  Rng rng(11);
  std::vector<double> probes(static_cast<size_t>(kProbes));
  for (auto& p : probes) {
    p = static_cast<double>(rng.UniformInt(0, kKeys - 1) +
                            (hits ? 0 : 4 * kKeys));
  }
  std::vector<int64_t> out(static_cast<size_t>(kBatch));
  std::vector<uint64_t> hashes;
  for (auto _ : state) {
    int64_t found = 0;
    for (int64_t base = 0; base < kProbes; base += kBatch) {
      const int64_t n = std::min<int64_t>(kBatch, kProbes - base);
      ht.FindBatch(probes.data() + base, n, out.data(), &hashes);
      for (int64_t i = 0; i < n; ++i) found += out[static_cast<size_t>(i)] >= 0;
    }
    RQP_CHECK(hits ? found == kProbes : found == 0);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * kProbes);
}
BENCHMARK_CAPTURE(BM_FlatHashProbe, HitHeavy, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlatHashProbe, MissHeavy, false)
    ->Unit(benchmark::kMicrosecond);

void BM_OptimizerCall(benchmark::State& state, const std::string& id) {
  const Catalog& catalog = SharedCatalog();
  const Query q = MakeSuiteQuery(id);
  Optimizer opt(&catalog, &q);
  EssPoint inj(static_cast<size_t>(q.num_epps()), 1e-3);
  for (auto _ : state) {
    auto plan = opt.Optimize(inj);
    benchmark::DoNotOptimize(plan->num_nodes());
  }
}
BENCHMARK_CAPTURE(BM_OptimizerCall, Q96_4tables, std::string("3D_Q96"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OptimizerCall, Q91_7tables, std::string("6D_Q91"))
    ->Unit(benchmark::kMicrosecond);

void BM_ConstrainedOptimizerCall(benchmark::State& state) {
  const Catalog& catalog = SharedCatalog();
  const Query q = MakeSuiteQuery("4D_Q91");
  Optimizer opt(&catalog, &q);
  const EssPoint inj(4, 1e-3);
  const std::vector<bool> unlearned(4, true);
  int dim = 0;
  for (auto _ : state) {
    auto plan = opt.OptimizeConstrainedSpill(inj, dim, unlearned);
    benchmark::DoNotOptimize(plan);
    dim = (dim + 1) % 4;
  }
}
BENCHMARK(BM_ConstrainedOptimizerCall)->Unit(benchmark::kMicrosecond);

void BM_PlanCosting(benchmark::State& state) {
  const Catalog& catalog = SharedCatalog();
  const Query q = MakeSuiteQuery("4D_Q91");
  Optimizer opt(&catalog, &q);
  const EssPoint inj(4, 1e-3);
  const std::unique_ptr<Plan> plan = opt.Optimize(inj);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.PlanCost(*plan, inj));
  }
}
BENCHMARK(BM_PlanCosting)->Unit(benchmark::kNanosecond);

// One full ESS build (the sweep of one optimizer call per grid location).
// us_per_location is the wall time of a build divided by its locations,
// comparable across grid sizes and queries.
void BM_EssBuild(benchmark::State& state, const std::string& id) {
  const Catalog& catalog = IsJobQuery(id) ? *ContextCache::JobCatalog()
                                          : SharedCatalog();
  const Query q = MakeSuiteQuery(id);
  int64_t opt_calls = 0;
  int64_t locations = 0;
  double build_us = 0.0;
  for (auto _ : state) {
    Ess::Config config;
    config.points_per_dim = static_cast<int>(state.range(0));
    config.num_threads = bench::Threads();
    const auto start = std::chrono::steady_clock::now();
    auto ess = Ess::Build(catalog, q, config);
    build_us += std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    opt_calls = ess->build_stats().optimizer_calls;
    locations = ess->num_locations();
    benchmark::DoNotOptimize(locations);
  }
  state.counters["opt_calls"] = static_cast<double>(opt_calls);
  state.counters["locations"] = static_cast<double>(locations);
  state.counters["us_per_location"] =
      build_us / (static_cast<double>(state.iterations()) *
                  static_cast<double>(locations));
}
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive2D_Q91, std::string("2D_Q91"))
    ->Arg(10)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive3D_Q96, std::string("3D_Q96"))
    ->Arg(16)->Unit(benchmark::kMillisecond);
// context_churn's grids.
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive3D_Q15, std::string("3D_Q15"))
    ->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive4D_JOB_Q1a, std::string("4D_JOB_Q1a"))
    ->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive4D_Q91, std::string("4D_Q91"))
    ->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EssBuild, Exhaustive5D_Q91, std::string("5D_Q91"))
    ->Arg(8)->Unit(benchmark::kMillisecond);

// Guard on the fault layer's disabled-path overhead: FaultInjector::Armed()
// is the only code injection adds to hot paths when no --faults spec is
// active, and it must stay a single thread-local load. The scan/join
// benchmarks above already run through the faulted dispatcher, so their
// medians against bench/BENCH_engine.json bound the end-to-end overhead
// (<2%); this one isolates the check itself. The compiler barrier makes
// every iteration reload the thread-local pointer, which the optimizer
// would otherwise hoist out of the loop.
void BM_FaultCheck(benchmark::State& state) {
  RQP_CHECK(!FaultInjector::Armed());
  for (auto _ : state) {
    int armed = 0;
    for (int i = 0; i < 1024; ++i) {
      benchmark::ClobberMemory();
      armed += FaultInjector::Armed() ? 1 : 0;
    }
    benchmark::DoNotOptimize(armed);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FaultCheck)->Unit(benchmark::kNanosecond);

// The same full execution the SeqScan benchmark times, but with the
// injector armed on a site that never fires (huge `after`): the faulted
// dispatcher's per-attempt bookkeeping without any fault. Compare against
// BM_SeqScan/Batch to see the armed-but-quiet overhead.
void BM_SeqScanArmedQuiet(benchmark::State& state) {
  const Catalog& catalog = SharedCatalog();
  Query q("scan_only", {"store_sales", "date_dim"},
          {{"store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk", ""}},
          {{"store_sales", "ss_quantity", CompareOp::kLe, 5}}, std::vector<int>{0});
  Optimizer opt(&catalog, &q);
  Executor exec(&catalog, CostModel::PostgresFlavour(),
                EngineOpts(Executor::Engine::kBatch));
  const std::unique_ptr<Plan> plan = opt.Optimize({1e-4});
  RQP_CHECK(FaultInjector::Configure("exec.scan.read:after=1000000000", 42).ok());
  for (auto _ : state) {
    FaultStreamScope scope(0);
    const auto res = exec.Execute(*plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    benchmark::DoNotOptimize(res->output_rows);
  }
  FaultInjector::Disarm();
  state.SetItemsProcessed(state.iterations() * catalog.RowCount("store_sales"));
}
BENCHMARK(BM_SeqScanArmedQuiet)->Unit(benchmark::kMillisecond);

void BM_SpillBoundDiscovery(benchmark::State& state) {
  const ContextCache::Entry& wb = ContextCache::GetDefault("4D_Q91");
  SpillBound sb(wb.ess.get());
  const int64_t n = wb.ess->num_locations();
  int64_t lin = n / 3;
  for (auto _ : state) {
    SimulatedOracle oracle(wb.ess.get(), wb.ess->FromLinear(lin));
    const DiscoveryResult r = sb.Run(&oracle);
    benchmark::DoNotOptimize(r.total_cost);
    lin = (lin + 7919) % n;
  }
}
BENCHMARK(BM_SpillBoundDiscovery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace robustqp

int main(int argc, char** argv) {
  ::robustqp::bench::ParseThreads(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
