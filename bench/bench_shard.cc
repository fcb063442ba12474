// Chunk-driver benchmarks: whole-chunk zone pruning on a selective
// clustered filter at 1/2/4 shards, and chunk-parallel throughput of a
// full star join at 1/2/4 shards. The committed bench/BENCH_shard.json
// baseline is held by CI's perf-smoke gate; regenerate with
// bench/record_baseline.sh.
//
// The pruning benchmark's shape: the fact table spans 8 chunks and the
// filter selects only the first, so the chunk driver retires each empty
// chunk with one whole-chunk charge instead of ~32 batch iterations of
// block classification and count charging — identical results and
// counters, strictly less physical work. Every unbudgeted scan runs
// through that driver, so the unsharded variant prunes too.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "shard/chunking.h"
#include "storage/stats_builder.h"
#include "storage/table.h"

namespace robustqp {
namespace {

constexpr int64_t kFactChunks = 8;
constexpr int64_t kFactRows = kFactChunks * kShardChunkRows;

struct ShardBenchInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> scan_query;  // selective filter on the clustered key
  std::unique_ptr<Query> join_query;  // full star join, no fact filter
};

/// Fact table with a clustered key (== row + 1) spanning kFactChunks
/// chunks plus two zipf-FK dimensions — the same shape as shard_test's
/// differential instance, sized for throughput measurement.
const ShardBenchInstance& Instance() {
  static const ShardBenchInstance inst = [] {
    Rng rng(4242);
    ShardBenchInstance out;
    out.catalog = std::make_unique<Catalog>();

    const int64_t d1_rows = 200;
    const int64_t d2_rows = 50;
    auto zipf1 = std::make_shared<ZipfSampler>(d1_rows, 0.8);
    auto zipf2 = std::make_shared<ZipfSampler>(d2_rows, 0.5);

    auto fact = std::make_shared<Table>(TableSchema(
        "f", {{"k", DataType::kInt64},
              {"fk1", DataType::kInt64},
              {"fk2", DataType::kInt64},
              {"a", DataType::kInt64}}));
    for (int64_t r = 0; r < kFactRows; ++r) {
      fact->column(0).AppendInt(r + 1);
      fact->column(1).AppendInt(zipf1->Sample(&rng));
      fact->column(2).AppendInt(zipf2->Sample(&rng));
      fact->column(3).AppendInt(rng.UniformInt(1, 16));
    }
    RQP_CHECK(fact->Finalize().ok());
    auto fact_stats = ComputeTableStats(*fact);
    RQP_CHECK(
        out.catalog->AddTable(std::move(fact), std::move(fact_stats)).ok());

    const auto add_dim = [&](const std::string& name, int64_t n) {
      auto t = std::make_shared<Table>(
          TableSchema(name, {{"k" + name, DataType::kInt64},
                             {"a" + name, DataType::kInt64}}));
      for (int64_t r = 0; r < n; ++r) {
        t->column(0).AppendInt(r + 1);
        t->column(1).AppendInt(rng.UniformInt(1, 8));
      }
      RQP_CHECK(t->Finalize().ok());
      auto stats = ComputeTableStats(*t);
      RQP_CHECK(out.catalog->AddTable(std::move(t), std::move(stats)).ok());
    };
    add_dim("d1", d1_rows);
    add_dim("d2", d2_rows);

    std::vector<JoinPredicate> joins = {{"f", "fk1", "d1", "kd1", ""},
                                        {"f", "fk2", "d2", "kd2", ""}};
    std::vector<EppRef> epps = {EppRef::Join(0), EppRef::Join(1)};

    // Single-table scan selecting one zone block of chunk 0: chunks 1..7
    // prove kNone whole, so the measurement is dominated by how cheaply
    // the pruned region retires — one whole-chunk charge per chunk.
    std::vector<FilterPredicate> scan_filters = {
        {"f", "k", CompareOp::kLe, static_cast<double>(kZoneBlockRows)}};
    out.scan_query = std::make_unique<Query>(
        "shard_scan", std::vector<std::string>{"f"},
        std::vector<JoinPredicate>{}, scan_filters,
        std::vector<EppRef>{EppRef::Filter(0)});
    RQP_CHECK(out.scan_query->Validate(*out.catalog).ok());

    out.join_query = std::make_unique<Query>(
        "shard_join", std::vector<std::string>{"f", "d1", "d2"}, joins,
        std::vector<FilterPredicate>{{"d1", "ad1", CompareOp::kLe, 5.0}},
        epps);
    RQP_CHECK(out.join_query->Validate(*out.catalog).ok());
    return out;
  }();
  return inst;
}

Executor MakeShardedEngine(int shards, int threads) {
  Executor::Options options;
  options.engine = Executor::Engine::kBatch;
  options.num_threads = threads;
  options.num_shards = shards;
  options.use_zone_maps = true;
  return Executor(&*Instance().catalog, CostModel::PostgresFlavour(),
                  options);
}

std::unique_ptr<Plan> MakePlan(const Query& q) {
  Optimizer opt(&*Instance().catalog, &q);
  EssPoint p = q.num_epps() == 1 ? EssPoint{1e-2} : EssPoint{1e-3, 1e-1};
  return opt.Optimize(p);
}

/// Selective clustered scan: 7 of 8 fact chunks are provably empty, and
/// every variant prunes them (shards only label the chunks).
void BM_ChunkPrunedScan(benchmark::State& state, int shards, int threads) {
  const Executor exec = MakeShardedEngine(shards, threads);
  const std::unique_ptr<Plan> plan = MakePlan(*Instance().scan_query);
  for (auto _ : state) {
    const auto res = exec.Execute(*plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    benchmark::DoNotOptimize(res->cost_used);
    RQP_CHECK(res->shard.chunks_pruned >= (kFactChunks - 1));
  }
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK_CAPTURE(BM_ChunkPrunedScan, Unsharded, 1, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChunkPrunedScan, Shards2, 2, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChunkPrunedScan, Shards4, 4, 1)
    ->Unit(benchmark::kMillisecond);

/// Full star join scattered over N workers sharing a 4-thread pool:
/// end-to-end scatter-gather throughput, gather merge included.
void BM_ScatterGather(benchmark::State& state, int shards, int threads) {
  const Executor exec = MakeShardedEngine(shards, threads);
  const std::unique_ptr<Plan> plan = MakePlan(*Instance().join_query);
  for (auto _ : state) {
    const auto res = exec.Execute(*plan, -1.0);
    RQP_CHECK(res.ok() && res->completed);
    benchmark::DoNotOptimize(res->output_rows);
  }
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK_CAPTURE(BM_ScatterGather, Shards1, 1, 4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ScatterGather, Shards2, 2, 4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ScatterGather, Shards4, 4, 4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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
