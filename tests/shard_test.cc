// Tests for chunked and sharded execution (src/shard/ and the batch
// engine's chunk driver): chunk geometry and round-robin shard labels,
// whole-chunk zone classification, the composed per-shard MSO bound, the
// core differential property (chunk-driven runs bit-identical to the
// tuple engine at any thread count x shard count, with and without zone
// maps, over every sink kind and table shape), count-exact whole-chunk
// pruning, and the shard.straggler / shard.lost_chunk fault goldens with
// retry-on-replica recovery charged into cost_used.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/oracle.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "shard/chunking.h"
#include "shard/mso.h"
#include "storage/stats_builder.h"
#include "storage/table.h"
#include "test_util.h"

namespace robustqp {
namespace {

using shard::ChunkMatch;
using shard::ComposedMso;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

// --- Chunk geometry ------------------------------------------------------

TEST(ShardChunkingTest, GeometryEdgeCases) {
  EXPECT_EQ(shard::ChunkCount(0), 0);
  EXPECT_EQ(shard::ChunkCount(1), 1);
  EXPECT_EQ(shard::ChunkCount(kShardChunkRows), 1);
  EXPECT_EQ(shard::ChunkCount(kShardChunkRows + 1), 2);
  EXPECT_EQ(shard::ChunkCount(3 * kShardChunkRows), 3);

  EXPECT_EQ(shard::ChunkBegin(0), 0);
  EXPECT_EQ(shard::ChunkBegin(2), 2 * kShardChunkRows);
  // End clamps to the table size; a full chunk ends on the boundary.
  EXPECT_EQ(shard::ChunkEnd(0, 3 * kShardChunkRows), kShardChunkRows);
  EXPECT_EQ(shard::ChunkEnd(1, kShardChunkRows + 1000),
            kShardChunkRows + 1000);

  // Chunk boundaries are whole multiples of the zone-map block, so a
  // chunk never splits a block and chunk summaries fold block summaries.
  EXPECT_EQ(kShardChunkRows % kZoneBlockRows, 0);

  for (int64_t c = 0; c < 12; ++c) {
    EXPECT_EQ(shard::ShardOfChunk(c, 1), 0);
    EXPECT_EQ(shard::ShardOfChunk(c, 3), static_cast<int>(c % 3));
  }
}

TEST(ShardChunkingTest, LayoutRoundRobin) {
  // Shard w owns the ascending chunk sequence {c : c mod num_shards == w}.
  const int64_t chunks = shard::ChunkCount(3 * kShardChunkRows + 7);
  EXPECT_EQ(chunks, 4);
  std::vector<std::vector<int64_t>> owned(3);
  for (int64_t c = 0; c < chunks; ++c) {
    owned[static_cast<size_t>(shard::ShardOfChunk(c, 3))].push_back(c);
  }
  EXPECT_EQ(owned[0], (std::vector<int64_t>{0, 3}));
  EXPECT_EQ(owned[1], (std::vector<int64_t>{1}));
  EXPECT_EQ(owned[2], (std::vector<int64_t>{2}));
}

// --- Whole-chunk classification ------------------------------------------

TEST(ShardChunkingTest, ClassifyChunkVerdicts) {
  // Clustered column: value == row + 1, three full chunks.
  const int64_t rows = 3 * kShardChunkRows;
  auto table = std::make_shared<Table>(
      TableSchema("zc", {{"k", DataType::kInt64}}));
  for (int64_t r = 0; r < rows; ++r) table->column(0).AppendInt(r + 1);
  ASSERT_TRUE(table->Finalize().ok());
  const ColumnData& col = table->column(0);
  ASSERT_EQ(col.chunk_zones().num_blocks(), 3);

  // Chunk c holds values [c*R + 1, (c+1)*R].
  const double r1 = static_cast<double>(kShardChunkRows);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kLe, r1, 0), ChunkMatch::kAll);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kLe, r1, 1),
            ChunkMatch::kNone);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kLe, r1 + 10.0, 1),
            ChunkMatch::kSome);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kGt, 2.0 * r1, 2),
            ChunkMatch::kAll);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kGe, 2.0 * r1, 1),
            ChunkMatch::kSome);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kEq, r1 + 1.0, 0),
            ChunkMatch::kNone);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kEq, r1 + 1.0, 1),
            ChunkMatch::kSome);

  // A NaN literal satisfies nothing; out-of-range chunks are undecided.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kLe, nan, 0),
            ChunkMatch::kNone);
  EXPECT_EQ(shard::ClassifyChunk(col, CompareOp::kLe, r1, 99),
            ChunkMatch::kSome);

  // Without Finalize there is no summary: always scan.
  Table raw(TableSchema("raw", {{"k", DataType::kInt64}}));
  raw.column(0).AppendInt(5);
  EXPECT_EQ(shard::ClassifyChunk(raw.column(0), CompareOp::kLe, 10.0, 0),
            ChunkMatch::kSome);
}

// --- Composed MSO bound --------------------------------------------------

TEST(ShardMsoTest, ComposeBound) {
  const ComposedMso m = shard::ComposeMsoBound(10.0, 4);
  EXPECT_EQ(m.num_shards, 4);
  EXPECT_DOUBLE_EQ(m.per_shard_guarantee, 10.0);
  // Homogeneous shards: the composed global bound IS the per-shard bound.
  EXPECT_DOUBLE_EQ(m.composed, 10.0);

  EXPECT_EQ(shard::ComposeMsoBound(10.0, 0).num_shards, 1);
  EXPECT_DOUBLE_EQ(shard::ComposeMsoBound(0.0, 8).composed, 0.0);

  EXPECT_DOUBLE_EQ(shard::ComposeShardGuarantees({}), 0.0);
  EXPECT_DOUBLE_EQ(shard::ComposeShardGuarantees({3.0, 7.0, 5.0}), 7.0);
}

// --- Shared execution fixtures -------------------------------------------

Executor MakeEngine(const Catalog* catalog, int threads, int shards,
                    bool zone_maps = true) {
  Executor::Options options;
  options.engine = Executor::Engine::kBatch;
  options.num_threads = threads;
  options.num_shards = shards;
  options.use_zone_maps = zone_maps;
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

struct ShardInstance {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
  int64_t fact_rows = 0;
};

/// A star instance whose fact table spans several shard chunks: clustered
/// key `k` (== row + 1), zipf FKs into two small dimensions, and an
/// optional selective filter on the clustered key (`fact_key_le` > 0) so
/// whole-chunk pruning has something to prove.
ShardInstance MakeShardInstance(uint64_t seed, int64_t fact_rows,
                                double fact_key_le = -1.0) {
  Rng rng(seed);
  ShardInstance inst;
  inst.catalog = std::make_unique<Catalog>();
  inst.fact_rows = fact_rows;

  const int64_t d1_rows = 100;
  const int64_t d2_rows = 50;
  auto zipf1 = std::make_shared<ZipfSampler>(d1_rows, 0.8);
  auto zipf2 = std::make_shared<ZipfSampler>(d2_rows, 0.5);

  auto fact = std::make_shared<Table>(TableSchema(
      "f", {{"k", DataType::kInt64},
            {"fk1", DataType::kInt64},
            {"fk2", DataType::kInt64},
            {"a", DataType::kInt64}}));
  for (int64_t r = 0; r < fact_rows; ++r) {
    fact->column(0).AppendInt(r + 1);
    fact->column(1).AppendInt(zipf1->Sample(&rng));
    fact->column(2).AppendInt(zipf2->Sample(&rng));
    fact->column(3).AppendInt(rng.UniformInt(1, 16));
  }
  RQP_CHECK(fact->Finalize().ok());
  auto fact_stats = ComputeTableStats(*fact);
  RQP_CHECK(inst.catalog->AddTable(std::move(fact), std::move(fact_stats))
                .ok());

  const auto add_dim = [&](const std::string& name, int64_t n) {
    auto t = std::make_shared<Table>(TableSchema(
        name, {{"k" + name, DataType::kInt64}, {"a" + name, DataType::kInt64}}));
    for (int64_t r = 0; r < n; ++r) {
      t->column(0).AppendInt(r + 1);
      t->column(1).AppendInt(rng.UniformInt(1, 8));
    }
    RQP_CHECK(t->Finalize().ok());
    auto stats = ComputeTableStats(*t);
    RQP_CHECK(inst.catalog->AddTable(std::move(t), std::move(stats)).ok());
  };
  add_dim("d1", d1_rows);
  add_dim("d2", d2_rows);

  std::vector<JoinPredicate> joins = {{"f", "fk1", "d1", "kd1", ""},
                                      {"f", "fk2", "d2", "kd2", ""}};
  std::vector<FilterPredicate> filters = {
      {"d1", "ad1", CompareOp::kLe, 5.0}};
  if (fact_key_le > 0.0) {
    filters.insert(filters.begin(),
                   {"f", "k", CompareOp::kLe, fact_key_le});
  }
  std::vector<EppRef> epps = {EppRef::Join(0), EppRef::Join(1)};
  inst.query = std::make_unique<Query>("shard" + std::to_string(seed),
                                       std::vector<std::string>{"f", "d1",
                                                                "d2"},
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

// --- The differential property -------------------------------------------

class ShardDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Sharded runs must be bit-identical to the unsharded baseline at every
// (shard count x thread count), and budgeted / spill executions — which
// never scatter — must come back identical through the sharded options
// too.
TEST_P(ShardDifferentialTest, ShardedMatchesUnshardedExactly) {
  const uint64_t seed = GetParam();
  ShardInstance inst =
      MakeShardInstance(seed, 3 * kShardChunkRows + 1000);
  Rng rng(seed * 7919 + 1);
  Executor base = MakeEngine(inst.catalog.get(), 1, 1);

  Optimizer opt(inst.catalog.get(), inst.query.get());
  const int dims = inst.query->num_epps();
  for (int trial = 0; trial < 2; ++trial) {
    const std::unique_ptr<Plan> plan = opt.Optimize(RandomPoint(&rng, dims));
    const std::string tag = "seed " + std::to_string(seed) + " plan " +
                            plan->signature();

    const Result<ExecutionResult> clean = base.Execute(*plan, -1.0);
    ASSERT_TRUE(clean.ok() && clean->completed) << tag;
    EXPECT_FALSE(clean->shard.Any()) << tag;

    for (const int shards : {2, 4}) {
      for (const int threads : {1, 2, 4}) {
        Executor sharded = MakeEngine(inst.catalog.get(), threads, shards);
        const std::string s_tag = tag + " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        const Result<ExecutionResult> r = sharded.Execute(*plan, -1.0);
        ASSERT_TRUE(r.ok()) << s_tag;
        ExpectSameResult(*clean, *r, s_tag + " [full]");
        // The run actually scattered: the fact scan alone spans 4 chunks.
        EXPECT_EQ(r->shard.num_shards, shards) << s_tag;
        EXPECT_TRUE(r->shard.Any()) << s_tag;
        EXPECT_GE(r->shard.chunks_total, 4) << s_tag;
        EXPECT_EQ(r->shard.chunks_scanned + r->shard.chunks_pruned,
                  r->shard.chunks_total)
            << s_tag;
        ASSERT_EQ(r->shard.shard_cost.size(), static_cast<size_t>(shards))
            << s_tag;
      }
    }

    // Budgeted runs keep the sequential single-platform semantics: the
    // sharded options must not perturb a single bit, and no scatter
    // happens.
    Executor sharded2 = MakeEngine(inst.catalog.get(), 2, 4);
    for (const double frac : {0.22, 0.71}) {
      const double budget = clean->cost_used * frac;
      const Result<ExecutionResult> a = base.Execute(*plan, budget);
      const Result<ExecutionResult> b = sharded2.Execute(*plan, budget);
      ASSERT_TRUE(a.ok() && b.ok()) << tag;
      ExpectSameResult(*a, *b, tag + " [budget]");
      EXPECT_FALSE(b->shard.Any()) << tag;
    }

    // Spill executions never scatter either.
    for (int d = 0; d < dims; ++d) {
      const int node_id = plan->EppNodeId(d);
      if (node_id < 0) continue;
      const Result<ExecutionResult> a = base.ExecuteSpill(*plan, node_id, -1.0);
      const Result<ExecutionResult> b =
          sharded2.ExecuteSpill(*plan, node_id, -1.0);
      ASSERT_TRUE(a.ok() && b.ok()) << tag;
      ExpectSameResult(*a, *b, tag + " [spill]");
      EXPECT_FALSE(b->shard.Any()) << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

// Whole-chunk pruning is physical-only: with a selective filter on the
// clustered key, zone-mapped runs — unsharded serial ones included —
// skip whole chunks yet charge counts identical to per-batch evaluation,
// to runs with zone maps off entirely, and to the tuple engine.
TEST(ShardPruningTest, WholeChunkPruneIsCountExact) {
  // Filter covers chunk 0 fully (kAll), chunk 1 partially (kSome), and
  // proves chunks 2..3 empty (kNone -> pruned).
  ShardInstance inst = MakeShardInstance(
      17, 3 * kShardChunkRows + 1000,
      static_cast<double>(kShardChunkRows) + 7000.0);
  Rng rng(99);
  Optimizer opt(inst.catalog.get(), inst.query.get());
  const std::unique_ptr<Plan> plan =
      opt.Optimize(RandomPoint(&rng, inst.query->num_epps()));

  Executor base = MakeEngine(inst.catalog.get(), 1, 1);
  Executor no_zones = MakeEngine(inst.catalog.get(), 1, 2, false);
  Executor sharded = MakeEngine(inst.catalog.get(), 2, 2);
  Executor::Options tuple_options;
  tuple_options.engine = Executor::Engine::kTuple;
  Executor tuple(inst.catalog.get(), CostModel::PostgresFlavour(),
                 tuple_options);

  const Result<ExecutionResult> a = base.Execute(*plan, -1.0);
  const Result<ExecutionResult> b = no_zones.Execute(*plan, -1.0);
  const Result<ExecutionResult> c = sharded.Execute(*plan, -1.0);
  const Result<ExecutionResult> t = tuple.Execute(*plan, -1.0);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && t.ok())
      << a.status().ToString() << " / " << b.status().ToString() << " / "
      << c.status().ToString() << " / " << t.status().ToString();
  ExpectSameResult(*a, *c, "pruned vs unsharded");
  ExpectSameResult(*b, *c, "pruned vs zone-maps-off");
  ExpectSameResult(*b, *a, "unsharded serial pruned vs zone-maps-off");
  ExpectSameResult(*t, *a, "unsharded serial pruned vs tuple engine");
  EXPECT_GE(a->shard.chunks_pruned, 2);
  EXPECT_GE(c->shard.chunks_pruned, 2);
  EXPECT_EQ(a->shard.chunks_pruned, c->shard.chunks_pruned);
  EXPECT_EQ(b->shard.chunks_pruned, 0);
  ExpectSameResult(*b, *c, "zone-maps-off sharded vs sharded");
}

// Shard counts below 1 clamp to the unsharded run: same results and the
// same chunk accounting, with no shard split.
TEST(ShardDriverTest, ZeroOrNegativeShardsMeanUnsharded) {
  ShardInstance inst = MakeShardInstance(5, 2 * kShardChunkRows + 100);
  Rng rng(5);
  Optimizer opt(inst.catalog.get(), inst.query.get());
  const std::unique_ptr<Plan> plan =
      opt.Optimize(RandomPoint(&rng, inst.query->num_epps()));

  Executor base = MakeEngine(inst.catalog.get(), 1, 1);
  const Result<ExecutionResult> a = base.Execute(*plan, -1.0);
  ASSERT_TRUE(a.ok());
  for (const int shards : {0, -3}) {
    const std::string tag = "shards=" + std::to_string(shards);
    Executor clamped = MakeEngine(inst.catalog.get(), 2, shards);
    const Result<ExecutionResult> b = clamped.Execute(*plan, -1.0);
    ASSERT_TRUE(b.ok()) << tag;
    ExpectSameResult(*a, *b, tag);
    EXPECT_EQ(b->shard.num_shards, 1) << tag;
    EXPECT_FALSE(b->shard.Any()) << tag;
    EXPECT_TRUE(b->shard.shard_cost.empty()) << tag;
    EXPECT_EQ(b->shard.chunks_total, a->shard.chunks_total) << tag;
    EXPECT_EQ(b->shard.chunks_pruned, a->shard.chunks_pruned) << tag;
  }
}

/// Scan node over query table `table` carrying every filter on it.
std::unique_ptr<PlanNode> ScanNode(const Query& q, int table) {
  auto n = std::make_unique<PlanNode>();
  n->op = PlanOp::kSeqScan;
  n->table_idx = table;
  for (int i = 0; i < static_cast<int>(q.filters().size()); ++i) {
    if (q.TableIndex(q.filters()[static_cast<size_t>(i)].table) == table) {
      n->filter_indices.push_back(i);
    }
  }
  return n;
}

std::unique_ptr<PlanNode> JoinNode(PlanOp op, int join,
                                   std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right) {
  auto n = std::make_unique<PlanNode>();
  n->op = op;
  n->join_indices = {join};
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

// The single chunk driver where it can break: every (threads x shards x
// zone maps) setting against the tuple engine, over an empty fact table,
// one partial chunk, exactly two chunks, and three chunks plus a tail,
// with the fact scan feeding each blocking sink kind.
TEST(ShardDriverTest, EverySinkAndTableShapeMatchesTupleEngine) {
  // Tables are f (0), d1 (1), d2 (2); join 0 is f~d1, join 1 is f~d2.
  using PlanMaker = std::unique_ptr<PlanNode> (*)(const Query&);
  const std::vector<std::pair<std::string, PlanMaker>> shapes = {
      {"hash-build",
       [](const Query& q) {
         return JoinNode(PlanOp::kHashJoin, 1,
                         JoinNode(PlanOp::kHashJoin, 0, ScanNode(q, 0),
                                  ScanNode(q, 1)),
                         ScanNode(q, 2));
       }},
      {"nlj-materialize",
       [](const Query& q) {
         return JoinNode(PlanOp::kHashJoin, 1,
                         JoinNode(PlanOp::kNLJoin, 0, ScanNode(q, 1),
                                  ScanNode(q, 0)),
                         ScanNode(q, 2));
       }},
      {"sort",
       [](const Query& q) {
         return JoinNode(PlanOp::kHashJoin, 1, ScanNode(q, 2),
                         JoinNode(PlanOp::kSortMergeJoin, 0, ScanNode(q, 0),
                                  ScanNode(q, 1)));
       }},
  };
  for (const int64_t rows :
       {int64_t{0}, int64_t{5000}, 2 * kShardChunkRows,
        3 * kShardChunkRows + 1000}) {
    // The fact filter passes chunk 0 whole, chunk 1 in part, and proves
    // later chunks empty.
    ShardInstance inst = MakeShardInstance(
        23, rows, static_cast<double>(kShardChunkRows) + 7000.0);
    Executor::Options tuple_options;
    tuple_options.engine = Executor::Engine::kTuple;
    Executor tuple(inst.catalog.get(), CostModel::PostgresFlavour(),
                   tuple_options);
    for (const auto& [name, make] : shapes) {
      const Plan plan(inst.query.get(), make(*inst.query));
      const std::string tag = name + " rows=" + std::to_string(rows);
      const Result<ExecutionResult> ref = tuple.Execute(plan, -1.0);
      ASSERT_TRUE(ref.ok() && ref->completed) << tag;
      for (const int threads : {1, 2, 4}) {
        for (const int shards : {0, 1, 2, 3}) {
          for (const bool zones : {true, false}) {
            const std::string run_tag =
                tag + " threads=" + std::to_string(threads) +
                " shards=" + std::to_string(shards) +
                (zones ? " zones" : " no-zones");
            Executor batch =
                MakeEngine(inst.catalog.get(), threads, shards, zones);
            const Result<ExecutionResult> r = batch.Execute(plan, -1.0);
            ASSERT_TRUE(r.ok()) << run_tag;
            ExpectSameResult(*ref, *r, run_tag);
            // Every scan pipeline (fact, d1, d2) is chunk-driven.
            const shard::ShardReport& sr = r->shard;
            EXPECT_EQ(sr.chunks_total, shard::ChunkCount(rows) + 2)
                << run_tag;
            EXPECT_EQ(sr.chunks_scanned + sr.chunks_pruned, sr.chunks_total)
                << run_tag;
            if (!zones) {
              EXPECT_EQ(sr.chunks_pruned, 0) << run_tag;
            }
            EXPECT_EQ(sr.Any(), shards > 1) << run_tag;
            EXPECT_EQ(sr.shard_cost.size(),
                      static_cast<size_t>(shards > 1 ? shards : 0))
                << run_tag;
          }
        }
      }
    }
  }
}

// --- Shard fault goldens -------------------------------------------------

/// RAII disarm so a failing assertion cannot leak an armed injector into
/// later tests.
struct ArmedScope {
  explicit ArmedScope(const std::string& spec, uint64_t seed = 42) {
    const Status st = FaultInjector::Configure(spec, seed);
    RQP_CHECK(st.ok());
  }
  ~ArmedScope() { FaultInjector::Disarm(); }
};

// shard.straggler with p=1/permanent: every shard of every scattered
// pipeline is speculatively re-dispatched. The committed results are the
// clean run's, the duplicate work is charged into cost_used, and the
// whole episode is deterministic.
TEST(ShardFaultTest, StragglerSpeculationChargesDuplicates) {
  ShardInstance inst = MakeShardInstance(7, 2 * kShardChunkRows + 500);
  Rng rng(7);
  Optimizer opt(inst.catalog.get(), inst.query.get());
  const std::unique_ptr<Plan> plan =
      opt.Optimize(RandomPoint(&rng, inst.query->num_epps()));
  Executor sharded = MakeEngine(inst.catalog.get(), 2, 2);

  const Result<ExecutionResult> clean = sharded.Execute(*plan, -1.0);
  ASSERT_TRUE(clean.ok() && clean->completed);

  ExecutionResult r1, r2;
  {
    ArmedScope armed("shard.straggler:p=1,kind=permanent");
    {
      FaultStreamScope scope(0);
      Result<ExecutionResult> r = sharded.Execute(*plan, -1.0);
      ASSERT_TRUE(r.ok());
      r1 = r.MoveValue();
    }
    {
      FaultStreamScope scope(0);
      Result<ExecutionResult> r = sharded.Execute(*plan, -1.0);
      ASSERT_TRUE(r.ok());
      r2 = r.MoveValue();
    }
  }

  // Speculation does not perturb committed rows or stats.
  EXPECT_TRUE(r1.completed);
  EXPECT_EQ(r1.output_rows, clean->output_rows);
  ASSERT_EQ(r1.node_stats.size(), clean->node_stats.size());
  for (size_t i = 0; i < r1.node_stats.size(); ++i) {
    EXPECT_EQ(r1.node_stats[i].out, clean->node_stats[i].out) << i;
  }
  // Every shard of every scattered pipeline straggled.
  EXPECT_GE(r1.robustness.shard_stragglers, 2);
  EXPECT_EQ(r1.robustness.shard_stragglers, r1.shard.straggler_retries);
  EXPECT_GT(r1.shard.retried_cost, 0.0);
  // Duplicate work is visible in cost_used, on top of the clean cost.
  EXPECT_DOUBLE_EQ(r1.cost_used, clean->cost_used + r1.shard.retried_cost);
  // Deterministic: same spec, same stream, same bits.
  EXPECT_EQ(r1.cost_used, r2.cost_used);
  EXPECT_EQ(r1.shard.retried_cost, r2.shard.retried_cost);
  EXPECT_EQ(r1.robustness.shard_stragglers, r2.robustness.shard_stragglers);
}

// shard.lost_chunk with p=1/permanent: every scanned chunk's primary is
// doomed mid-scan, charged, discarded, and recovered on a replica whose
// partials are the ones committed — results identical to clean.
TEST(ShardFaultTest, LostChunkRecoversOnReplica) {
  ShardInstance inst = MakeShardInstance(9, 2 * kShardChunkRows + 500);
  Rng rng(9);
  Optimizer opt(inst.catalog.get(), inst.query.get());
  const std::unique_ptr<Plan> plan =
      opt.Optimize(RandomPoint(&rng, inst.query->num_epps()));
  Executor sharded = MakeEngine(inst.catalog.get(), 1, 2);

  const Result<ExecutionResult> clean = sharded.Execute(*plan, -1.0);
  ASSERT_TRUE(clean.ok() && clean->completed);

  ExecutionResult r1;
  {
    ArmedScope armed("shard.lost_chunk:p=1,kind=permanent");
    FaultStreamScope scope(0);
    Result<ExecutionResult> r = sharded.Execute(*plan, -1.0);
    ASSERT_TRUE(r.ok());
    r1 = r.MoveValue();
  }

  EXPECT_TRUE(r1.completed);
  EXPECT_EQ(r1.output_rows, clean->output_rows);
  EXPECT_EQ(r1.shard.chunks_scanned, clean->shard.chunks_scanned);
  // Every scanned chunk was lost once and recovered.
  EXPECT_EQ(r1.shard.lost_chunks, r1.shard.chunks_scanned);
  EXPECT_EQ(r1.robustness.shard_lost_chunks, r1.shard.lost_chunks);
  EXPECT_GT(r1.shard.retried_cost, 0.0);
  EXPECT_DOUBLE_EQ(r1.cost_used, clean->cost_used + r1.shard.retried_cost);
  // The replica's committed stats equal the clean run's.
  ASSERT_EQ(r1.node_stats.size(), clean->node_stats.size());
  for (size_t i = 0; i < r1.node_stats.size(); ++i) {
    EXPECT_EQ(r1.node_stats[i].left_in, clean->node_stats[i].left_in) << i;
    EXPECT_EQ(r1.node_stats[i].out, clean->node_stats[i].out) << i;
  }
}

// Arming the shard sites with p=0 draws the full fault sequence but fires
// nothing: results stay bit-identical to the disarmed run, proving the
// coordinator-side draws sit outside the committed accounting.
TEST(ShardFaultTest, ArmedQuietMatchesDisarmed) {
  ShardInstance inst = MakeShardInstance(11, 2 * kShardChunkRows + 500);
  Rng rng(11);
  Optimizer opt(inst.catalog.get(), inst.query.get());
  const std::unique_ptr<Plan> plan =
      opt.Optimize(RandomPoint(&rng, inst.query->num_epps()));
  Executor sharded = MakeEngine(inst.catalog.get(), 2, 4);

  const Result<ExecutionResult> clean = sharded.Execute(*plan, -1.0);
  ASSERT_TRUE(clean.ok());

  ExecutionResult quiet;
  {
    ArmedScope armed("shard.straggler:p=0;shard.lost_chunk:p=0");
    FaultStreamScope scope(0);
    Result<ExecutionResult> r = sharded.Execute(*plan, -1.0);
    ASSERT_TRUE(r.ok());
    quiet = r.MoveValue();
  }
  ExpectSameResult(*clean, quiet, "armed-quiet");
  EXPECT_EQ(quiet.shard.straggler_retries, 0);
  EXPECT_EQ(quiet.shard.lost_chunks, 0);
}

// --- Composed bound through discovery ------------------------------------

// A sharded oracle surfaces the composed per-shard bound in every
// DiscoveryResult, and — faults aside — sharding never changes what the
// discovery protocol observes.
TEST(ShardComposedMsoTest, DiscoverySurfacesComposedBound) {
  auto catalog = MakeTinyCatalog();
  Query query = MakeStarQuery(2);
  Ess::Config config;
  config.points_per_dim = 8;
  config.min_sel = 1e-4;
  std::unique_ptr<Ess> ess = Ess::Build(*catalog, query, config);
  ASSERT_NE(ess, nullptr);

  SpillBound sb(ess.get());
  const GridLoc qa = {5, 3};

  SimulatedOracle plain(ess.get(), qa);
  const DiscoveryResult base = sb.Run(&plain);
  EXPECT_TRUE(base.completed);
  EXPECT_EQ(base.composed_mso.num_shards, 1);
  EXPECT_DOUBLE_EQ(base.composed_mso.composed, sb.MsoGuarantee());

  SimulatedOracle sharded(ess.get(), qa);
  sharded.set_num_shards(4);
  const DiscoveryResult r = sb.Run(&sharded);
  EXPECT_TRUE(r.completed);
  // Clean sharded discovery is observationally identical...
  EXPECT_DOUBLE_EQ(r.total_cost, base.total_cost);
  EXPECT_EQ(r.num_executions(), base.num_executions());
  // ...and carries the composed statement: max over homogeneous shards,
  // i.e. the single-platform guarantee survives scale-out unchanged.
  EXPECT_EQ(r.composed_mso.num_shards, 4);
  EXPECT_DOUBLE_EQ(r.composed_mso.per_shard_guarantee, sb.MsoGuarantee());
  EXPECT_DOUBLE_EQ(r.composed_mso.composed, sb.MsoGuarantee());
}

}  // namespace
}  // namespace robustqp
