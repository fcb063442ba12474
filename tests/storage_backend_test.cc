// Differential tests for the storage backends: execution against an
// mmap-backed column-file catalog must be *bit-identical* to the resident
// catalog — same cost_used double, same NodeStats counters — across
// engines, thread counts, shards, budgets, spill runs, and fused/decode.
// Also covers the storage.page_fault injection site (mapped blocks degrade
// to the decode path without changing any result bit), string-predicate
// exactness on dictionary columns, and the backend-aware cache keys
// (ContextCache, FeedbackStore) including InvalidateQuery prefix edges.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "feedback/feedback_store.h"
#include "optimizer/optimizer.h"
#include "server/context_cache.h"
#include "storage/column_file.h"
#include "storage/table.h"
#include "workloads/queries.h"
#include "workloads/tpcds.h"

namespace robustqp {
namespace {

struct ArmedScope {
  explicit ArmedScope(const std::string& spec, uint64_t seed = 42) {
    const Status st = FaultInjector::Configure(spec, seed);
    RQP_CHECK(st.ok());
  }
  ~ArmedScope() { FaultInjector::Disarm(); }
};

Executor MakeEngine(const Catalog* catalog, Executor::Engine engine,
                    int threads = 1, bool compression = true, int shards = 1) {
  Executor::Options options;
  options.engine = engine;
  options.num_threads = threads;
  options.use_zone_maps = true;
  options.use_compression = compression;
  options.num_shards = shards;
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

/// Serializes every table of `resident` to column files and reopens them
/// mapped, with the same indexes — the RemapCatalog discipline. The files
/// are unlinked once mapped (the mappings keep them alive).
std::shared_ptr<Catalog> BuildMappedTwin(const Catalog& resident) {
  char tmpl[] = "/tmp/rqp_twin_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  RQP_CHECK(dir != nullptr);
  auto mapped = std::make_shared<Catalog>();
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

/// Shared catalogs, built once per process. Scale 0.5 gives store_sales
/// 30000 rows — several 4096-row blocks, so mapped scans cross block and
/// chunk boundaries and page-fault degradation has blocks to hit.
const Catalog& ResidentCatalog() {
  static const std::shared_ptr<Catalog> c = BuildTpcdsCatalog(42, 0.5);
  return *c;
}

const Catalog& MappedCatalog() {
  static const std::shared_ptr<Catalog> c = BuildMappedTwin(ResidentCatalog());
  return *c;
}

EssPoint RandomPoint(Rng* rng, int dims) {
  EssPoint p(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    p[static_cast<size_t>(d)] =
        std::pow(10.0, rng->UniformDouble(-4.0, 0.0));
  }
  return p;
}

// The core differential: for suite queries (including the string-filter
// query 2D_QBRAND), every (engine, threads, shards, fused, budget, spill)
// combination must produce bit-identical results on resident and mapped
// catalogs.
TEST(StorageBackendTest, ResidentAndMappedExecuteBitIdentically) {
  EXPECT_FALSE(ResidentCatalog().FindTable("store_sales")->table->IsMapped());
  EXPECT_TRUE(MappedCatalog().FindTable("store_sales")->table->IsMapped());

  Rng rng(777);
  for (const char* id : {"2D_QBRAND", "3D_Q96", "4D_Q26"}) {
    SCOPED_TRACE(id);
    const Query q = MakeSuiteQuery(id);
    Optimizer opt(&ResidentCatalog(), &q);
    for (int p = 0; p < 2; ++p) {
      const std::unique_ptr<Plan> plan =
          opt.Optimize(RandomPoint(&rng, q.num_epps()));
      const std::string tag = std::string(id) + " point " + std::to_string(p);

      struct Variant {
        const char* name;
        Executor::Engine engine;
        int threads;
        bool compression;
        int shards;
      };
      const std::vector<Variant> variants = {
          {"tuple", Executor::Engine::kTuple, 1, true, 1},
          {"batch", Executor::Engine::kBatch, 1, true, 1},
          {"batch-mt", Executor::Engine::kBatch, 2, true, 1},
          {"batch-decode", Executor::Engine::kBatch, 1, false, 1},
          {"batch-sharded", Executor::Engine::kBatch, 2, true, 3},
      };
      double full_cost = 0.0;
      for (const Variant& v : variants) {
        Executor res_ex = MakeEngine(&ResidentCatalog(), v.engine, v.threads,
                                     v.compression, v.shards);
        Executor map_ex = MakeEngine(&MappedCatalog(), v.engine, v.threads,
                                     v.compression, v.shards);
        const Result<ExecutionResult> r = res_ex.Execute(*plan, -1.0);
        const Result<ExecutionResult> m = map_ex.Execute(*plan, -1.0);
        ASSERT_TRUE(r.ok() && m.ok()) << tag << " " << v.name;
        ExpectSameResult(*r, *m, tag + " full " + v.name);
        full_cost = r->cost_used;

        // Budgeted partial run: the abort must land on the same tuple.
        const Result<ExecutionResult> rb = res_ex.Execute(*plan, 0.455 * full_cost);
        const Result<ExecutionResult> mb = map_ex.Execute(*plan, 0.455 * full_cost);
        ASSERT_TRUE(rb.ok() && mb.ok()) << tag << " " << v.name;
        ExpectSameResult(*rb, *mb, tag + " budget " + v.name);
      }

      // Spill-mode run at the first EPP node.
      Executor res_ex = MakeEngine(&ResidentCatalog(), Executor::Engine::kBatch);
      Executor map_ex = MakeEngine(&MappedCatalog(), Executor::Engine::kBatch);
      const int spill_node = plan->EppNodeId(0);
      const Result<ExecutionResult> rs =
          res_ex.ExecuteSpill(*plan, spill_node, 0.6 * full_cost);
      const Result<ExecutionResult> ms =
          map_ex.ExecuteSpill(*plan, spill_node, 0.6 * full_cost);
      ASSERT_TRUE(rs.ok() && ms.ok()) << tag;
      ExpectSameResult(*rs, *ms, tag + " spill");
    }
  }
}

// The order-preserving dictionary mapping must make a string predicate
// behave exactly like direct evaluation on the strings: the item scan's
// filter_pass equals a by-hand count of rows with i_brand <= the literal.
TEST(StorageBackendTest, StringPredicateMatchesDirectEvaluation) {
  const Query q = MakeSuiteQuery("2D_QBRAND");
  Optimizer opt(&ResidentCatalog(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.2, 0.2});

  const CatalogEntry* item = ResidentCatalog().FindTable("item");
  const int64_t item_rows = item->table->num_rows();
  const int brand_col = item->table->schema().FindColumn("i_brand");
  ASSERT_GE(brand_col, 0);
  int64_t expect_pass = 0;
  for (int64_t r = 0; r < item_rows; ++r) {
    if (item->table->column(brand_col).GetString(r) <= "brand_19") {
      ++expect_pass;
    }
  }
  ASSERT_GT(expect_pass, 0);
  ASSERT_LT(expect_pass, item_rows);

  for (const Catalog* catalog : {&ResidentCatalog(), &MappedCatalog()}) {
    Executor ex = MakeEngine(catalog, Executor::Engine::kBatch);
    const Result<ExecutionResult> res = ex.Execute(*plan, -1.0);
    ASSERT_TRUE(res.ok() && res->completed);
    int matches = 0;
    for (const NodeStats& ns : res->node_stats) {
      if (ns.filter_in.size() == 1 && ns.filter_in[0] == item_rows) {
        EXPECT_EQ(ns.filter_pass[0], expect_pass);
        ++matches;
      }
    }
    EXPECT_EQ(matches, 1) << "expected exactly one item scan node";
  }
}

// storage.page_fault: transient mmap read faults degrade the affected
// blocks to the resident decode path. Results stay bit-identical to the
// disarmed run; the degradations are charged to the robustness report.
TEST(StorageBackendTest, PageFaultDegradesWithoutChangingResults) {
  const Query q = MakeSuiteQuery("3D_Q96");
  Optimizer opt(&MappedCatalog(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.05, 0.05, 0.05});

  Executor ex = MakeEngine(&MappedCatalog(), Executor::Engine::kBatch);
  const Result<ExecutionResult> baseline = ex.Execute(*plan, -1.0);
  ASSERT_TRUE(baseline.ok() && baseline->completed);
  EXPECT_EQ(baseline->robustness.page_fault_degradations, 0);

  {
    ArmedScope armed("storage.page_fault:p=0.7", 5);
    FaultStreamScope scope(3);
    const Result<ExecutionResult> faulted = ex.Execute(*plan, -1.0);
    ASSERT_TRUE(faulted.ok());
    ExpectSameResult(*baseline, *faulted, "page-fault degraded");
    EXPECT_GT(faulted->robustness.page_fault_degradations, 0);
  }
  {
    // Every block degraded: still bit-identical.
    ArmedScope armed("storage.page_fault:p=1", 6);
    FaultStreamScope scope(4);
    const Result<ExecutionResult> faulted = ex.Execute(*plan, -1.0);
    ASSERT_TRUE(faulted.ok());
    ExpectSameResult(*baseline, *faulted, "page-fault all-degraded");
    EXPECT_GT(faulted->robustness.page_fault_degradations, 0);
  }
}

// Armed-quiet ≡ disarmed: a spec that never fires leaves everything
// bitwise identical, including a zero degradation count.
TEST(StorageBackendTest, PageFaultArmedQuietIsBitwiseDisarmed) {
  const Query q = MakeSuiteQuery("3D_Q96");
  Optimizer opt(&MappedCatalog(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.05, 0.05, 0.05});
  Executor ex = MakeEngine(&MappedCatalog(), Executor::Engine::kBatch);
  const Result<ExecutionResult> baseline = ex.Execute(*plan, -1.0);
  ASSERT_TRUE(baseline.ok());

  ArmedScope armed("storage.page_fault:after=1000000000", 5);
  FaultStreamScope scope(3);
  const Result<ExecutionResult> quiet = ex.Execute(*plan, -1.0);
  ASSERT_TRUE(quiet.ok());
  ExpectSameResult(*baseline, *quiet, "armed quiet");
  EXPECT_EQ(quiet->robustness.page_fault_degradations, 0);
}

// The site only exists for mapped storage: a resident catalog never draws
// from it, and the tuple engine (whose block reads have no fused path to
// fall back from) never degrades either.
TEST(StorageBackendTest, PageFaultIgnoredOffTheMappedBatchPath) {
  const Query q = MakeSuiteQuery("3D_Q96");
  Optimizer opt(&ResidentCatalog(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.05, 0.05, 0.05});

  {
    Executor ex = MakeEngine(&ResidentCatalog(), Executor::Engine::kBatch);
    const Result<ExecutionResult> baseline = ex.Execute(*plan, -1.0);
    ArmedScope armed("storage.page_fault:p=1", 5);
    FaultStreamScope scope(3);
    const Result<ExecutionResult> armed_run = ex.Execute(*plan, -1.0);
    ASSERT_TRUE(baseline.ok() && armed_run.ok());
    ExpectSameResult(*baseline, *armed_run, "resident armed");
    EXPECT_EQ(armed_run->robustness.page_fault_degradations, 0);
  }
  {
    Executor ex = MakeEngine(&MappedCatalog(), Executor::Engine::kTuple);
    const Result<ExecutionResult> baseline = ex.Execute(*plan, -1.0);
    ArmedScope armed("storage.page_fault:p=1", 5);
    FaultStreamScope scope(3);
    const Result<ExecutionResult> armed_run = ex.Execute(*plan, -1.0);
    ASSERT_TRUE(baseline.ok() && armed_run.ok());
    ExpectSameResult(*baseline, *armed_run, "tuple armed");
    EXPECT_EQ(armed_run->robustness.page_fault_degradations, 0);
  }
}

// Degradation under morsel parallelism and sharding: the coordinator draws
// the per-block fault set once, so results stay deterministic and
// bit-identical to the disarmed run at any thread/shard count.
TEST(StorageBackendTest, PageFaultDeterministicAcrossThreadsAndShards) {
  const Query q = MakeSuiteQuery("3D_Q96");
  Optimizer opt(&MappedCatalog(), &q);
  const std::unique_ptr<Plan> plan = opt.Optimize({0.05, 0.05, 0.05});

  Executor ex = MakeEngine(&MappedCatalog(), Executor::Engine::kBatch,
                           /*threads=*/2, /*compression=*/true, /*shards=*/3);
  const Result<ExecutionResult> baseline = ex.Execute(*plan, -1.0);
  ASSERT_TRUE(baseline.ok());

  ArmedScope armed("storage.page_fault:p=0.7", 5);
  FaultStreamScope scope(3);
  const Result<ExecutionResult> faulted = ex.Execute(*plan, -1.0);
  ASSERT_TRUE(faulted.ok());
  ExpectSameResult(*baseline, *faulted, "sharded page-fault");
  EXPECT_GT(faulted->robustness.page_fault_degradations, 0);
}

// ---------------------------------------------------------------------------
// Backend-aware cache keys.
// ---------------------------------------------------------------------------

TEST(StorageBackendTest, ContextCacheKeySeparatesBackends) {
  Ess::Config cfg;
  cfg.points_per_dim = 8;
  const std::string resident =
      ContextCache::Key("2D_Q91", cfg, Encoding::kAuto, true,
                        StorageBackend::kResident);
  const std::string mapped = ContextCache::Key(
      "2D_Q91", cfg, Encoding::kAuto, true, StorageBackend::kMmap);
  EXPECT_NE(resident, mapped);
  EXPECT_NE(resident.find("|resident"), std::string::npos);
  EXPECT_NE(mapped.find("|mmap"), std::string::npos);
  // The default-knob overload keys as resident.
  EXPECT_EQ(ContextCache::Key("2D_Q91", cfg), resident);
}

TEST(StorageBackendTest, ContextCacheServesBothBackends) {
  ContextCache cache(ContextCache::Options{/*capacity=*/8});
  Ess::Config cfg;
  cfg.points_per_dim = 8;
  bool hit = true;
  const auto resident = cache.Get("2D_Q91", cfg, Encoding::kAuto, true,
                                  StorageBackend::kResident, &hit);
  ASSERT_TRUE(resident.ok());
  EXPECT_FALSE(hit);
  const auto mapped = cache.Get("2D_Q91", cfg, Encoding::kAuto, true,
                                StorageBackend::kMmap, &hit);
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE(hit) << "backends must not alias";
  EXPECT_FALSE(
      (*resident)->catalog->FindTable("store_sales")->table->IsMapped());
  EXPECT_TRUE((*mapped)->catalog->FindTable("store_sales")->table->IsMapped());

  // Warm hits on both keys; and the ESS surfaces are bit-identical (the
  // backend is physical only).
  ASSERT_TRUE(cache.Get("2D_Q91", cfg, Encoding::kAuto, true,
                        StorageBackend::kResident, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get("2D_Q91", cfg, Encoding::kAuto, true,
                        StorageBackend::kMmap, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ((*resident)->ess->num_contours(), (*mapped)->ess->num_contours());
}

// InvalidateQuery matches on the `id|` prefix, so an id that is a proper
// prefix of another id (the q1 vs q10 shape) must never cross-invalidate.
TEST(StorageBackendTest, InvalidateQueryPrefixEdgeCases) {
  Ess::Config cfg;
  cfg.points_per_dim = 8;
  // Key-level: "q1"'s invalidation prefix does not match "q10"'s key.
  const std::string k10 = ContextCache::Key("q10", cfg);
  EXPECT_EQ(k10.compare(0, 4, "q10|"), 0);
  EXPECT_NE(k10.compare(0, 3, "q1|"), 0);

  // Cache-level: "2D_Q9" is a proper prefix of "2D_Q91"; invalidating it
  // must drop nothing, while the exact id drops exactly its entries.
  ContextCache cache(ContextCache::Options{/*capacity=*/8});
  ASSERT_TRUE(cache.Get("2D_Q91", cfg).ok());
  ASSERT_TRUE(cache.Get("2D_QBRAND", cfg).ok());
  EXPECT_EQ(cache.InvalidateQuery("2D_Q9"), 0u);
  EXPECT_EQ(cache.InvalidateQuery("2D_Q"), 0u);
  bool hit = false;
  ASSERT_TRUE(cache.Get("2D_Q91", cfg, &hit).ok());
  EXPECT_TRUE(hit) << "prefix invalidation must not cross ids";
  EXPECT_EQ(cache.InvalidateQuery("2D_Q91"), 1u);
  ASSERT_TRUE(cache.Get("2D_QBRAND", cfg, &hit).ok());
  EXPECT_TRUE(hit) << "sibling id must survive";
  ASSERT_TRUE(cache.Get("2D_Q91", cfg, &hit).ok());
  EXPECT_FALSE(hit) << "invalidated id must rebuild";
  EXPECT_EQ(cache.stats().invalidations, 1);
}

TEST(StorageBackendTest, FeedbackStoreKeySeparatesBackends) {
  const std::string resident = feedback::FeedbackStore::Key("3D_Q96", 3);
  EXPECT_EQ(resident, feedback::FeedbackStore::Key("3D_Q96", 3, "resident"));
  const std::string mapped =
      feedback::FeedbackStore::Key("3D_Q96", 3, "mmap");
  EXPECT_NE(resident, mapped);
  // Dims still key too.
  EXPECT_NE(feedback::FeedbackStore::Key("3D_Q96", 2, "mmap"), mapped);
}

}  // namespace
}  // namespace robustqp
