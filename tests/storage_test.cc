// Unit tests for storage (Table/ColumnData), stats building, the catalog
// registry, the schema layer, zone maps, the kernel layer, and the flat
// hash index.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "common/rng.h"
#include "exec/cost_ledger.h"
#include "exec/kernels.h"
#include "storage/hash_index.h"
#include "storage/stats_builder.h"
#include "storage/table.h"

namespace robustqp {
namespace {

std::shared_ptr<Table> MakeSmallTable() {
  TableSchema schema("t", {{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t i = 0; i < 10; ++i) {
    table->column(0).AppendInt(i % 5);
    table->column(1).AppendDouble(static_cast<double>(i) * 1.5);
  }
  EXPECT_TRUE(table->Finalize().ok());
  return table;
}

TEST(SchemaTest, FindColumn) {
  TableSchema schema("t", {{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(schema.FindColumn("a"), 0);
  EXPECT_EQ(schema.FindColumn("b"), 1);
  EXPECT_EQ(schema.FindColumn("c"), -1);
}

TEST(SchemaTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeToString(DataType::kInt64), "INT64");
  EXPECT_STREQ(DataTypeToString(DataType::kDouble), "DOUBLE");
}

TEST(TableTest, FinalizeCountsRows) {
  auto table = MakeSmallTable();
  EXPECT_EQ(table->num_rows(), 10);
  EXPECT_EQ(table->column(0).GetInt(7), 2);
  EXPECT_DOUBLE_EQ(table->column(1).GetDouble(2), 3.0);
  EXPECT_DOUBLE_EQ(table->column(0).GetNumeric(7), 2.0);
}

TEST(TableTest, RaggedColumnsRejected) {
  TableSchema schema("t", {{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table table(schema);
  table.column(0).AppendInt(1);
  EXPECT_FALSE(table.Finalize().ok());
}

TEST(StatsBuilderTest, MinMaxDistinct) {
  auto table = MakeSmallTable();
  auto stats = ComputeTableStats(*table);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 4.0);
  EXPECT_EQ(stats[0].distinct_count, 5);
  EXPECT_EQ(stats[0].row_count, 10);
  EXPECT_EQ(stats[1].distinct_count, 10);
}

TEST(StatsBuilderTest, HistogramEstimatesLessEq) {
  TableSchema schema("t", {{"x", DataType::kInt64}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t i = 1; i <= 1000; ++i) table->column(0).AppendInt(i);
  ASSERT_TRUE(table->Finalize().ok());
  auto stats = ComputeTableStats(*table);
  // Uniform 1..1000: P(x <= 250) ~ 0.25.
  EXPECT_NEAR(stats[0].histogram.EstimateLessEq(250), 0.25, 0.05);
  EXPECT_NEAR(stats[0].histogram.EstimateLessEq(900), 0.90, 0.05);
  EXPECT_DOUBLE_EQ(stats[0].histogram.EstimateLessEq(1000), 1.0);
  EXPECT_DOUBLE_EQ(stats[0].histogram.EstimateLessEq(2000), 1.0);
}

TEST(StatsBuilderTest, EmptyHistogramSafe) {
  EquiDepthHistogram h;
  EXPECT_DOUBLE_EQ(h.EstimateLessEq(5.0), 0.0);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto table = MakeSmallTable();
  auto stats = ComputeTableStats(*table);
  ASSERT_TRUE(catalog.AddTable(table, stats).ok());
  EXPECT_NE(catalog.FindTable("t"), nullptr);
  EXPECT_EQ(catalog.FindTable("nope"), nullptr);
  EXPECT_EQ(catalog.RowCount("t"), 10);
  EXPECT_EQ(catalog.RowCount("nope"), 0);
  const ColumnStats* cs = catalog.FindColumnStats("t", "k");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->distinct_count, 5);
  EXPECT_EQ(catalog.FindColumnStats("t", "zz"), nullptr);
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog;
  auto table = MakeSmallTable();
  auto stats = ComputeTableStats(*table);
  ASSERT_TRUE(catalog.AddTable(table, stats).ok());
  EXPECT_FALSE(catalog.AddTable(table, stats).ok());
}

TEST(CatalogTest, StatsArityChecked) {
  Catalog catalog;
  auto table = MakeSmallTable();
  EXPECT_FALSE(catalog.AddTable(table, {}).ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  auto t1 = MakeSmallTable();
  ASSERT_TRUE(catalog.AddTable(t1, ComputeTableStats(*t1)).ok());
  auto names = catalog.TableNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "t");
}

TEST(ZoneMapTest, BlocksCoverIntColumn) {
  TableSchema schema("t", {{"x", DataType::kInt64}});
  Table table(schema);
  // Two full blocks plus a 10-row tail; values ascend so block summaries
  // are disjoint ranges.
  const int64_t n = 2 * kZoneBlockRows + 10;
  for (int64_t i = 0; i < n; ++i) table.column(0).AppendInt(i);
  ASSERT_TRUE(table.Finalize().ok());
  const ZoneMap& z = table.column(0).zones();
  ASSERT_EQ(z.num_blocks(), 3);
  EXPECT_DOUBLE_EQ(z.min[0], 0.0);
  EXPECT_DOUBLE_EQ(z.max[0], static_cast<double>(kZoneBlockRows - 1));
  EXPECT_DOUBLE_EQ(z.min[2], static_cast<double>(2 * kZoneBlockRows));
  EXPECT_DOUBLE_EQ(z.max[2], static_cast<double>(n - 1));
}

TEST(ZoneMapTest, NanRowsTrackedNotSummarized) {
  TableSchema schema("t", {{"x", DataType::kDouble}});
  Table table(schema);
  table.column(0).AppendDouble(1.0);
  table.column(0).AppendDouble(std::nan(""));
  table.column(0).AppendDouble(3.0);
  ASSERT_TRUE(table.Finalize().ok());
  const ZoneMap& z = table.column(0).zones();
  ASSERT_EQ(z.num_blocks(), 1);
  EXPECT_DOUBLE_EQ(z.min[0], 1.0);
  EXPECT_DOUBLE_EQ(z.max[0], 3.0);
  EXPECT_EQ(z.has_nan[0], 1);
}

TEST(ZoneMapTest, AllNanBlockIsUnsatisfiable) {
  TableSchema schema("t", {{"x", DataType::kDouble}});
  Table table(schema);
  table.column(0).AppendDouble(std::nan(""));
  table.column(0).AppendDouble(std::nan(""));
  ASSERT_TRUE(table.Finalize().ok());
  const ColumnData& col = table.column(0);
  EXPECT_GT(col.zones().min[0], col.zones().max[0]);
  EXPECT_EQ(kernels::ClassifyZones(col, CompareOp::kLt, 1e30, 0, 2),
            kernels::ZoneMatch::kNone);
}

TEST(ClassifyZonesTest, ProvesNoneAllSome) {
  using kernels::ClassifyZones;
  using kernels::ZoneMatch;
  TableSchema schema("t", {{"x", DataType::kInt64}});
  Table table(schema);
  const int64_t n = 2 * kZoneBlockRows;
  for (int64_t i = 0; i < n; ++i) table.column(0).AppendInt(i);
  ASSERT_TRUE(table.Finalize().ok());
  const ColumnData& col = table.column(0);
  // Block 0 holds [0, 4095], block 1 holds [4096, 8191].
  EXPECT_EQ(ClassifyZones(col, CompareOp::kLt, 100.0, kZoneBlockRows, n),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZones(col, CompareOp::kLt, 1e9, 0, n), ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZones(col, CompareOp::kLt, 100.0, 0, kZoneBlockRows),
            ZoneMatch::kSome);
  // A range spanning a kNone block and a kAll block is kSome.
  EXPECT_EQ(ClassifyZones(col, CompareOp::kGe,
                          static_cast<double>(kZoneBlockRows), 0, n),
            ZoneMatch::kSome);
  // Boundary inclusivity per operator.
  EXPECT_EQ(ClassifyZones(col, CompareOp::kLe, -1.0, 0, kZoneBlockRows),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZones(col, CompareOp::kLe,
                          static_cast<double>(kZoneBlockRows - 1), 0,
                          kZoneBlockRows),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZones(col, CompareOp::kEq, 0.5, 0, kZoneBlockRows),
            ZoneMatch::kSome);  // inside [min,max] but between values
  EXPECT_EQ(ClassifyZones(col, CompareOp::kEq, -3.0, 0, kZoneBlockRows),
            ZoneMatch::kNone);
  // NaN literal satisfies nothing.
  EXPECT_EQ(ClassifyZones(col, CompareOp::kEq, std::nan(""), 0, n),
            ZoneMatch::kNone);
  // Rows past the zone map (unfinalized view) stay kSome.
  Table raw(schema);
  raw.column(0).AppendInt(7);
  EXPECT_EQ(ClassifyZones(raw.column(0), CompareOp::kEq, 7.0, 0, 1),
            ZoneMatch::kSome);
}

TEST(FilterKernelTest, DenseAndSparseAgree) {
  TableSchema schema("t", {{"x", DataType::kInt64}});
  Table table(schema);
  for (int64_t i = 0; i < 5000; ++i) table.column(0).AppendInt(i % 97);
  ASSERT_TRUE(table.Finalize().ok());
  const ColumnData& col = table.column(0);
  kernels::FilterScratch fsc;
  std::vector<int64_t> dense, sparse;
  const int64_t nd = kernels::FilterRange(col, CompareOp::kLt, 40.0, 100,
                                          4900, 0.9, &dense, &fsc);
  const int64_t ns = kernels::FilterRange(col, CompareOp::kLt, 40.0, 100,
                                          4900, 0.01, &sparse, &fsc);
  EXPECT_EQ(nd, ns);
  EXPECT_EQ(dense, sparse);
  ASSERT_GT(nd, 0);
  for (int64_t r : dense) EXPECT_LT(col.GetInt(r), 40);
}

TEST(FilterKernelTest, RefineCompactsInPlace) {
  TableSchema schema("t", {{"x", DataType::kDouble}});
  Table table(schema);
  const double inf = std::numeric_limits<double>::infinity();
  const double vals[] = {1.0, std::nan(""), -inf, 5.0, inf, 2.0};
  for (double v : vals) table.column(0).AppendDouble(v);
  ASSERT_TRUE(table.Finalize().ok());
  std::vector<int64_t> sel = {0, 1, 2, 3, 4, 5};
  // NaN fails every comparison; -inf passes, +inf fails.
  EXPECT_EQ(kernels::FilterRefine(table.column(0), CompareOp::kLe, 5.0, &sel),
            4);
  EXPECT_EQ(sel, (std::vector<int64_t>{0, 2, 3, 5}));
}

TEST(FlatJoinTableTest, FindAndFindBatchAgree) {
  kernels::FlatJoinTable ht;
  ht.Init(1, 1);
  for (int i = 0; i < 500; ++i) {
    const double k = static_cast<double>(i * 3);
    const double p = static_cast<double>(i);
    ht.Insert(&k, &p);
    ht.Insert(&k, &p);  // two entries per key: chains of length 2
  }
  EXPECT_EQ(ht.num_keys(), 500);
  std::vector<double> probes;
  for (int i = -5; i < 1505; ++i) probes.push_back(static_cast<double>(i));
  probes.push_back(std::nan(""));
  probes.push_back(-0.0);  // must hash/compare equal to key 0.0
  std::vector<int64_t> batch(probes.size());
  std::vector<uint64_t> hashes;
  ht.FindBatch(probes.data(), static_cast<int64_t>(probes.size()),
               batch.data(), &hashes);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(batch[i], ht.Find(&probes[i])) << "probe " << probes[i];
  }
  const double miss = std::nan("");
  EXPECT_EQ(ht.Find(&miss), -1);
  const double neg_zero = -0.0;
  const int64_t u = ht.Find(&neg_zero);
  ASSERT_GE(u, 0);
  EXPECT_EQ(ht.ChainLen(u), 2);
}

TEST(HashIndexTest, FlatLookupSpansAscending) {
  TableSchema schema("t", {{"k", DataType::kInt64}});
  auto table = std::make_shared<Table>(schema);
  // Keys 0..9 repeated 100 times: each key owns 100 ascending row ids.
  for (int64_t r = 0; r < 1000; ++r) table->column(0).AppendInt(r % 10);
  ASSERT_TRUE(table->Finalize().ok());
  HashIndex idx(*table, 0);
  EXPECT_EQ(idx.distinct_keys(), 10);
  const RowIdSpan rows = idx.Lookup(7);
  ASSERT_EQ(rows.size(), 100);
  for (int64_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], 7 + i * 10);
  }
  EXPECT_TRUE(idx.Lookup(10).empty());
  EXPECT_TRUE(idx.Lookup(-1).empty());
}

TEST(HashIndexTest, NegativeAndSparseKeys) {
  TableSchema schema("t", {{"k", DataType::kInt64}});
  auto table = std::make_shared<Table>(schema);
  const int64_t keys[] = {-1000000007, 0, 42, -1, 1ll << 40, 42};
  for (int64_t k : keys) table->column(0).AppendInt(k);
  ASSERT_TRUE(table->Finalize().ok());
  HashIndex idx(*table, 0);
  EXPECT_EQ(idx.distinct_keys(), 5);
  EXPECT_EQ(idx.Lookup(42).size(), 2);
  EXPECT_EQ(idx.Lookup(42)[0], 2);
  EXPECT_EQ(idx.Lookup(42)[1], 5);
  EXPECT_EQ(idx.Lookup(-1000000007).size(), 1);
  EXPECT_EQ(idx.Lookup(1ll << 40)[0], 4);
  EXPECT_TRUE(idx.Lookup(43).empty());
}

/// Builds an index over `keys` and checks every Lookup against a
/// brute-force scan of the keys: each key present, the probes just
/// outside the key range, 0 and the int64 extremes. `dense` is the
/// layout the build must choose.
void ExpectLookupsMatchScan(const std::vector<int64_t>& keys, bool dense,
                            const std::string& what) {
  TableSchema schema("t", {{"k", DataType::kInt64}});
  auto table = std::make_shared<Table>(schema);
  for (int64_t k : keys) table->column(0).AppendInt(k);
  ASSERT_TRUE(table->Finalize().ok()) << what;
  const HashIndex idx(*table, 0);
  EXPECT_EQ(idx.dense(), dense) << what;
  const std::set<int64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(idx.distinct_keys(), static_cast<int64_t>(distinct.size()))
      << what;

  const auto wrap = [](int64_t k, int64_t d) {
    return static_cast<int64_t>(static_cast<uint64_t>(k) +
                                static_cast<uint64_t>(d));
  };
  std::vector<int64_t> probes(distinct.begin(), distinct.end());
  const int64_t lo = *distinct.begin();
  const int64_t hi = *distinct.rbegin();
  for (int64_t d = 1; d <= 2; ++d) {
    probes.push_back(wrap(lo, -d));
    probes.push_back(wrap(hi, d));
  }
  probes.insert(probes.end(), {0, std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max()});
  for (const int64_t p : probes) {
    std::vector<int64_t> want;
    for (size_t r = 0; r < keys.size(); ++r) {
      if (keys[r] == p) want.push_back(static_cast<int64_t>(r));
    }
    const RowIdSpan got = idx.Lookup(p);
    EXPECT_EQ(std::vector<int64_t>(got.begin(), got.end()), want)
        << what << " key " << p;
    if (dense) {
      EXPECT_EQ(idx.DenseRow(p), want.empty() ? -1 : want[0])
          << what << " key " << p;
    }
  }
}

TEST(HashIndexTest, LookupsMatchBruteForceScan) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t n = 1000;
  Rng rng(5);
  const auto shuffled = [&](std::vector<int64_t> v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(
                              rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    return v;
  };
  const auto series = [&](int64_t first, int64_t stride) {
    std::vector<int64_t> v;
    for (int64_t r = 0; r < n; ++r) v.push_back(first + r * stride);
    return v;
  };

  // Serial keys, in order and shuffled: dense.
  ExpectLookupsMatchScan(series(1, 1), true, "serial");
  ExpectLookupsMatchScan(shuffled(series(1, 1)), true, "serial shuffled");
  // Unique keys with holes, span 3 * (n - 1) < 4n: dense.
  ExpectLookupsMatchScan(shuffled(series(-17, 3)), true, "holes");
  // Span exactly 4n - 1 (dense), then 4n, one past the bound (hashed).
  std::vector<int64_t> edge = series(0, 4);
  edge.back() = 4 * n - 1;
  ExpectLookupsMatchScan(edge, true, "span 4n-1");
  edge.back() = 4 * n;
  ExpectLookupsMatchScan(edge, false, "span 4n");
  // Negative ranges, and ranges pinned at each int64 extreme.
  ExpectLookupsMatchScan(shuffled(series(-5000, 1)), true, "negative");
  ExpectLookupsMatchScan(series(kMin, 2), true, "at INT64_MIN");
  ExpectLookupsMatchScan(series(kMax - 2 * (n - 1), 2), true, "at INT64_MAX");
  ExpectLookupsMatchScan({kMin}, true, "single INT64_MIN");
  ExpectLookupsMatchScan({kMax}, true, "single INT64_MAX");
  // Duplicates: a dense range with one repeated key, and 18 rows per key.
  std::vector<int64_t> dup = series(1, 1);
  dup[700] = dup[300];
  ExpectLookupsMatchScan(dup, false, "one duplicate");
  std::vector<int64_t> groups;
  for (int64_t r = 0; r < n; ++r) groups.push_back(r / 18 + 1);
  ExpectLookupsMatchScan(groups, false, "18 rows per key");
  // Sparse unique keys, including both extremes: hashed.
  ExpectLookupsMatchScan({-1000000007, 0, 42, -1, 1ll << 40, kMin, kMax},
                         false, "sparse");
  std::vector<int64_t> random_keys;
  for (int64_t r = 0; r < n; ++r) {
    random_keys.push_back(rng.UniformInt(-(1ll << 50), 1ll << 50));
  }
  ExpectLookupsMatchScan(random_keys, false, "random 51-bit");
}

TEST(EventCountTest, SaturatesInsteadOfWrapping) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  EventCount c;
  c += max - 1;
  EXPECT_EQ(static_cast<int64_t>(c), max - 1);
  ++c;
  EXPECT_EQ(static_cast<int64_t>(c), max);
#ifdef NDEBUG
  // Release builds clamp; debug builds assert (covered by the sanitizer
  // jobs compiling with assertions on, where this would abort).
  c += 1000;
  EXPECT_EQ(static_cast<int64_t>(c), max);
#endif
}

}  // namespace
}  // namespace robustqp
