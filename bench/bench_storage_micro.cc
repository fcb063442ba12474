// Storage-layer microbenchmarks for the compressed columnar encodings
// (storage/encoding.h): encode/decode throughput per layout, fused
// filter-on-compressed vs decode-then-filter vs raw at 1/50/99%
// selectivity, and the TPC-DS catalog numbers the ROADMAP claims point
// at — per-column compression ratios and the whole-catalog footprint
// (encoded vs raw, generator scale), plus the low-cardinality filtered
// scan where fused filtering pays, row-id gathers over encoded columns
// (the index-NL fetch and sparse-survivor path), and hash-index lookups
// per index layout. Everything here is wall-clock / footprint only; the
// differential tests pin results and cost accounting to be bit-identical
// across layouts.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/kernels.h"
#include "storage/encoding.h"
#include "storage/hash_index.h"
#include "storage/table.h"
#include "workloads/tpcds.h"

namespace robustqp {
namespace {

constexpr int64_t kRows = 1 << 20;

/// Low-cardinality int data (domain 0..999): dictionary-codeable at width
/// 10 and FoR-packable at width 10 — the shape fused filtering targets.
const std::vector<int64_t>& LowCardData() {
  static const std::vector<int64_t>* data = [] {
    auto* v = new std::vector<int64_t>(static_cast<size_t>(kRows));
    Rng rng(7);
    for (auto& x : *v) x = rng.UniformInt(0, 999);
    return v;
  }();
  return *data;
}

std::unique_ptr<EncodedColumn> EncodeLowCard(Encoding enc) {
  auto col = std::make_unique<EncodedColumn>(DataType::kInt64, enc, 4096);
  for (int64_t v : LowCardData()) col->AppendInt(v);
  col->Finish();
  return col;
}

// ---------------------------------------------------------------------------
// Encode / decode throughput (GB/s of logical int64 payload)
// ---------------------------------------------------------------------------

void BM_EncodeInt64(benchmark::State& state, Encoding enc) {
  for (auto _ : state) {
    auto col = EncodeLowCard(enc);
    benchmark::DoNotOptimize(col->MemoryBytes());
  }
  state.SetBytesProcessed(state.iterations() * kRows *
                          static_cast<int64_t>(sizeof(int64_t)));
}
BENCHMARK_CAPTURE(BM_EncodeInt64, Packed, Encoding::kPacked)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncodeInt64, Vbyte, Encoding::kVbyte)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncodeInt64, Dict, Encoding::kDict)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncodeInt64, Auto, Encoding::kAuto)
    ->Unit(benchmark::kMillisecond);

void BM_DecodeInt64(benchmark::State& state, Encoding enc) {
  const auto col = EncodeLowCard(enc);
  std::vector<int64_t> buf(static_cast<size_t>(EncodedColumn::kBlockRows));
  for (auto _ : state) {
    int64_t sum = 0;
    for (int64_t b = 0; b < col->num_blocks(); ++b) {
      col->DecodeInto(b, buf.data());
      sum += buf[0];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * kRows *
                          static_cast<int64_t>(sizeof(int64_t)));
  state.counters["ratio"] =
      static_cast<double>(kRows * sizeof(int64_t)) /
      static_cast<double>(col->MemoryBytes());
}
BENCHMARK_CAPTURE(BM_DecodeInt64, Packed, Encoding::kPacked)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecodeInt64, Vbyte, Encoding::kVbyte)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DecodeInt64, Dict, Encoding::kDict)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Fused filter vs decode-then-filter vs raw, by selectivity
// ---------------------------------------------------------------------------

/// `mode` 0: raw column; 1: encoded, fused; 2: encoded, decode-then-filter.
void BM_FilterEncoded(benchmark::State& state, Encoding enc, int mode,
                      double value, double est) {
  TableSchema schema("filter_micro", {{"v", DataType::kInt64}});
  EncodingPolicy policy;
  policy.kind = mode == 0 ? Encoding::kRaw : enc;
  Table table(schema, policy);
  for (int64_t v : LowCardData()) table.column(0).AppendInt(v);
  RQP_CHECK(table.Finalize().ok());
  RQP_CHECK((mode != 0) == (table.column(0).enc().mode() != Encoding::kRaw));
  std::vector<int64_t> sel;
  kernels::FilterScratch scratch;
  int64_t pass = 0;
  for (auto _ : state) {
    pass = kernels::FilterRange(table.column(0), CompareOp::kLe, value, 0,
                                kRows, est, &sel, &scratch,
                                /*fused=*/mode != 2);
    benchmark::DoNotOptimize(pass);
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["sel"] =
      static_cast<double>(pass) / static_cast<double>(kRows);
}
// 1% selectivity: sparse path; fused comparison avoids all decoding.
BENCHMARK_CAPTURE(BM_FilterEncoded, Raw_Sel1pct, Encoding::kRaw, 0, 9.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, PackedFused_Sel1pct, Encoding::kPacked, 1,
                  9.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, PackedDecode_Sel1pct, Encoding::kPacked, 2,
                  9.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, DictFused_Sel1pct, Encoding::kDict, 1, 9.0,
                  0.01)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, DictDecode_Sel1pct, Encoding::kDict, 2,
                  9.0, 0.01)
    ->Unit(benchmark::kMicrosecond);
// 50% selectivity: dense byte-mask path.
BENCHMARK_CAPTURE(BM_FilterEncoded, Raw_Sel50pct, Encoding::kRaw, 0, 499.0,
                  0.5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, PackedFused_Sel50pct, Encoding::kPacked, 1,
                  499.0, 0.5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, PackedDecode_Sel50pct, Encoding::kPacked,
                  2, 499.0, 0.5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, DictFused_Sel50pct, Encoding::kDict, 1,
                  499.0, 0.5)
    ->Unit(benchmark::kMicrosecond);
// 99% selectivity: nearly everything passes.
BENCHMARK_CAPTURE(BM_FilterEncoded, Raw_Sel99pct, Encoding::kRaw, 0, 989.0,
                  0.99)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, PackedFused_Sel99pct, Encoding::kPacked, 1,
                  989.0, 0.99)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FilterEncoded, DictFused_Sel99pct, Encoding::kDict, 1,
                  989.0, 0.99)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Row-id gather over encoded columns
// ---------------------------------------------------------------------------

/// kernels::Gather of 64K row ids from a 1M-row encoded column of serial
/// keys with small jitter (vbyte-friendly, packs at 16 bits; a 1000-value
/// domain for the dictionary). `random` row ids are uniform (index-NL
/// fetches across keys); otherwise an ascending 1-in-16 sample (scan
/// survivors, one key's index rows).
void BM_GatherEncoded(benchmark::State& state, Encoding enc, bool random) {
  TableSchema schema("gather_micro", {{"v", DataType::kInt64}});
  EncodingPolicy policy;
  policy.kind = enc;
  Table table(schema, policy);
  Rng rng(11);
  for (int64_t r = 0; r < kRows; ++r) {
    table.column(0).AppendInt(enc == Encoding::kDict
                                  ? LowCardData()[static_cast<size_t>(r)]
                                  : r * 4 + rng.UniformInt(0, 3));
  }
  RQP_CHECK(table.Finalize().ok());
  RQP_CHECK(table.column(0).enc().mode() != Encoding::kRaw);
  constexpr int64_t kGathered = 1 << 16;
  std::vector<int64_t> rows(static_cast<size_t>(kGathered));
  for (int64_t i = 0; i < kGathered; ++i) {
    rows[static_cast<size_t>(i)] =
        random ? rng.UniformInt(0, kRows - 1) : i * (kRows / kGathered);
  }
  std::vector<double> out;
  for (auto _ : state) {
    kernels::Gather(table.column(0), rows.data(), kGathered, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kGathered);
}
BENCHMARK_CAPTURE(BM_GatherEncoded, Packed/Ascending, Encoding::kPacked, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherEncoded, Packed/Random, Encoding::kPacked, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherEncoded, Dict/Ascending, Encoding::kDict, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherEncoded, Dict/Random, Encoding::kDict, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherEncoded, Vbyte/Ascending, Encoding::kVbyte, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherEncoded, Vbyte/Random, Encoding::kVbyte, true)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Hash-index lookups
// ---------------------------------------------------------------------------

enum class IndexKeys { kDenseUnique, kSparseUnique, kDuplicate };

/// HashIndex::Lookup of 64K random keys present in a 10K-row index: serial
/// keys (row + 1, the dense layout), unique keys 1000 apart (hashed) and
/// ten rows per key (hashed, spans of 10). Items are probes.
void BM_IndexLookup(benchmark::State& state, IndexKeys kind) {
  constexpr int64_t kIndexRows = 10000;
  constexpr int64_t kProbes = 1 << 16;
  TableSchema schema("index_micro", {{"k", DataType::kInt64}});
  Table table(schema);
  for (int64_t r = 0; r < kIndexRows; ++r) {
    table.column(0).AppendInt(kind == IndexKeys::kDenseUnique  ? r + 1
                              : kind == IndexKeys::kSparseUnique ? r * 1000
                                                                 : r % 1000);
  }
  RQP_CHECK(table.Finalize().ok());
  const HashIndex index(table, 0);
  RQP_CHECK(index.dense() == (kind == IndexKeys::kDenseUnique));
  Rng rng(13);
  std::vector<int64_t> keys(static_cast<size_t>(kProbes));
  for (int64_t& k : keys) {
    k = static_cast<int64_t>(
        table.column(0).GetNumeric(rng.UniformInt(0, kIndexRows - 1)));
  }
  for (auto _ : state) {
    int64_t sum = 0;
    for (const int64_t k : keys) {
      const RowIdSpan span = index.Lookup(k);
      sum += span.size() + span[0];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kProbes);
}
BENCHMARK_CAPTURE(BM_IndexLookup, DenseUnique, IndexKeys::kDenseUnique)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IndexLookup, SparseUnique, IndexKeys::kSparseUnique)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_IndexLookup, Duplicate, IndexKeys::kDuplicate)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// TPC-DS catalog: compression ratios and the low-card filtered scan
// ---------------------------------------------------------------------------

const Catalog& TpcdsEncoded() {
  static const std::unique_ptr<Catalog> c = BuildTpcdsCatalog(42, 1.0);
  return *c;
}
const Catalog& TpcdsRaw() {
  static const std::unique_ptr<Catalog> c =
      BuildTpcdsCatalog(42, 1.0, EncodingPolicy::Raw());
  return *c;
}

/// Footprint comparison at generator scale. Times only the (cheap)
/// summation; the payload is the counters — `ratio` is the whole-catalog
/// raw/encoded byte ratio the ROADMAP's >=3x memory claim points at, and
/// the per-fact-table ratios show where it comes from.
void BM_TpcdsFootprint(benchmark::State& state) {
  const Catalog& enc = TpcdsEncoded();
  const Catalog& raw = TpcdsRaw();
  size_t enc_bytes = 0;
  size_t raw_bytes = 0;
  for (auto _ : state) {
    enc_bytes = 0;
    raw_bytes = 0;
    for (const std::string& name : enc.TableNames()) {
      enc_bytes += enc.FindTable(name)->table->MemoryBytes();
      raw_bytes += raw.FindTable(name)->table->MemoryBytes();
    }
    benchmark::DoNotOptimize(enc_bytes);
  }
  state.counters["raw_mb"] = static_cast<double>(raw_bytes) / (1 << 20);
  state.counters["enc_mb"] = static_cast<double>(enc_bytes) / (1 << 20);
  state.counters["ratio"] =
      static_cast<double>(raw_bytes) / static_cast<double>(enc_bytes);
  state.counters["ss_ratio"] =
      static_cast<double>(TpcdsRaw().FindTable("store_sales")->table->MemoryBytes()) /
      static_cast<double>(
          TpcdsEncoded().FindTable("store_sales")->table->MemoryBytes());
}
BENCHMARK(BM_TpcdsFootprint)->Unit(benchmark::kMicrosecond);

/// The ROADMAP's >=2x effective-scan-throughput claim: a low-cardinality
/// filtered scan of store_sales.ss_quantity (domain 1..100, dictionary /
/// 7-bit packed) through the kernel layer, raw vs encoded-fused.
void BM_TpcdsLowCardScan(benchmark::State& state, bool encoded) {
  const Catalog& catalog = encoded ? TpcdsEncoded() : TpcdsRaw();
  const Table& table = *catalog.FindTable("store_sales")->table;
  const int col = table.schema().FindColumn("ss_quantity");
  RQP_CHECK(col >= 0);
  RQP_CHECK((table.column(col).enc().mode() != Encoding::kRaw) == encoded);
  const int64_t rows = table.num_rows();
  std::vector<int64_t> sel;
  kernels::FilterScratch scratch;
  for (auto _ : state) {
    const int64_t pass =
        kernels::FilterRange(table.column(col), CompareOp::kLe, 5.0, 0, rows,
                             0.05, &sel, &scratch);
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK_CAPTURE(BM_TpcdsLowCardScan, Raw, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TpcdsLowCardScan, EncodedFused, true)
    ->Unit(benchmark::kMicrosecond);

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
