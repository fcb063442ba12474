// Round-trip and differential tests for the compressed columnar storage
// layer (storage/encoding.h): bit-packing / vbyte / dictionary primitives,
// EncodedColumn streaming round trips over adversarial value ranges
// (INT64_MIN/MAX, NaN payloads, ±inf, -0.0), dictionary abandonment,
// policy parsing and cache keys, the fused predicate mapping
// (MapPredicateToCodes) against a naive reference, fused-vs-decoded
// FilterRange equivalence, and the
// batched row-id gather (EncodedColumn::GatherNumeric, kernels::Gather)
// against per-row GetNumeric on resident and mapped columns, the kAuto
// integer layout (lane-width packed, never vbyte), and bounded vbyte reads
// of corrupt mapped payloads.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"
#include "exec/kernels.h"
#include "storage/column_file.h"
#include "storage/encoding.h"
#include "storage/stats_builder.h"
#include "storage/table.h"
#include "workloads/job.h"
#include "workloads/tpcds.h"

namespace robustqp {
namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(BitpackTest, WidthFor) {
  EXPECT_EQ(bitpack::WidthFor(0), 0);
  EXPECT_EQ(bitpack::WidthFor(1), 1);
  EXPECT_EQ(bitpack::WidthFor(2), 2);
  EXPECT_EQ(bitpack::WidthFor(3), 2);
  EXPECT_EQ(bitpack::WidthFor(4), 3);
  EXPECT_EQ(bitpack::WidthFor((uint64_t{1} << 32) - 1), 32);
  EXPECT_EQ(bitpack::WidthFor(uint64_t{1} << 32), 33);
  EXPECT_EQ(bitpack::WidthFor(~uint64_t{0}), 64);
}

TEST(BitpackTest, PackExtractUnpackAllWidths) {
  Rng rng(11);
  for (int width = 0; width <= 64; ++width) {
    const uint64_t mask =
        width == 64 ? ~uint64_t{0}
                    : ((uint64_t{1} << width) - 1);
    for (int64_t n : {int64_t{1}, int64_t{63}, int64_t{64}, int64_t{65},
                      int64_t{300}}) {
      std::vector<uint64_t> codes(static_cast<size_t>(n));
      for (auto& c : codes) {
        c = static_cast<uint64_t>(rng.engine()()) & mask;
      }
      std::vector<uint64_t> words;
      bitpack::Pack(codes.data(), n, width, &words);
      const size_t want_words = static_cast<size_t>(
          (n * width + 63) / 64);
      EXPECT_EQ(words.size(), want_words);
      // Extract must agree element-wise; Unpack must agree over every
      // (start, len) slice boundary case we care about.
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(bitpack::Extract(words.data(), i, width), codes[static_cast<size_t>(i)])
            << "width=" << width << " i=" << i;
      }
      std::vector<uint64_t> out(static_cast<size_t>(n));
      bitpack::Unpack(words.data(), 0, n, width, out.data());
      EXPECT_EQ(out, codes) << "width=" << width << " n=" << n;
      if (n > 2) {
        std::vector<uint64_t> mid(static_cast<size_t>(n - 2));
        bitpack::Unpack(words.data(), 1, n - 2, width, mid.data());
        for (int64_t i = 0; i < n - 2; ++i) {
          ASSERT_EQ(mid[static_cast<size_t>(i)],
                    codes[static_cast<size_t>(i + 1)]);
        }
      }
    }
  }
}

TEST(VbyteTest, RoundTripBoundaries) {
  const std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                        ~uint64_t{0} >> 1, ~uint64_t{0}};
  const std::vector<size_t> sizes = {1, 1, 1, 2, 2, 3, 9, 10};
  std::vector<uint8_t> bytes;
  for (size_t k = 0; k < values.size(); ++k) {
    const size_t before = bytes.size();
    vbyte::Encode(values[k], &bytes);
    EXPECT_EQ(bytes.size() - before, sizes[k]);
  }
  const uint8_t* p = bytes.data();
  const uint8_t* end = bytes.data() + bytes.size();
  for (uint64_t v : values) {
    uint64_t got;
    p = vbyte::Decode(p, end, &got);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
}

TEST(VbyteTest, DecodeStopsAtRunEndAndAfterTenBytes) {
  // Continuation bits all the way: one varint takes exactly kMaxBytes.
  const std::vector<uint8_t> ff(32, 0xFF);
  uint64_t v = 0;
  const uint8_t* p = vbyte::Decode(ff.data(), ff.data() + ff.size(), &v);
  EXPECT_EQ(p, ff.data() + vbyte::kMaxBytes);
  EXPECT_EQ(v, ~uint64_t{0});
  // A run cut inside a varint stops at its end, and the end reads nothing.
  p = vbyte::Decode(ff.data(), ff.data() + 3, &v);
  EXPECT_EQ(p, ff.data() + 3);
  EXPECT_EQ(v, (uint64_t{1} << 21) - 1);
  EXPECT_EQ(vbyte::Decode(p, p, &v), p);
  EXPECT_EQ(v, 0u);
}

TEST(EncodingPolicyTest, ParseAndNames) {
  Encoding e = Encoding::kRaw;
  EXPECT_TRUE(ParseEncoding("auto", &e));
  EXPECT_EQ(e, Encoding::kAuto);
  EXPECT_TRUE(ParseEncoding("on", &e) && e == Encoding::kAuto);
  EXPECT_TRUE(ParseEncoding("1", &e) && e == Encoding::kAuto);
  EXPECT_TRUE(ParseEncoding("raw", &e) && e == Encoding::kRaw);
  EXPECT_TRUE(ParseEncoding("off", &e) && e == Encoding::kRaw);
  EXPECT_TRUE(ParseEncoding("0", &e) && e == Encoding::kRaw);
  EXPECT_TRUE(ParseEncoding("none", &e) && e == Encoding::kRaw);
  EXPECT_TRUE(ParseEncoding("packed", &e) && e == Encoding::kPacked);
  EXPECT_TRUE(ParseEncoding("vbyte", &e) && e == Encoding::kVbyte);
  EXPECT_TRUE(ParseEncoding("dict", &e) && e == Encoding::kDict);
  EXPECT_TRUE(ParseEncoding("dictionary", &e) && e == Encoding::kDict);
  e = Encoding::kVbyte;
  EXPECT_FALSE(ParseEncoding("zstd", &e));
  EXPECT_EQ(e, Encoding::kVbyte);  // untouched on failure
  for (Encoding k : {Encoding::kAuto, Encoding::kRaw, Encoding::kPacked,
                     Encoding::kVbyte, Encoding::kDict}) {
    Encoding back = Encoding::kAuto;
    EXPECT_TRUE(ParseEncoding(EncodingName(k), &back));
    EXPECT_EQ(back, k);
  }
}

TEST(EncodingPolicyTest, CacheKeyIsDeterministicAndDistinguishing) {
  EncodingPolicy d = EncodingPolicy::Auto();
  d.per_column["x"] = Encoding::kVbyte;
  EXPECT_EQ(d.For("x"), Encoding::kVbyte);
  EXPECT_EQ(d.For("y"), Encoding::kAuto);
}

// ---------------------------------------------------------------------------
// EncodedColumn round trips
// ---------------------------------------------------------------------------

std::vector<int64_t> RandomInts(Rng* rng, int64_t n) {
  // Mix of regimes: narrow range, wide range, serial, full-domain chaos.
  std::vector<int64_t> out(static_cast<size_t>(n));
  const int regime = static_cast<int>(rng->UniformInt(0, 4));
  for (int64_t i = 0; i < n; ++i) {
    int64_t v = 0;
    switch (regime) {
      case 0:
        v = rng->UniformInt(-5, 5);
        break;
      case 1:
        v = rng->UniformInt(-1000000, 1000000);
        break;
      case 2:
        v = i * 1000 + rng->UniformInt(0, 9);  // mostly-sorted deltas
        break;
      case 3:
        v = static_cast<int64_t>(rng->engine()());  // full domain
        break;
      default:
        v = 42;  // constant
        break;
    }
    out[static_cast<size_t>(i)] = v;
  }
  // Salt extremes in so every regime occasionally sees the domain edges.
  if (n > 4) {
    out[static_cast<size_t>(rng->UniformInt(0, n - 1))] = kI64Min;
    out[static_cast<size_t>(rng->UniformInt(0, n - 1))] = kI64Max;
  }
  return out;
}

void CheckIntRoundTrip(const std::vector<int64_t>& ref, Encoding enc,
                       int64_t dict_cap) {
  EncodedColumn col(DataType::kInt64, enc, dict_cap);
  for (int64_t v : ref) col.AppendInt(v);
  col.Finish();
  const int64_t n = static_cast<int64_t>(ref.size());
  ASSERT_EQ(col.size(), n);

  // Point access.
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(col.GetInt(i), ref[static_cast<size_t>(i)])
        << EncodingName(enc) << " row " << i;
  }

  // Block decode covers every row exactly once.
  int64_t covered = 0;
  std::vector<int64_t> buf(static_cast<size_t>(EncodedColumn::kBlockRows));
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    const int64_t rows = col.block_rows(b);
    ASSERT_GT(rows, 0);
    ASSERT_LE(rows, EncodedColumn::kBlockRows);
    col.DecodeInto(b, buf.data());
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_EQ(buf[static_cast<size_t>(i)],
                ref[static_cast<size_t>(covered + i)]);
    }
    covered += rows;
  }
  EXPECT_EQ(covered, n);

  // Range decode across block boundaries (int and double flavors).
  if (n > 0) {
    Rng rng(static_cast<uint64_t>(n) * 31 + static_cast<uint64_t>(enc));
    for (int trial = 0; trial < 8; ++trial) {
      const int64_t r0 = rng.UniformInt(0, n - 1);
      const int64_t r1 = rng.UniformInt(r0, n);
      std::vector<int64_t> ri(static_cast<size_t>(r1 - r0));
      std::vector<double> rd(static_cast<size_t>(r1 - r0));
      col.DecodeRange(r0, r1, ri.data());
      col.DecodeRange(r0, r1, rd.data());
      for (int64_t i = 0; i < r1 - r0; ++i) {
        ASSERT_EQ(ri[static_cast<size_t>(i)],
                  ref[static_cast<size_t>(r0 + i)]);
        ASSERT_EQ(rd[static_cast<size_t>(i)],
                  static_cast<double>(ref[static_cast<size_t>(r0 + i)]));
      }
    }
  }
}

TEST(EncodedColumnTest, IntRoundTripFuzz) {
  const std::vector<int64_t> sizes = {0,    1,    2,    4095, 4096,
                                      4097, 8192, 12288, 5000};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (int64_t n : sizes) {
      const std::vector<int64_t> ref = RandomInts(&rng, n);
      for (Encoding enc : {Encoding::kAuto, Encoding::kPacked,
                           Encoding::kVbyte, Encoding::kDict}) {
        CheckIntRoundTrip(ref, enc, /*dict_cap=*/4096);
      }
      // Tiny dictionary cap forces mid-stream abandonment.
      CheckIntRoundTrip(ref, Encoding::kAuto, /*dict_cap=*/7);
    }
  }
}

TEST(EncodedColumnTest, FullDomainBlockPacksAtWidth64) {
  // A block spanning INT64_MIN..INT64_MAX must survive the wraparound
  // range computation and pack at width 64.
  EncodedColumn col(DataType::kInt64, Encoding::kPacked, 4096);
  col.AppendInt(kI64Min);
  col.AppendInt(kI64Max);
  col.AppendInt(0);
  col.AppendInt(-1);
  col.Finish();
  ASSERT_EQ(col.num_blocks(), 1);
  const auto view = col.packed_view(0);
  EXPECT_EQ(view.width, 64);
  EXPECT_EQ(view.ref, kI64Min);
  EXPECT_EQ(view.range, ~uint64_t{0});
  EXPECT_EQ(col.GetInt(0), kI64Min);
  EXPECT_EQ(col.GetInt(1), kI64Max);
  EXPECT_EQ(col.GetInt(3), -1);
}

TEST(EncodedColumnTest, ConstantColumnPacksAtWidthZero) {
  EncodedColumn col(DataType::kInt64, Encoding::kPacked, 4096);
  for (int64_t i = 0; i < 2 * EncodedColumn::kBlockRows + 5; ++i) {
    col.AppendInt(-77);
  }
  col.Finish();
  EXPECT_EQ(col.num_blocks(), 3);
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    EXPECT_EQ(col.packed_view(b).width, 0);
  }
  EXPECT_EQ(col.GetInt(2 * EncodedColumn::kBlockRows + 4), -77);
  // width-0 blocks store no payload words at all.
  EXPECT_LT(col.MemoryBytes(),
            static_cast<size_t>(col.size()) * sizeof(int64_t) / 100);
}

TEST(EncodedColumnTest, DoubleDictRoundTripIsBitExact) {
  // NaN payloads, -0.0 and infinities must round-trip bit-for-bit.
  std::vector<double> special = {0.0,
                                 -0.0,
                                 1.5,
                                 -1.5,
                                 kInf,
                                 -kInf,
                                 kNaN,
                                 std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::max()};
  // A NaN with a distinctive payload.
  uint64_t weird_bits = 0x7ff80000deadbeefULL;
  double weird_nan;
  std::memcpy(&weird_nan, &weird_bits, sizeof(weird_nan));
  special.push_back(weird_nan);

  Rng rng(5);
  std::vector<double> ref;
  for (int64_t i = 0; i < 9000; ++i) {
    ref.push_back(special[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(special.size()) - 1))]);
  }
  EncodedColumn col(DataType::kDouble, Encoding::kDict, 4096);
  for (double v : ref) col.AppendDouble(v);
  col.Finish();
  ASSERT_EQ(col.mode(), Encoding::kDict);
  EXPECT_LE(col.dict_size(), static_cast<int64_t>(special.size()));
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(Bits(col.GetDouble(static_cast<int64_t>(i))), Bits(ref[i]))
        << "row " << i;
  }
  std::vector<double> buf(static_cast<size_t>(EncodedColumn::kBlockRows));
  int64_t covered = 0;
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    col.DecodeInto(b, buf.data());
    for (int64_t i = 0; i < col.block_rows(b); ++i) {
      ASSERT_EQ(Bits(buf[static_cast<size_t>(i)]),
                Bits(ref[static_cast<size_t>(covered + i)]));
    }
    covered += col.block_rows(b);
  }
  EXPECT_EQ(covered, static_cast<int64_t>(ref.size()));
}

TEST(EncodedColumnTest, DoubleDictOverflowFallsBackToRaw) {
  EncodedColumn col(DataType::kDouble, Encoding::kAuto, 64);
  std::vector<double> ref;
  Rng rng(9);
  for (int64_t i = 0; i < 5000; ++i) {
    ref.push_back(rng.UniformDouble(-1e9, 1e9));  // ~all distinct
    col.AppendDouble(ref.back());
  }
  col.Finish();
  EXPECT_EQ(col.mode(), Encoding::kRaw);
  ASSERT_EQ(col.size(), static_cast<int64_t>(ref.size()));
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    ASSERT_EQ(col.block_kind(b), Encoding::kRaw) << "block " << b;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(Bits(col.GetDouble(static_cast<int64_t>(i))), Bits(ref[i]));
  }
}

TEST(EncodedColumnTest, DictAbandonmentPreservesIntValues) {
  // Feed >cap distinct ints so kAuto abandons the dictionary mid-stream
  // and re-encodes flushed blocks; every value must survive.
  EncodedColumn col(DataType::kInt64, Encoding::kAuto, 128);
  std::vector<int64_t> ref;
  Rng rng(13);
  for (int64_t i = 0; i < 3 * EncodedColumn::kBlockRows; ++i) {
    // Low-cardinality prefix, then explosion.
    const int64_t v = i < EncodedColumn::kBlockRows
                          ? rng.UniformInt(0, 100)
                          : rng.UniformInt(0, 1 << 30);
    ref.push_back(v);
    col.AppendInt(v);
  }
  col.Finish();
  EXPECT_NE(col.mode(), Encoding::kDict);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(col.GetInt(static_cast<int64_t>(i)), ref[i]);
  }
}

TEST(EncodedColumnTest, DictionaryEntriesAllOccur) {
  EncodedColumn col(DataType::kInt64, Encoding::kDict, 4096);
  std::vector<int64_t> ref;
  Rng rng(21);
  for (int64_t i = 0; i < 6000; ++i) {
    ref.push_back(rng.UniformInt(-40, 40) * 1000);
    col.AppendInt(ref.back());
  }
  col.Finish();
  ASSERT_EQ(col.mode(), Encoding::kDict);
  // First-appearance interning: entry order matches first occurrence, and
  // every entry is reachable from the data.
  std::vector<int64_t> firsts;
  for (int64_t v : ref) {
    bool seen = false;
    for (int64_t f : firsts) seen = seen || f == v;
    if (!seen) firsts.push_back(v);
  }
  ASSERT_EQ(col.dict_size(), static_cast<int64_t>(firsts.size()));
  for (int64_t c = 0; c < col.dict_size(); ++c) {
    EXPECT_EQ(col.DictInt(c), firsts[static_cast<size_t>(c)]);
    EXPECT_EQ(col.DictNumeric(c),
              static_cast<double>(firsts[static_cast<size_t>(c)]));
  }
}

TEST(EncodedColumnTest, EmptyColumn) {
  for (Encoding enc : {Encoding::kAuto, Encoding::kPacked, Encoding::kVbyte,
                       Encoding::kDict}) {
    EncodedColumn col(DataType::kInt64, enc, 4096);
    col.Finish();
    EXPECT_EQ(col.size(), 0);
    EXPECT_EQ(col.num_blocks(), 0);
    EXPECT_GE(col.MemoryBytes(), size_t{0});
  }
}

TEST(EncodedColumnTest, CompressionActuallyCompresses) {
  // Low-cardinality and narrow-range data must beat raw storage by a wide
  // margin; this is the property the ISSUE's footprint criterion rests on.
  Rng rng(3);
  EncodedColumn dict(DataType::kInt64, Encoding::kDict, 4096);
  EncodedColumn packed(DataType::kInt64, Encoding::kPacked, 4096);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = rng.UniformInt(0, 50);
    dict.AppendInt(v);
    packed.AppendInt(v);
  }
  dict.Finish();
  packed.Finish();
  // Domain 0..50 needs 6 bits and stores at the 8-bit lane width
  // (bitpack::LaneWidthFor), so the packed layout lands at exactly 1/8th
  // of raw plus block headers; assert a 4x margin with room for them.
  const size_t raw_bytes = static_cast<size_t>(n) * sizeof(int64_t);
  EXPECT_LT(dict.MemoryBytes(), raw_bytes / 4);
  EXPECT_LT(packed.MemoryBytes(), raw_bytes / 4);
}

// ---------------------------------------------------------------------------
// Streaming-encoded table vs the uncompressed (kRaw block) layout
// ---------------------------------------------------------------------------

TEST(TableEncodingTest, StreamingMatchesRawBlocks) {
  TableSchema schema("t", {{"k", DataType::kInt64},
                           {"g", DataType::kInt64},
                           {"v", DataType::kDouble}});
  Table streamed(schema, EncodingPolicy::Auto());
  Table raw(schema);
  Rng rng(71);
  const int64_t n = 3 * kZoneBlockRows + 123;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = i;
    const int64_t g = rng.UniformInt(0, 30);
    const double v = rng.Bernoulli(0.01) ? kNaN : rng.UniformDouble(-10, 10);
    streamed.column(0).AppendInt(k);
    streamed.column(1).AppendInt(g);
    streamed.column(2).AppendDouble(v);
    raw.column(0).AppendInt(k);
    raw.column(1).AppendInt(g);
    raw.column(2).AppendDouble(v);
  }
  ASSERT_TRUE(streamed.Finalize().ok());
  ASSERT_TRUE(raw.Finalize().ok());
  ASSERT_EQ(streamed.num_rows(), raw.num_rows());
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnData& a = streamed.column(c);
    const ColumnData& b = raw.column(c);
    ASSERT_EQ(b.enc().mode(), Encoding::kRaw) << "col " << c;
    for (int64_t r = 0; r < n; ++r) {
      if (a.type() == DataType::kInt64) {
        ASSERT_EQ(a.GetInt(r), b.GetInt(r)) << "col " << c << " row " << r;
      } else {
        ASSERT_EQ(Bits(a.GetDouble(r)), Bits(b.GetDouble(r)))
            << "col " << c << " row " << r;
      }
    }
    // Zone maps built over either layout's blocks must agree too.
    ASSERT_EQ(a.zones().num_blocks(), b.zones().num_blocks());
    for (int64_t z = 0; z < a.zones().num_blocks(); ++z) {
      EXPECT_EQ(Bits(a.zones().min[static_cast<size_t>(z)]),
                Bits(b.zones().min[static_cast<size_t>(z)]));
      EXPECT_EQ(Bits(a.zones().max[static_cast<size_t>(z)]),
                Bits(b.zones().max[static_cast<size_t>(z)]));
    }
  }
  // And the encoded table must be far smaller than the raw equivalent.
  EXPECT_LT(streamed.MemoryBytes(), raw.MemoryBytes());
}

// ---------------------------------------------------------------------------
// Fused predicate mapping vs naive reference
// ---------------------------------------------------------------------------

bool NaiveSatisfies(double x, CompareOp op, double c) {
  switch (op) {
    case CompareOp::kLt:
      return x < c;
    case CompareOp::kLe:
      return x <= c;
    case CompareOp::kGt:
      return x > c;
    case CompareOp::kGe:
      return x >= c;
    case CompareOp::kEq:
      return x == c;
  }
  return false;
}

bool CodeSatisfies(uint64_t code, const kernels::CodePred& p) {
  using Kind = kernels::CodePred::Kind;
  switch (p.kind) {
    case Kind::kNone:
      return false;
    case Kind::kAll:
      return true;
    case Kind::kLt:
      return code < p.u;
    case Kind::kGe:
      return code >= p.u;
    case Kind::kEq:
      return code == p.u;
  }
  return false;
}

TEST(MapPredicateTest, MatchesNaiveOverCodeSpace) {
  // For every mapped predicate, iterating the block's code space must
  // reproduce the naive double comparison exactly.
  const std::vector<int64_t> refs = {-100, 0, 57, -3};
  const std::vector<uint64_t> ranges = {0, 1, 9, 255};
  const std::vector<double> constants = {
      -101.0, -100.0, -99.5, -50.0, 0.0,  -0.0, 0.5,  1.0,  56.9,
      57.0,   57.5,   58.0,  156.0, 157.0, 158.0, 300.0, kNaN, -kInf,
      kInf,   2.5,    -2.5};
  for (int64_t ref : refs) {
    for (uint64_t range : ranges) {
      for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq}) {
        for (double c : constants) {
          kernels::CodePred pred;
          if (!kernels::MapPredicateToCodes(op, c, ref, range, &pred)) {
            continue;  // declined: decode path; nothing to check
          }
          for (uint64_t code = 0; code <= range; ++code) {
            const double x = static_cast<double>(
                ref + static_cast<int64_t>(code));
            ASSERT_EQ(CodeSatisfies(code, pred), NaiveSatisfies(x, op, c))
                << "ref=" << ref << " range=" << range << " op="
                << static_cast<int>(op) << " c=" << c << " code=" << code;
          }
        }
      }
    }
  }
}

TEST(MapPredicateTest, DeclinesOutsideExactDomain) {
  kernels::CodePred pred;
  const double big = 9.3e18;  // beyond 2^53: double compare is lossy
  // Block values beyond ±2^53: decline.
  EXPECT_FALSE(kernels::MapPredicateToCodes(CompareOp::kLt, 10.0, kI64Min,
                                            ~uint64_t{0}, &pred));
  // Constant beyond ±2^53: decline.
  EXPECT_FALSE(
      kernels::MapPredicateToCodes(CompareOp::kLt, big, 0, 100, &pred));
  // Small block, small constant: accept.
  EXPECT_TRUE(
      kernels::MapPredicateToCodes(CompareOp::kLt, 10.0, 0, 100, &pred));
  // NaN constant: kNone.
  ASSERT_TRUE(
      kernels::MapPredicateToCodes(CompareOp::kGe, kNaN, 0, 100, &pred));
  EXPECT_EQ(pred.kind, kernels::CodePred::Kind::kNone);
  // Non-integral equality constant: kNone.
  ASSERT_TRUE(
      kernels::MapPredicateToCodes(CompareOp::kEq, 2.5, 0, 100, &pred));
  EXPECT_EQ(pred.kind, kernels::CodePred::Kind::kNone);
}

// ---------------------------------------------------------------------------
// FilterRange: fused vs decode-then-filter vs raw
// ---------------------------------------------------------------------------

TEST(FusedFilterTest, MatchesRawForEveryEncodingAndOp) {
  Rng rng(29);
  const int64_t n = 2 * kZoneBlockRows + 777;
  TableSchema schema("t", {{"a", DataType::kInt64}});
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < n; ++i) {
    vals.push_back(rng.Bernoulli(0.5) ? rng.UniformInt(-50, 50)
                                      : rng.UniformInt(-4, 4) * 1000000007);
  }
  Table raw(schema);
  for (int64_t v : vals) raw.column(0).AppendInt(v);
  ASSERT_TRUE(raw.Finalize().ok());

  for (Encoding enc : {Encoding::kAuto, Encoding::kPacked, Encoding::kVbyte,
                       Encoding::kDict}) {
    EncodingPolicy policy;
    policy.kind = enc;
    Table table(schema, policy);
    for (int64_t v : vals) table.column(0).AppendInt(v);
    ASSERT_TRUE(table.Finalize().ok());
    ASSERT_NE(table.column(0).enc().mode(), Encoding::kRaw);

    kernels::FilterScratch s_raw, s_fused, s_decode;
    std::vector<int64_t> sel_raw, sel_fused, sel_decode;
    const std::vector<double> consts = {-2e9, -40.5, -4.0, 0.0, 3.0,
                                        41.0, 2e9,  kNaN};
    for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                         CompareOp::kGe, CompareOp::kEq}) {
      for (double c : consts) {
        for (double est : {0.01, 0.5, 0.99}) {
          // Unaligned range straddling a block boundary.
          const int64_t r0 = kZoneBlockRows - 3;
          const int64_t r1 = kZoneBlockRows + 900;
          kernels::FilterRange(raw.column(0), op, c, r0, r1, est, &sel_raw,
                               &s_raw);
          kernels::FilterRange(table.column(0), op, c, r0, r1, est,
                               &sel_fused, &s_fused, /*fused=*/true);
          kernels::FilterRange(table.column(0), op, c, r0, r1, est,
                               &sel_decode, &s_decode, /*fused=*/false);
          ASSERT_EQ(sel_fused, sel_raw)
              << EncodingName(enc) << " op=" << static_cast<int>(op)
              << " c=" << c << " est=" << est;
          ASSERT_EQ(sel_decode, sel_raw)
              << EncodingName(enc) << " op=" << static_cast<int>(op)
              << " c=" << c << " est=" << est;
          // Full-column pass too.
          kernels::FilterRange(raw.column(0), op, c, 0, n, est, &sel_raw,
                               &s_raw);
          kernels::FilterRange(table.column(0), op, c, 0, n, est, &sel_fused,
                               &s_fused, /*fused=*/true);
          ASSERT_EQ(sel_fused, sel_raw);
        }
      }
    }
  }
}

TEST(FusedFilterTest, DoubleDictWithNaNMatchesRaw) {
  Rng rng(31);
  const int64_t n = kZoneBlockRows + 333;
  TableSchema schema("t", {{"d", DataType::kDouble}});
  std::vector<double> vals;
  const std::vector<double> pool = {-3.5, -0.0, 0.0, 1.25, 7.5, kNaN, kInf,
                                    -kInf};
  for (int64_t i = 0; i < n; ++i) {
    vals.push_back(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  EncodingPolicy policy;
  policy.kind = Encoding::kDict;
  Table raw(schema);
  Table dict(schema, policy);
  for (double v : vals) {
    raw.column(0).AppendDouble(v);
    dict.column(0).AppendDouble(v);
  }
  ASSERT_TRUE(raw.Finalize().ok());
  ASSERT_TRUE(dict.Finalize().ok());
  ASSERT_EQ(dict.column(0).enc().mode(), Encoding::kDict);

  kernels::FilterScratch s_raw, s_enc;
  std::vector<int64_t> sel_raw, sel_enc;
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq}) {
    for (double c : {-1.0, 0.0, -0.0, 1.25, kNaN, kInf}) {
      kernels::FilterRange(raw.column(0), op, c, 0, n, 0.5, &sel_raw, &s_raw);
      kernels::FilterRange(dict.column(0), op, c, 0, n, 0.5, &sel_enc,
                           &s_enc, /*fused=*/true);
      ASSERT_EQ(sel_enc, sel_raw)
          << "op=" << static_cast<int>(op) << " c=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched row-id gather vs per-row GetNumeric
// ---------------------------------------------------------------------------

/// Row-id lists over [0, n): ascending (all rows and a sparse subset),
/// descending, repeated (runs of one row and an ascending list with
/// duplicates), random across blocks, and empty.
std::vector<std::pair<std::string, std::vector<int64_t>>> GatherRowLists(
    int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<int64_t>>> lists;
  std::vector<int64_t> all, sparse, desc, runs, dups, random;
  for (int64_t r = 0; r < n; ++r) {
    all.push_back(r);
    if (rng.Bernoulli(0.1)) sparse.push_back(r);
    desc.push_back(n - 1 - r);
    if (rng.Bernoulli(0.05)) {
      dups.insert(dups.end(), static_cast<size_t>(rng.UniformInt(1, 3)), r);
    }
  }
  for (int i = 0; i < 2000 && n > 0; ++i) {
    runs.insert(runs.end(), static_cast<size_t>(rng.UniformInt(1, 4)),
                rng.UniformInt(0, n - 1));
    random.push_back(rng.UniformInt(0, n - 1));
  }
  lists.push_back({"ascending", all});
  lists.push_back({"ascending-sparse", sparse});
  lists.push_back({"descending", desc});
  lists.push_back({"repeated-runs", runs});
  lists.push_back({"ascending-duplicates", dups});
  lists.push_back({"random-cross-block", random});
  lists.push_back({"empty", {}});
  return lists;
}

double PointNumeric(const EncodedColumn& col, int64_t r) {
  return col.type() == DataType::kInt64 ? static_cast<double>(col.GetInt(r))
                                        : col.GetDouble(r);
}

void ExpectGatherMatchesPointReads(const EncodedColumn& col,
                                   const std::string& what) {
  for (const auto& [shape, rows] : GatherRowLists(col.size(), 17)) {
    const int64_t n = static_cast<int64_t>(rows.size());
    std::vector<double> got(rows.size() + 1, -12345.0);
    col.GatherNumeric(rows.data(), n, got.data());
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(Bits(got[static_cast<size_t>(j)]),
                Bits(PointNumeric(col, rows[static_cast<size_t>(j)])))
          << what << " " << shape << " position " << j << " row "
          << rows[static_cast<size_t>(j)];
    }
    EXPECT_EQ(got[rows.size()], -12345.0) << what << " " << shape;
  }
}

void ExpectGatherMatchesPointReads(const ColumnData& col,
                                   const std::string& what) {
  for (const auto& [shape, rows] : GatherRowLists(col.size(), 23)) {
    const int64_t n = static_cast<int64_t>(rows.size());
    std::vector<double> got;
    kernels::Gather(col, rows.data(), n, &got);
    ASSERT_EQ(static_cast<int64_t>(got.size()), n);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(Bits(got[static_cast<size_t>(j)]),
                Bits(col.GetNumeric(rows[static_cast<size_t>(j)])))
          << what << " " << shape << " position " << j;
    }
  }
}

TEST(GatherNumericTest, PackedMatchesPointReadsAtEveryLaneWidth) {
  // Block b holds values spanning exactly the range of lane width
  // widths[b], so every lane width gets a block of its own.
  const std::vector<int> widths = {0, 1, 2, 4, 8, 16, 32, 64};
  EncodedColumn col(DataType::kInt64, Encoding::kPacked, 4096);
  Rng rng(91);
  for (int w : widths) {
    const uint64_t top =
        w == 0 ? 0 : (w == 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1);
    const int64_t ref = w == 64 ? kI64Min : -1000;
    for (int64_t i = 0; i < EncodedColumn::kBlockRows; ++i) {
      uint64_t delta = top == 0 ? 0 : rng.engine()() & top;
      if (i == 0) delta = top;  // pin the block range
      col.AppendInt(static_cast<int64_t>(static_cast<uint64_t>(ref) + delta));
    }
  }
  col.Finish();
  ASSERT_EQ(col.num_blocks(), static_cast<int64_t>(widths.size()));
  for (size_t b = 0; b < widths.size(); ++b) {
    ASSERT_EQ(col.block_kind(static_cast<int64_t>(b)), Encoding::kPacked);
    ASSERT_EQ(col.packed_view(static_cast<int64_t>(b)).width, widths[b]);
  }
  ExpectGatherMatchesPointReads(col, "packed");
}

TEST(GatherNumericTest, EveryBlockKindMatchesPointReads) {
  Rng rng(7);
  const int64_t n = 3 * EncodedColumn::kBlockRows + 100;
  EncodedColumn raw_i(DataType::kInt64, Encoding::kRaw, 4096);
  EncodedColumn raw_d(DataType::kDouble, Encoding::kRaw, 4096);
  EncodedColumn vb(DataType::kInt64, Encoding::kVbyte, 4096);
  EncodedColumn dict_i(DataType::kInt64, Encoding::kDict, 4096);
  EncodedColumn dict_d(DataType::kDouble, Encoding::kAuto, 4096);
  EncodedColumn str(DataType::kString, Encoding::kAuto, 4096);
  const std::vector<double> specials = {0.0, -0.0, 1.5, kInf, -kInf, kNaN};
  for (int64_t r = 0; r < n; ++r) {
    raw_i.AppendInt(r % 5 == 0 ? kI64Min + r : rng.UniformInt(-1000, 1000));
    raw_d.AppendDouble(r % 7 == 0 ? kNaN : rng.UniformDouble(-1, 1));
    // Mostly small deltas with rare wide ones: 1- to 10-byte varints.
    vb.AppendInt(rng.Bernoulli(0.02) ? kI64Max - r : r * 3 + rng.UniformInt(0, 5));
    dict_i.AppendInt(rng.UniformInt(0, 40) * 1000003);
    dict_d.AppendDouble(specials[static_cast<size_t>(rng.UniformInt(0, 5))]);
    str.AppendString(std::string("s").append(
        std::to_string(rng.UniformInt(0, 300))));
  }
  for (EncodedColumn* c : {&raw_i, &raw_d, &vb, &dict_i, &dict_d, &str}) {
    c->Finish();
  }
  ASSERT_EQ(raw_i.block_kind(0), Encoding::kRaw);
  ASSERT_EQ(raw_d.block_kind(0), Encoding::kRaw);
  for (int64_t b = 0; b < vb.num_blocks(); ++b) {
    ASSERT_EQ(vb.block_kind(b), Encoding::kVbyte);
  }
  ASSERT_EQ(dict_i.mode(), Encoding::kDict);
  ASSERT_EQ(dict_d.mode(), Encoding::kDict);
  ExpectGatherMatchesPointReads(raw_i, "raw int");
  ExpectGatherMatchesPointReads(raw_d, "raw double");
  ExpectGatherMatchesPointReads(vb, "vbyte");
  ExpectGatherMatchesPointReads(dict_i, "int dict");
  ExpectGatherMatchesPointReads(dict_d, "double dict");
  ExpectGatherMatchesPointReads(str, "string");
}

TEST(GatherNumericTest, ResidentAndMappedColumnsMatchPointReads) {
  TableSchema schema("g", {{"raw_i", DataType::kInt64},
                           {"raw_d", DataType::kDouble},
                           {"packed", DataType::kInt64},
                           {"vb", DataType::kInt64},
                           {"dict_i", DataType::kInt64},
                           {"dict_d", DataType::kDouble},
                           {"str", DataType::kString}});
  EncodingPolicy policy = EncodingPolicy::Auto();
  policy.per_column = {{"raw_i", Encoding::kRaw},
                       {"raw_d", Encoding::kRaw},
                       {"packed", Encoding::kPacked},
                       {"vb", Encoding::kVbyte},
                       {"dict_i", Encoding::kDict}};
  auto table = std::make_shared<Table>(schema, policy);
  Rng rng(33);
  for (int64_t r = 0; r < 2 * EncodedColumn::kBlockRows + 777; ++r) {
    table->column(0).AppendInt(rng.UniformInt(-5, 5000));
    table->column(1).AppendDouble(rng.UniformDouble(0, 1));
    table->column(2).AppendInt(rng.UniformInt(0, 1 << 20));
    table->column(3).AppendInt(r * 11 + rng.UniformInt(0, 200));
    table->column(4).AppendInt(rng.UniformInt(0, 60) * 99991);
    table->column(5).AppendDouble(rng.UniformInt(0, 30) * 0.25);
    table->column(6).AppendString(
        std::string("b").append(std::to_string(rng.UniformInt(0, 90))));
  }
  ASSERT_TRUE(table->Finalize().ok());

  char tmpl[] = "/tmp/rqp_gather_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/g.rqp";
  ASSERT_TRUE(WriteTableFile(*table, ComputeTableStats(*table), path).ok());
  MappedTable mapped;
  ASSERT_TRUE(OpenMappedTable(path, &mapped).ok());
  std::remove(path.c_str());
  rmdir(dir);
  ASSERT_TRUE(mapped.table->IsMapped());

  for (int c = 0; c < schema.num_columns(); ++c) {
    const std::string name = schema.column(c).name;
    const ColumnData& resident = table->column(c);
    const ColumnData& mcol = mapped.table->column(c);
    ExpectGatherMatchesPointReads(resident, name + " resident");
    ExpectGatherMatchesPointReads(mcol, name + " mapped");
    ASSERT_TRUE(mcol.enc().is_mapped()) << name;
    ExpectGatherMatchesPointReads(mcol.enc(), name + " mapped encoded");
    ExpectGatherMatchesPointReads(resident.enc(), name + " resident encoded");
    for (int64_t r = 0; r < table->num_rows(); r += 97) {
      ASSERT_EQ(Bits(resident.GetNumeric(r)), Bits(mcol.GetNumeric(r)))
          << name << " row " << r;
    }
  }
  EXPECT_EQ(table->column(3).enc().block_kind(0), Encoding::kVbyte);
  EXPECT_EQ(mapped.table->column(0).enc().block_kind(0), Encoding::kRaw);
}

// ---------------------------------------------------------------------------
// kAuto integer layout: lane-width packed blocks, never varints
// ---------------------------------------------------------------------------

TEST(AutoLayoutTest, GeneratorCatalogsStoreNoVbyteBlocks) {
  for (const auto& [name, catalog] :
       {std::pair{std::string("tpcds"), BuildTpcdsCatalog()},
        std::pair{std::string("job"), BuildJobCatalog()}}) {
    int64_t packed = 0;
    for (const std::string& t : catalog->TableNames()) {
      const Table& table = *catalog->FindTable(t)->table;
      for (int c = 0; c < table.schema().num_columns(); ++c) {
        const EncodedColumn& enc = table.column(c).enc();
        for (int64_t b = 0; b < enc.num_blocks(); ++b) {
          const Encoding kind = enc.block_kind(b);
          ASSERT_TRUE(kind == Encoding::kPacked || kind == Encoding::kDict ||
                      kind == Encoding::kRaw)
              << name << " " << t << "." << table.schema().column(c).name
              << " block " << b << " is " << EncodingName(kind);
          packed += kind == Encoding::kPacked ? 1 : 0;
        }
      }
    }
    EXPECT_GT(packed, 0) << name;
  }
}

/// Zipf-skewed join keys whose block ranges need 9 to 15 bits (block b
/// spans [1, 2^(9+b)]) — the fact-table key shape. Small ranks dominate,
/// so most keys would be 1- or 2-byte varints.
std::vector<int64_t> ZipfKeys() {
  std::vector<int64_t> keys;
  Rng rng(501);
  for (int bits = 9; bits <= 15; ++bits) {
    const int64_t n = int64_t{1} << bits;
    const ZipfSampler zipf(n, 1.0);
    keys.push_back(n);  // pin the block range
    for (int64_t i = 1; i < EncodedColumn::kBlockRows; ++i) {
      keys.push_back(zipf.Sample(&rng));
    }
  }
  const std::vector<int64_t> tail(keys.begin(), keys.begin() + 300);
  keys.insert(keys.end(), tail.begin(), tail.end());  // a short last block
  return keys;
}

TEST(AutoLayoutTest, ZipfKeyColumnPacksAtLaneWidth) {
  const std::vector<int64_t> keys = ZipfKeys();
  EncodedColumn col(DataType::kInt64, Encoding::kAuto, /*dict_max_card=*/256);
  for (int64_t k : keys) col.AppendInt(k);
  col.Finish();
  ASSERT_EQ(col.mode(), Encoding::kAuto);  // the dictionary overflowed
  ASSERT_EQ(col.num_blocks(), 8);
  for (int64_t b = 0; b < col.num_blocks(); ++b) {
    ASSERT_EQ(col.block_kind(b), Encoding::kPacked) << "block " << b;
    const EncodedColumn::PackedView view = col.packed_view(b);
    EXPECT_EQ(view.width, bitpack::LaneWidthFor(view.range)) << "block " << b;
    EXPECT_EQ(view.width, 16) << "block " << b;
  }
  for (size_t r = 0; r < keys.size(); ++r) {
    ASSERT_EQ(col.GetInt(static_cast<int64_t>(r)), keys[r]) << "row " << r;
  }
}

TEST(AutoLayoutTest, ForcedVbyteTwinReadsBitIdentical) {
  const std::vector<int64_t> keys = ZipfKeys();
  EncodedColumn packed(DataType::kInt64, Encoding::kAuto, 256);
  EncodedColumn vb(DataType::kInt64, Encoding::kVbyte, 256);
  for (int64_t k : keys) {
    packed.AppendInt(k);
    vb.AppendInt(k);
  }
  packed.Finish();
  vb.Finish();
  const int64_t n = static_cast<int64_t>(keys.size());
  ASSERT_EQ(vb.num_blocks(), packed.num_blocks());
  for (int64_t b = 0; b < vb.num_blocks(); ++b) {
    ASSERT_EQ(vb.block_kind(b), Encoding::kVbyte) << "block " << b;
    ASSERT_EQ(packed.block_kind(b), Encoding::kPacked) << "block " << b;
  }
  std::vector<double> range_p(static_cast<size_t>(n));
  std::vector<double> range_v(static_cast<size_t>(n));
  packed.DecodeRange(0, n, range_p.data());
  vb.DecodeRange(0, n, range_v.data());
  for (int64_t r = 0; r < n; ++r) {
    ASSERT_EQ(Bits(PointNumeric(vb, r)), Bits(PointNumeric(packed, r)))
        << "row " << r;
    ASSERT_EQ(Bits(range_v[static_cast<size_t>(r)]),
              Bits(range_p[static_cast<size_t>(r)]))
        << "row " << r;
  }
  for (const auto& [shape, rows] : GatherRowLists(n, 41)) {
    const int64_t m = static_cast<int64_t>(rows.size());
    std::vector<double> got_p(rows.size()), got_v(rows.size());
    packed.GatherNumeric(rows.data(), m, got_p.data());
    vb.GatherNumeric(rows.data(), m, got_v.data());
    for (int64_t j = 0; j < m; ++j) {
      ASSERT_EQ(Bits(got_v[static_cast<size_t>(j)]),
                Bits(got_p[static_cast<size_t>(j)]))
          << shape << " position " << j;
    }
  }
}

// A forced-vbyte column file whose payload is overwritten (all 0xFF: every
// varint overlong; then seeded random bytes) must either fail to open or
// read every row by every path without leaving its byte run. Sanitizer
// builds report any read past the run or any shift of 64 bits or more.
TEST(VbyteTest, CorruptMappedPayloadReadsStayInBounds) {
  const std::vector<int64_t> keys = ZipfKeys();
  const int64_t n = static_cast<int64_t>(keys.size());
  TableSchema schema("v", {{"k", DataType::kInt64}});
  EncodingPolicy policy;
  policy.kind = Encoding::kVbyte;
  Table table(schema, policy);
  for (int64_t k : keys) table.column(0).AppendInt(k);
  ASSERT_TRUE(table.Finalize().ok());
  ASSERT_EQ(table.column(0).enc().block_kind(0), Encoding::kVbyte);

  char tmpl[] = "/tmp/rqp_vbyte_fuzz_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/v.rqp";
  ASSERT_TRUE(WriteTableFile(table, ComputeTableStats(table), path).ok());
  std::string file;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
      file.append(buf, got);
    }
    std::fclose(f);
  }
  // The only column has no word run, so its byte run follows the 8-byte
  // head magic.
  const std::vector<uint8_t>& payload = table.column(0).enc().payload_bytes();
  const size_t off = 8;
  ASSERT_GE(file.size(), off + payload.size());
  ASSERT_EQ(std::memcmp(file.data() + off, payload.data(), payload.size()), 0);

  std::vector<int64_t> all(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) all[static_cast<size_t>(r)] = r;
  Rng rng(2027);
  for (int trial = 0; trial < 17; ++trial) {
    std::string corrupt = file;
    for (size_t i = 0; i < payload.size(); ++i) {
      corrupt[off + i] = trial == 0 ? static_cast<char>(0xFF)
                                    : static_cast<char>(rng.UniformInt(0, 255));
    }
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(corrupt.data(), 1, corrupt.size(), f),
                corrupt.size());
      std::fclose(f);
    }
    MappedTable mapped;
    if (!OpenMappedTable(path, &mapped).ok()) continue;
    // Corrupt varints no longer end where the skip table says, so paths
    // that enter a block at different skip points may disagree on values;
    // what they must not do is read outside the run.
    const ColumnData& col = mapped.table->column(0);
    std::vector<double> decoded(static_cast<size_t>(n));
    std::vector<double> gathered(static_cast<size_t>(n));
    col.enc().DecodeRange(0, n, decoded.data());
    col.enc().GatherNumeric(all.data(), n, gathered.data());
    volatile int64_t point = 0;
    for (int64_t r = 0; r < n; ++r) point = col.enc().GetInt(r);
    (void)point;
    kernels::FilterScratch scratch;
    std::vector<int64_t> sel;
    for (CompareOp op : {CompareOp::kLt, CompareOp::kGe, CompareOp::kEq}) {
      EXPECT_LE(kernels::FilterRange(col, op, 100.0, 0, n, 0.5, &sel, &scratch),
                n)
          << "trial " << trial;
      kernels::FilterRefine(col, CompareOp::kLe, 1e6, &sel, &scratch);
    }
  }
  std::remove(path.c_str());
  rmdir(dir);
}

// ---------------------------------------------------------------------------
// kRaw value blocks: in-place filter, refine, gathers and min/max vs a
// scalar loop over the appended values, resident and mapped
// ---------------------------------------------------------------------------

/// A two-block-plus-tail table of kRaw int and double columns whose values
/// hit the adversarial cases: INT64_MIN/MAX and the ±2^53 exactness edge,
/// NaN, ±0.0 and ±inf.
struct RawBlockFixture {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::unique_ptr<Table> table;
  MappedTable mapped;
};

void BuildRawBlockFixture(RawBlockFixture* f) {
  Rng rng(97);
  const int64_t n = 2 * kZoneBlockRows + 1234;  // partial tail block
  const std::vector<int64_t> int_pool = {kI64Min, kI64Max, kI64Min + 1,
                                         kI64Max - 1, int64_t{1} << 53,
                                         -(int64_t{1} << 53) - 1, 0, -1};
  const std::vector<double> dbl_pool = {kNaN, -0.0, 0.0, kInf, -kInf, 1.5};
  for (int64_t i = 0; i < n; ++i) {
    f->ints.push_back(
        rng.Bernoulli(0.1)
            ? int_pool[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(int_pool.size()) - 1))]
            : rng.UniformInt(-50, 50));
    f->doubles.push_back(
        rng.Bernoulli(0.2)
            ? dbl_pool[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(dbl_pool.size()) - 1))]
            : rng.UniformDouble(-10, 10));
  }
  TableSchema schema("raw", {{"i", DataType::kInt64},
                             {"d", DataType::kDouble}});
  f->table = std::make_unique<Table>(schema);
  for (int64_t i = 0; i < n; ++i) {
    f->table->column(0).AppendInt(f->ints[static_cast<size_t>(i)]);
    f->table->column(1).AppendDouble(f->doubles[static_cast<size_t>(i)]);
  }
  ASSERT_TRUE(f->table->Finalize().ok());

  char tmpl[] = "/tmp/rqp_rawblk_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/raw.rqp";
  ASSERT_TRUE(
      WriteTableFile(*f->table, ComputeTableStats(*f->table), path).ok());
  ASSERT_TRUE(OpenMappedTable(path, &f->mapped).ok());
  std::remove(path.c_str());
  rmdir(dir);
}

/// Appended value of row r of fixture column c, as GetNumeric yields it.
double RawValue(const RawBlockFixture& f, int c, int64_t r) {
  return c == 0 ? static_cast<double>(f.ints[static_cast<size_t>(r)])
                : f.doubles[static_cast<size_t>(r)];
}

TEST(RawBlockTest, KernelsMatchScalarLoopResidentAndMapped) {
  RawBlockFixture f;
  BuildRawBlockFixture(&f);
  if (HasFatalFailure()) return;
  const int64_t n = f.table->num_rows();
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, n},                                       // whole column
      {100, kZoneBlockRows + 7},                    // mid-block to mid-block
      {kZoneBlockRows, 2 * kZoneBlockRows},         // one aligned block
      {2 * kZoneBlockRows + 5, n},                  // inside the tail block
      {kZoneBlockRows - 1, kZoneBlockRows + 1},     // straddles a boundary
      {17, 17}};                                    // empty
  const std::vector<std::vector<double>> consts = {
      // int column: beyond both ends of the domain, the cast extremes, the
      // ±2^53 edge, fractions, NaN.
      {-1e19, static_cast<double>(kI64Min), -9007199254740993.0, -5.0, -0.0,
       0.5, 7.0, 9007199254740992.0, static_cast<double>(kI64Max), 1e19,
       kNaN},
      {-kInf, -1.0, -0.0, 0.0, 1.5, 3.25, kInf, kNaN}};
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq};

  for (int c = 0; c < 2; ++c) {
    for (const bool mapped : {false, true}) {
      const ColumnData& col =
          mapped ? f.mapped.table->column(c) : f.table->column(c);
      const std::string what = std::string(c == 0 ? "int" : "double") +
                               (mapped ? " mapped" : " resident");
      ASSERT_EQ(col.enc().is_mapped(), mapped) << what;
      ASSERT_EQ(col.enc().mode(), Encoding::kRaw) << what;
      for (int64_t b = 0; b < col.enc().num_blocks(); ++b) {
        ASSERT_EQ(col.enc().block_kind(b), Encoding::kRaw) << what;
      }

      kernels::FilterScratch scratch;
      std::vector<int64_t> sel;
      for (CompareOp op : ops) {
        for (double k : consts[static_cast<size_t>(c)]) {
          for (const auto& [r0, r1] : ranges) {
            std::vector<int64_t> want;
            for (int64_t r = r0; r < r1; ++r) {
              if (NaiveSatisfies(RawValue(f, c, r), op, k)) want.push_back(r);
            }
            for (double est : {0.01, 0.5}) {  // sparse and dense regimes
              for (const bool fused : {true, false}) {
                kernels::FilterRange(col, op, k, r0, r1, est, &sel, &scratch,
                                     fused);
                ASSERT_EQ(sel, want)
                    << what << " op=" << static_cast<int>(op) << " c=" << k
                    << " [" << r0 << "," << r1 << ") est=" << est
                    << " fused=" << fused;
              }
            }
          }
          // FilterRefine over an ascending every-third-row selection.
          std::vector<int64_t> refine, want;
          for (int64_t r = 0; r < n; r += 3) {
            refine.push_back(r);
            if (NaiveSatisfies(RawValue(f, c, r), op, k)) want.push_back(r);
          }
          kernels::FilterRefine(col, op, k, &refine, &scratch);
          ASSERT_EQ(refine, want)
              << what << " refine op=" << static_cast<int>(op) << " c=" << k;
        }
      }

      // GatherInto over every row-list shape; GatherRange over the ranges.
      for (const auto& [shape, rows] : GatherRowLists(n, 5)) {
        std::vector<double> got(rows.size());
        kernels::GatherInto(col, rows.data(),
                            static_cast<int64_t>(rows.size()), got.data());
        for (size_t j = 0; j < rows.size(); ++j) {
          ASSERT_EQ(Bits(got[j]), Bits(RawValue(f, c, rows[j])))
              << what << " " << shape << " position " << j;
        }
      }
      for (const auto& [r0, r1] : ranges) {
        std::vector<double> got;
        kernels::GatherRange(col, r0, r1, &got);
        ASSERT_EQ(static_cast<int64_t>(got.size()), r1 - r0);
        for (int64_t r = r0; r < r1; ++r) {
          ASSERT_EQ(Bits(got[static_cast<size_t>(r - r0)]),
                    Bits(RawValue(f, c, r)))
              << what << " range row " << r;
        }
      }

      // The zone maps' extremes vs a fold over the appended values.
      double lo = kInf, hi = -kInf;
      bool nan = false;
      for (int64_t r = 0; r < n; ++r) {
        const double x = RawValue(f, c, r);
        if (std::isnan(x)) {
          nan = true;
          continue;
        }
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      const ZoneMap& z = col.zones();
      ASSERT_GE(z.num_blocks() * kZoneBlockRows, n) << what;
      double zlo = kInf, zhi = -kInf;
      bool znan = false;
      for (int64_t b = 0; b < z.num_blocks(); ++b) {
        const size_t i = static_cast<size_t>(b);
        zlo = std::min(zlo, z.min[i]);
        zhi = std::max(zhi, z.max[i]);
        znan |= !z.has_nan.empty() && z.has_nan[i] != 0;
      }
      EXPECT_EQ(znan, nan) << what;
      EXPECT_EQ(zlo, lo) << what;
      EXPECT_EQ(zhi, hi) << what;
    }
  }
}

TEST(RawBlockTest, DoubleDictOverflowMidColumnBecomesRawBlocks) {
  // 1.5 blocks from a 40-value pool (NaN and ±0.0 included) fit the
  // 64-entry dictionary; the distinct values after that overflow it
  // partway through the second block.
  Rng rng(101);
  const int64_t n = 3 * kZoneBlockRows + 321;
  std::vector<double> pool = {kNaN, -0.0, 0.0};
  while (pool.size() < 40) pool.push_back(rng.UniformDouble(-5, 5));
  std::vector<double> vals;
  for (int64_t i = 0; i < n; ++i) {
    vals.push_back(i < kZoneBlockRows + kZoneBlockRows / 2
                       ? pool[static_cast<size_t>(rng.UniformInt(0, 39))]
                       : (rng.Bernoulli(0.01) ? kNaN
                                              : rng.UniformDouble(-1e6, 1e6)));
  }
  TableSchema schema("t", {{"d", DataType::kDouble}});
  EncodingPolicy policy = EncodingPolicy::Auto();
  policy.dict_max_card = 64;
  Table table(schema, policy);
  // Reference layout that never overflows: an unbounded dictionary.
  EncodingPolicy dict_policy;
  dict_policy.kind = Encoding::kDict;
  dict_policy.dict_max_card = n;
  Table dict(schema, dict_policy);
  for (double v : vals) {
    table.column(0).AppendDouble(v);
    dict.column(0).AppendDouble(v);
  }
  ASSERT_TRUE(table.Finalize().ok());
  ASSERT_TRUE(dict.Finalize().ok());
  ASSERT_EQ(dict.column(0).enc().mode(), Encoding::kDict);

  const ColumnData& col = table.column(0);
  ASSERT_EQ(col.enc().mode(), Encoding::kRaw);
  ASSERT_EQ(col.size(), n);
  ASSERT_EQ(col.enc().num_blocks(), 4);
  for (int64_t b = 0; b < col.enc().num_blocks(); ++b) {
    ASSERT_EQ(col.enc().block_kind(b), Encoding::kRaw) << "block " << b;
  }
  for (int64_t r = 0; r < n; ++r) {
    ASSERT_EQ(Bits(col.GetDouble(r)), Bits(vals[static_cast<size_t>(r)]))
        << "row " << r;
  }

  // Zone maps: per-block min/max over non-NaN values, has_nan otherwise.
  const ZoneMap& z = col.zones();
  ASSERT_EQ(z.num_blocks(), 4);
  for (int64_t b = 0; b < 4; ++b) {
    double lo = kInf, hi = -kInf;
    bool nan = false;
    for (int64_t r = b * kZoneBlockRows;
         r < std::min(n, (b + 1) * kZoneBlockRows); ++r) {
      const double x = vals[static_cast<size_t>(r)];
      if (std::isnan(x)) {
        nan = true;
        continue;
      }
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    const size_t i = static_cast<size_t>(b);
    EXPECT_EQ(z.min[i], lo) << "block " << b;
    EXPECT_EQ(z.max[i], hi) << "block " << b;
    EXPECT_EQ(z.has_nan[i] != 0, nan) << "block " << b;
  }

  // Statistics: the scalar facts straight from the values, and the whole
  // ColumnStats equal to the never-overflowing layout's.
  std::vector<double> sorted;
  for (double v : vals) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  int64_t distinct = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ++distinct;
  }
  const ColumnStats got = ComputeTableStats(table)[0];
  const ColumnStats want = ComputeTableStats(dict)[0];
  EXPECT_EQ(got.row_count, n);
  EXPECT_EQ(got.min, sorted.front());
  EXPECT_EQ(got.max, sorted.back());
  EXPECT_EQ(got.distinct_count, distinct);
  EXPECT_EQ(Bits(got.min), Bits(want.min));
  EXPECT_EQ(Bits(got.max), Bits(want.max));
  EXPECT_EQ(got.distinct_count, want.distinct_count);
  EXPECT_EQ(got.histogram.total_rows, want.histogram.total_rows);
  EXPECT_EQ(got.histogram.rows_per_bucket, want.histogram.rows_per_bucket);
  ASSERT_EQ(got.histogram.bounds.size(), want.histogram.bounds.size());
  for (size_t i = 0; i < got.histogram.bounds.size(); ++i) {
    EXPECT_EQ(Bits(got.histogram.bounds[i]), Bits(want.histogram.bounds[i]));
  }
}

}  // namespace
}  // namespace robustqp
