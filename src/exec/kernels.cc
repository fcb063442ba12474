#include "exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace robustqp {
namespace kernels {
namespace {

/// Per-block decision for one predicate against one zone summary.
/// `lo > hi` means the block holds no comparable value (empty tail or
/// all-NaN), which satisfies nothing.
ZoneMatch ClassifyBlock(double lo, double hi, bool nan, CompareOp op,
                        double value) {
  if (lo > hi) return ZoneMatch::kNone;
  switch (op) {
    case CompareOp::kLt:
      if (lo >= value) return ZoneMatch::kNone;
      if (hi < value && !nan) return ZoneMatch::kAll;
      return ZoneMatch::kSome;
    case CompareOp::kLe:
      if (lo > value) return ZoneMatch::kNone;
      if (hi <= value && !nan) return ZoneMatch::kAll;
      return ZoneMatch::kSome;
    case CompareOp::kGt:
      if (hi <= value) return ZoneMatch::kNone;
      if (lo > value && !nan) return ZoneMatch::kAll;
      return ZoneMatch::kSome;
    case CompareOp::kGe:
      if (hi < value) return ZoneMatch::kNone;
      if (lo >= value && !nan) return ZoneMatch::kAll;
      return ZoneMatch::kSome;
    case CompareOp::kEq:
      if (value < lo || value > hi) return ZoneMatch::kNone;
      if (lo == value && hi == value && !nan) return ZoneMatch::kAll;
      return ZoneMatch::kSome;
  }
  return ZoneMatch::kSome;
}

/// Scalar predicate with the executor's double-compare semantics.
bool CompareVal(double x, CompareOp op, double value) {
  switch (op) {
    case CompareOp::kLt:
      return x < value;
    case CompareOp::kLe:
      return x <= value;
    case CompareOp::kGt:
      return x > value;
    case CompareOp::kGe:
      return x >= value;
    case CompareOp::kEq:
      return x == value;
  }
  return false;
}

/// Dispatches op once and hands `emit` a 0-indexed bool lambda over a
/// value array — a plain pointer or any indexable view (int values
/// compared after the double cast, exactly like the tuple engine).
template <typename Array, typename Fn>
void WithArrayPred(Array v, CompareOp op, double value, Fn&& emit) {
  switch (op) {
    case CompareOp::kLt:
      emit([=](int64_t i) { return static_cast<double>(v[i]) < value; });
      return;
    case CompareOp::kLe:
      emit([=](int64_t i) { return static_cast<double>(v[i]) <= value; });
      return;
    case CompareOp::kGt:
      emit([=](int64_t i) { return static_cast<double>(v[i]) > value; });
      return;
    case CompareOp::kGe:
      emit([=](int64_t i) { return static_cast<double>(v[i]) >= value; });
      return;
    case CompareOp::kEq:
      emit([=](int64_t i) { return static_cast<double>(v[i]) == value; });
      return;
  }
}

/// The values of a kRaw double block: one bit-cast word per row, read
/// through memcpy (a plain load after optimization).
struct RawDoubleWords {
  const uint64_t* w;
  double operator[](int64_t i) const {
    double d;
    std::memcpy(&d, w + i, sizeof(d));
    return d;
  }
};

/// Sparse/dense survivor emission for a 0-indexed predicate over [0, n);
/// row ids written to out are base + i. Returns the survivor count.
template <typename Pred>
int64_t EmitPred(int64_t n, int64_t base, double est_selectivity, int64_t* out,
                 FilterScratch* scratch, Pred&& pred) {
  int64_t w = 0;
  if (est_selectivity >= kDensePathSelectivity) {
    scratch->mask.resize(static_cast<size_t>(n));
    uint8_t* m = scratch->mask.data();
    for (int64_t i = 0; i < n; ++i) m[i] = pred(i) ? 1 : 0;
    for (int64_t i = 0; i < n; ++i) {
      out[w] = base + i;
      w += m[i];
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out[w] = base + i;
      w += pred(i) ? 1 : 0;
    }
  }
  return w;
}

/// Survivor emission from a 0/1 byte mask with zero-word skipping: eight
/// mask bytes are scanned as one uint64 load, so stretches with no
/// survivors cost one test per eight rows and all-pass stretches emit
/// without per-row tests — the low- and high-selectivity regimes a
/// filtered scan actually spends its time in. Row ids written are
/// base + i; returns the survivor count.
int64_t EmitFromMask(const uint8_t* mask, int64_t n, int64_t base,
                     int64_t* out) {
  constexpr uint64_t kAllPass = 0x0101010101010101ull;
  int64_t w = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, mask + i, sizeof(word));
    if (word == 0) continue;
    if (word == kAllPass) {
      for (int j = 0; j < 8; ++j) out[w + j] = base + i + j;
      w += 8;
      continue;
    }
    // Mask bytes are 0 or 1, so set bits sit at positions 8*j; peel them
    // lowest-first.
    while (word != 0) {
      const int j = __builtin_ctzll(word) >> 3;
      out[w++] = base + i + j;
      word &= word - 1;
    }
  }
  for (; i < n; ++i) {
    out[w] = base + i;
    w += mask[i];
  }
  return w;
}

/// Byte mask of pred(code[i]) over a native little-endian lane array
/// (see bitpack::LaneWidthFor) — the typed compare loop has no
/// loop-carried dependency and auto-vectorizes at lane granularity (32
/// uint8 compares per AVX2 op against 4 for int64 values) — then
/// survivor emission via EmitFromMask.
template <typename T, typename Pred>
int64_t EmitLanePred(const uint8_t* lanes, int64_t m, int64_t base,
                     FilterScratch* scratch, int64_t* out, Pred&& pred) {
  scratch->mask.resize(static_cast<size_t>(m));
  // __restrict: lanes and mask are both byte pointers, and char-typed
  // stores alias everything — without the annotation the compiler must
  // assume the mask stores feed back into the lane loads and keeps the
  // loop scalar.
  const uint8_t* __restrict src = lanes;
  uint8_t* __restrict mask = scratch->mask.data();
  for (int64_t i = 0; i < m; ++i) {
    T x;
    std::memcpy(&x, src + i * static_cast<int64_t>(sizeof(T)), sizeof(T));
    mask[i] = pred(x) ? 1 : 0;
  }
  return EmitFromMask(scratch->mask.data(), m, base, out);
}

/// Invokes fn(type_tag, lane_bytes) for the block's codes [i0, i0+m).
/// Lane widths 8/16/32/64 point straight into the packed words (blocks
/// are word-aligned and lane widths divide 64, so lane i0 starts at byte
/// i0*width/8); 1/2/4-bit codes are widened into scratch->lanes bytes
/// first. Width 0 is the caller's job (every code is 0).
template <typename Fn>
int64_t WithLaneArray(const EncodedColumn::PackedView& view, int64_t i0,
                      int64_t m, FilterScratch* scratch, Fn&& fn) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(view.words);
  switch (view.width) {
    case 8:
      return fn(uint8_t{}, bytes + i0);
    case 16:
      return fn(uint16_t{}, bytes + i0 * 2);
    case 32:
      return fn(uint32_t{}, bytes + i0 * 4);
    case 64:
      return fn(uint64_t{}, bytes + i0 * 8);
    default: {  // lane widths 1/2/4: whole codes inside one byte
      scratch->lanes.resize(static_cast<size_t>(m));
      const int width = view.width;
      const int per = 8 / width;
      const uint8_t vmask = static_cast<uint8_t>((1u << width) - 1);
      uint8_t* out8 = scratch->lanes.data();
      for (int64_t i = 0; i < m; ++i) {
        const int64_t lane = i0 + i;
        out8[i] = static_cast<uint8_t>(
            (bytes[lane / per] >> ((lane % per) * width)) & vmask);
      }
      return fn(uint8_t{}, out8);
    }
  }
}

/// Dictionary-predicate rewrite: the predicate evaluated once per
/// dictionary entry, cached in the scratch (a row filter then costs one
/// table lookup per code). Small MRU cache — a scan cascade alternates
/// between its filters per morsel, so one entry per live (column, op,
/// constant) triple is what's needed.
const std::vector<uint8_t>& DictPass(FilterScratch* scratch,
                                     const EncodedColumn& enc, CompareOp op,
                                     double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (auto& e : scratch->dict_pass) {
    if (e.column == &enc && e.op == op && e.value_bits == bits) return e.pass;
  }
  if (scratch->dict_pass.size() >= 8) scratch->dict_pass.erase(
      scratch->dict_pass.begin());
  scratch->dict_pass.emplace_back();
  DictPassEntry& e = scratch->dict_pass.back();
  e.column = &enc;
  e.op = op;
  e.value_bits = bits;
  const int64_t card = enc.dict_size();
  e.pass.resize(static_cast<size_t>(card));
  for (int64_t c = 0; c < card; ++c) {
    e.pass[static_cast<size_t>(c)] =
        CompareVal(enc.DictNumeric(c), op, value) ? 1 : 0;
  }
  return e.pass;
}

/// Decode-then-filter over one block sub-range (the exact fallback).
int64_t FilterDecoded(const ColumnData& col, CompareOp op, double value,
                      int64_t s0, int64_t s1, double est_selectivity,
                      int64_t* out, FilterScratch* scratch) {
  const int64_t m = s1 - s0;
  int64_t w = 0;
  if (col.type() == DataType::kInt64) {
    scratch->decoded_i.resize(static_cast<size_t>(m));
    col.enc().DecodeRange(s0, s1, scratch->decoded_i.data());
    const int64_t* v = scratch->decoded_i.data();
    WithArrayPred(v, op, value, [&](auto pred) {
      w = EmitPred(m, s0, est_selectivity, out, scratch, pred);
    });
  } else {
    scratch->decoded_d.resize(static_cast<size_t>(m));
    col.enc().DecodeRange(s0, s1, scratch->decoded_d.data());
    const double* v = scratch->decoded_d.data();
    WithArrayPred(v, op, value, [&](auto pred) {
      w = EmitPred(m, s0, est_selectivity, out, scratch, pred);
    });
  }
  return w;
}

/// Filters in-block indices [i0, i0+m) of a kRaw block in place over its
/// value words (no decode copy); row ids written are base + i.
int64_t FilterRawBlock(const ColumnData& col, const uint64_t* words,
                       int64_t i0, int64_t m, int64_t base, CompareOp op,
                       double value, double est_selectivity, int64_t* out,
                       FilterScratch* scratch) {
  int64_t w = 0;
  const auto emit = [&](auto pred) {
    w = EmitPred(m, base, est_selectivity, out, scratch, pred);
  };
  if (col.type() == DataType::kInt64) {
    WithArrayPred(reinterpret_cast<const int64_t*>(words) + i0, op, value,
                  emit);
  } else {
    WithArrayPred(RawDoubleWords{words + i0}, op, value, emit);
  }
  return w;
}

}  // namespace

ZoneMatch ClassifyZones(const ColumnData& col, CompareOp op, double value,
                        int64_t r0, int64_t r1) {
  if (r0 >= r1) return ZoneMatch::kNone;
  if (std::isnan(value)) return ZoneMatch::kNone;
  const ZoneMap& z = col.zones();
  const int64_t b0 = r0 / kZoneBlockRows;
  const int64_t b1 = (r1 - 1) / kZoneBlockRows;
  if (b1 >= z.num_blocks()) return ZoneMatch::kSome;  // no/partial zone map
  bool any_some = false, any_none = false, any_all = false;
  for (int64_t b = b0; b <= b1; ++b) {
    const size_t i = static_cast<size_t>(b);
    const bool nan = !z.has_nan.empty() && z.has_nan[i] != 0;
    switch (ClassifyBlock(z.min[i], z.max[i], nan, op, value)) {
      case ZoneMatch::kNone: any_none = true; break;
      case ZoneMatch::kAll: any_all = true; break;
      case ZoneMatch::kSome: any_some = true; break;
    }
    if (any_some || (any_none && any_all)) return ZoneMatch::kSome;
  }
  return any_none ? ZoneMatch::kNone : ZoneMatch::kAll;
}

int64_t FilterRange(const ColumnData& col, CompareOp op, double value,
                    int64_t r0, int64_t r1, double est_selectivity,
                    std::vector<int64_t>* sel, FilterScratch* scratch,
                    bool fused) {
  const int64_t n = r1 - r0;
  sel->resize(static_cast<size_t>(n > 0 ? n : 0));
  if (n <= 0) return 0;
  int64_t* out = sel->data();
  int64_t w = 0;
  // Per block within [r0, r1): kRaw blocks filter their words in place;
  // compressed blocks take fused filtering when allowed and exact, and
  // decode-then-filter otherwise. Identical survivors either way.
  FilterScratch local;
  if (scratch == nullptr) scratch = &local;
  const EncodedColumn& enc = col.enc();
  const bool dict = enc.mode() == Encoding::kDict;
  for (int64_t s0 = r0; s0 < r1;) {
    const int64_t b = s0 / EncodedColumn::kBlockRows;
    const int64_t base = b * EncodedColumn::kBlockRows;
    const int64_t s1 = std::min<int64_t>(r1, base + enc.block_rows(b));
    const Encoding kind = enc.block_kind(b);
    int64_t got = -1;
    if (kind == Encoding::kRaw) {
      got = FilterRawBlock(col, enc.packed_view(b).words, s0 - base, s1 - s0,
                           s0, op, value, est_selectivity, out + w, scratch);
    } else if (fused && dict) {
      const std::vector<uint8_t>& pass = DictPass(scratch, enc, op, value);
      const EncodedColumn::PackedView view = enc.packed_view(b);
      const int64_t m = s1 - s0;
      const uint8_t* p = pass.data();
      if (view.width == 0) {
        // Single-code block: the one dictionary entry decides all rows.
        got = 0;
        if (p[0] != 0) {
          for (int64_t i = 0; i < m; ++i) out[w + i] = s0 + i;
          got = m;
        }
      } else {
        got = WithLaneArray(view, s0 - base, m, scratch,
                            [&](auto tag, const uint8_t* lanes) {
                              using T = decltype(tag);
                              return EmitLanePred<T>(
                                  lanes, m, s0, scratch, out + w,
                                  [p](T x) { return p[x] != 0; });
                            });
      }
    } else if (fused && kind == Encoding::kPacked) {
      got = FilterPackedInt64(enc.packed_view(b), base, s0 - base, s1 - base,
                              op, value, est_selectivity, out + w, scratch);
    }
    if (got < 0) {
      got = FilterDecoded(col, op, value, s0, s1, est_selectivity, out + w,
                          scratch);
    }
    w += got;
    s0 = s1;
  }
  sel->resize(static_cast<size_t>(w));
  return w;
}

int64_t FilterRefine(const ColumnData& col, CompareOp op, double value,
                     std::vector<int64_t>* sel, FilterScratch* scratch) {
  const int64_t n = static_cast<int64_t>(sel->size());
  int64_t* s = sel->data();
  int64_t w = 0;
  // Gather the survivors' values a block run at a time (a vbyte point
  // read alone costs up to 64 varint decodes), then compact.
  FilterScratch local;
  if (scratch == nullptr) scratch = &local;
  scratch->decoded_d.resize(static_cast<size_t>(n));
  col.enc().GatherNumeric(s, n, scratch->decoded_d.data());
  WithArrayPred(scratch->decoded_d.data(), op, value, [&](auto pred) {
    for (int64_t i = 0; i < n; ++i) {
      s[w] = s[i];
      w += pred(i) ? 1 : 0;
    }
  });
  sel->resize(static_cast<size_t>(w));
  return w;
}

int64_t FilterPackedInt64(const EncodedColumn::PackedView& view,
                          int64_t base_row, int64_t i0, int64_t i1,
                          CompareOp op, double value, double est_selectivity,
                          int64_t* out, FilterScratch* scratch) {
  CodePred cp;
  if (!MapPredicateToCodes(op, value, view.ref, view.range, &cp)) return -1;
  const int64_t m = i1 - i0;
  if (m <= 0 || cp.kind == CodePred::Kind::kNone) return 0;
  if (cp.kind == CodePred::Kind::kAll) {
    for (int64_t i = 0; i < m; ++i) out[i] = base_row + i0 + i;
    return m;
  }
  if (view.width == 0) {
    // All codes are 0; the only predicate kind surviving the collapse
    // above is kEq with u == 0, which every row satisfies.
    for (int64_t i = 0; i < m; ++i) out[i] = base_row + i0 + i;
    return m;
  }
  (void)est_selectivity;  // the masked lane path wins at every selectivity
  const uint64_t u = cp.u;
  const int64_t base = base_row + i0;
  // After the collapse, u <= range <= max code of the lane type, so the
  // narrowing cast below is value-preserving and the compare stays exact.
  switch (cp.kind) {
    case CodePred::Kind::kLt:
      return WithLaneArray(view, i0, m, scratch,
                           [&](auto tag, const uint8_t* lanes) {
                             using T = decltype(tag);
                             const T tu = static_cast<T>(u);
                             return EmitLanePred<T>(
                                 lanes, m, base, scratch, out,
                                 [tu](T x) { return x < tu; });
                           });
    case CodePred::Kind::kGe:
      return WithLaneArray(view, i0, m, scratch,
                           [&](auto tag, const uint8_t* lanes) {
                             using T = decltype(tag);
                             const T tu = static_cast<T>(u);
                             return EmitLanePred<T>(
                                 lanes, m, base, scratch, out,
                                 [tu](T x) { return x >= tu; });
                           });
    default:
      return WithLaneArray(view, i0, m, scratch,
                           [&](auto tag, const uint8_t* lanes) {
                             using T = decltype(tag);
                             const T tu = static_cast<T>(u);
                             return EmitLanePred<T>(
                                 lanes, m, base, scratch, out,
                                 [tu](T x) { return x == tu; });
                           });
  }
}

void MapStringPredicate(const EncodedColumn& enc, CompareOp op,
                        const std::string& literal, CompareOp* out_op,
                        double* out_value) {
  // Ranks are the integers 0..dict_size-1, so half-open rank bounds
  // express every comparison exactly: lo = first rank >= literal,
  // up = first rank > literal.
  const int64_t lo = enc.StringLowerBoundRank(literal);
  const int64_t up = enc.StringUpperBoundRank(literal);
  switch (op) {
    case CompareOp::kLt:  // values <  literal  <=>  rank < lo
      *out_op = CompareOp::kLt;
      *out_value = static_cast<double>(lo);
      return;
    case CompareOp::kLe:  // values <= literal  <=>  rank < up
      *out_op = CompareOp::kLt;
      *out_value = static_cast<double>(up);
      return;
    case CompareOp::kGt:  // values >  literal  <=>  rank >= up
      *out_op = CompareOp::kGe;
      *out_value = static_cast<double>(up);
      return;
    case CompareOp::kGe:  // values >= literal  <=>  rank >= lo
      *out_op = CompareOp::kGe;
      *out_value = static_cast<double>(lo);
      return;
    case CompareOp::kEq:
      if (lo < up) {  // literal present: exactly rank lo
        *out_op = CompareOp::kEq;
        *out_value = static_cast<double>(lo);
      } else {  // absent: no rank satisfies rank < 0
        *out_op = CompareOp::kLt;
        *out_value = 0.0;
      }
      return;
  }
}

bool MapPredicateToCodes(CompareOp op, double value, int64_t ref,
                         uint64_t range, CodePred* out) {
  if (std::isnan(value)) {
    out->kind = CodePred::Kind::kNone;
    return true;
  }
  // Exactness domain: the int64 -> double cast is the identity on
  // [-2^53, 2^53], so integer threshold arithmetic reproduces the double
  // comparison bit-for-bit. Outside it, decline.
  constexpr int64_t kExactI = int64_t{1} << 53;
  constexpr double kExactD = 9007199254740992.0;  // 2^53
  if (ref < -kExactI || range > static_cast<uint64_t>(kExactI - ref)) {
    return false;
  }
  if (!(value >= -kExactD && value <= kExactD)) return false;
  // Normalize to x < t (kLt), x >= t (kGe) or x == t (kEq) over int64 x.
  int64_t t = 0;
  CodePred::Kind kind;
  switch (op) {
    case CompareOp::kLt:  // x < c  <=>  x < ceil(c)
      t = static_cast<int64_t>(std::ceil(value));
      kind = CodePred::Kind::kLt;
      break;
    case CompareOp::kLe:  // x <= c  <=>  x < floor(c) + 1
      t = static_cast<int64_t>(std::floor(value)) + 1;
      kind = CodePred::Kind::kLt;
      break;
    case CompareOp::kGt:  // x > c  <=>  x >= floor(c) + 1
      t = static_cast<int64_t>(std::floor(value)) + 1;
      kind = CodePred::Kind::kGe;
      break;
    case CompareOp::kGe:  // x >= c  <=>  x >= ceil(c)
      t = static_cast<int64_t>(std::ceil(value));
      kind = CodePred::Kind::kGe;
      break;
    default:  // kEq: only an integral constant can match an int column
      if (value != std::floor(value)) {
        out->kind = CodePred::Kind::kNone;
        return true;
      }
      t = static_cast<int64_t>(value);
      kind = CodePred::Kind::kEq;
      break;
  }
  // Code space: x = ref + code with code in [0, range], so compare codes
  // against u = t - ref (fits: ref >= -2^53 and |t| <= 2^53 + 1).
  const int64_t u = t - ref;
  switch (kind) {
    case CodePred::Kind::kLt:
      if (u <= 0) {
        out->kind = CodePred::Kind::kNone;
      } else if (static_cast<uint64_t>(u) > range) {
        out->kind = CodePred::Kind::kAll;
      } else {
        out->kind = CodePred::Kind::kLt;
        out->u = static_cast<uint64_t>(u);
      }
      return true;
    case CodePred::Kind::kGe:
      if (u <= 0) {
        out->kind = CodePred::Kind::kAll;
      } else if (static_cast<uint64_t>(u) > range) {
        out->kind = CodePred::Kind::kNone;
      } else {
        out->kind = CodePred::Kind::kGe;
        out->u = static_cast<uint64_t>(u);
      }
      return true;
    default:
      if (u < 0 || static_cast<uint64_t>(u) > range) {
        out->kind = CodePred::Kind::kNone;
      } else {
        out->kind = CodePred::Kind::kEq;
        out->u = static_cast<uint64_t>(u);
      }
      return true;
  }
}

void Gather(const ColumnData& col, const int64_t* sel, int64_t n,
            std::vector<double>* out) {
  out->resize(static_cast<size_t>(n > 0 ? n : 0));
  if (n <= 0) return;
  GatherInto(col, sel, n, out->data());
}

void GatherInto(const ColumnData& col, const int64_t* sel, int64_t n,
                double* o) {
  col.enc().GatherNumeric(sel, n, o);
}

void GatherRange(const ColumnData& col, int64_t r0, int64_t r1,
                 std::vector<double>* out) {
  const int64_t n = r1 - r0;
  out->resize(static_cast<size_t>(n > 0 ? n : 0));
  if (n <= 0) return;
  col.enc().DecodeRange(r0, r1, out->data());
}

int64_t CompactWhere(const double* vals, CompareOp op, double value,
                     int64_t n, int64_t* a, int64_t* b) {
  int64_t w = 0;
  WithArrayPred(vals, op, value, [&](auto pred) {
    for (int64_t j = 0; j < n; ++j) {
      a[w] = a[j];
      b[w] = b[j];
      w += pred(j) ? 1 : 0;
    }
  });
  return w;
}

void FlatJoinTable::Init(int key_width, int payload_width) {
  kw_ = key_width;
  pay_.assign(static_cast<size_t>(payload_width), {});
  slots_.assign(64, -1);
}

void FlatJoinTable::Insert(const double* key, const double* payload) {
  const int64_t u = FindOrAddKey(key);
  const int64_t e = static_cast<int64_t>(next_.size());
  next_.push_back(-1);
  if (tail_[static_cast<size_t>(u)] >= 0) {
    next_[static_cast<size_t>(tail_[static_cast<size_t>(u)])] = e;
  } else {
    head_[static_cast<size_t>(u)] = e;
  }
  tail_[static_cast<size_t>(u)] = e;
  ++chain_len_[static_cast<size_t>(u)];
  for (size_t c = 0; c < pay_.size(); ++c) pay_[c].push_back(payload[c]);
}

int64_t FlatJoinTable::Find(const double* key) const {
  if (num_keys_ == 0) return -1;
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t s = Hash(key) & mask;; s = (s + 1) & mask) {
    const int64_t u = slots_[s];
    if (u < 0) return -1;
    if (KeyEquals(u, key)) return u;
  }
}

void FlatJoinTable::FindBatch(const double* keys, int64_t n, int64_t* out,
                              std::vector<uint64_t>* hash_scratch) const {
  if (num_keys_ == 0) {
    std::fill(out, out + n, int64_t{-1});
    return;
  }
  // Pass 1: hash every key (straight-line, no probe-walk branches).
  hash_scratch->resize(static_cast<size_t>(n));
  uint64_t* h = hash_scratch->data();
  for (int64_t i = 0; i < n; ++i) h[i] = Hash(keys + i * kw_);
  // Pass 2: resolve slots. Linear probing with the precomputed hashes;
  // NaN keys miss naturally (stored != key for every comparison).
  const uint64_t mask = slots_.size() - 1;
  const int64_t* slots = slots_.data();
  for (int64_t i = 0; i < n; ++i) {
    const double* key = keys + i * kw_;
    int64_t found = -1;
    for (uint64_t s = h[i] & mask;; s = (s + 1) & mask) {
      const int64_t u = slots[s];
      if (u < 0) break;
      if (KeyEquals(u, key)) {
        found = u;
        break;
      }
    }
    out[i] = found;
  }
}

uint64_t FlatJoinTable::Hash(const double* key) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kw_; ++i) {
    const double v = key[i] == 0.0 ? 0.0 : key[i];  // normalize -0.0
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    b *= 0xbf58476d1ce4e5b9ull;
    b ^= b >> 31;
    h = (h ^ b) * 0x94d049bb133111ebull;
  }
  h ^= h >> 29;
  return h;
}

bool FlatJoinTable::KeyEquals(int64_t u, const double* key) const {
  const double* stored = &ukeys_[static_cast<size_t>(u) * kw_];
  for (int i = 0; i < kw_; ++i) {
    if (stored[i] != key[i]) return false;
  }
  return true;
}

int64_t FlatJoinTable::FindOrAddKey(const double* key) {
  // Grow at 1/8 load. Sparse slots keep linear-probe walks at ~1 step, which
  // makes the probe-loop exit branch predictable; measured on the bench
  // machine, probing a dimension-sized table at 1/8 load is ~3.4x faster
  // than at the textbook 7/8, and the 8 extra bytes per slot are cheap for
  // build sides that are dimension-sized by plan construction.
  if ((num_keys_ + 1) * 8 > static_cast<int64_t>(slots_.size())) Grow();
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t s = Hash(key) & mask;; s = (s + 1) & mask) {
    const int64_t u = slots_[s];
    if (u < 0) {
      const int64_t nu = num_keys_++;
      slots_[s] = nu;
      ukeys_.insert(ukeys_.end(), key, key + kw_);
      head_.push_back(-1);
      tail_.push_back(-1);
      chain_len_.push_back(0);
      return nu;
    }
    if (KeyEquals(u, key)) return u;
  }
}

void FlatJoinTable::Grow() {
  std::vector<int64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, -1);
  const uint64_t mask = slots_.size() - 1;
  for (int64_t u = 0; u < num_keys_; ++u) {
    uint64_t s = Hash(&ukeys_[static_cast<size_t>(u) * kw_]) & mask;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = u;
  }
}

}  // namespace kernels
}  // namespace robustqp
