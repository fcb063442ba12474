// Data-parallel scan/join kernels shared by the execution engines.
//
// Everything here is physical-layer machinery: branch-free filter kernels
// producing selection vectors, zone-map block classification, bulk
// gathers, and a cache-friendly flat open-addressing join hash table.
// None of it changes what gets counted — callers charge the cost ledger
// and NodeStats exactly as if every row had been touched, so `cost_used`
// and all MSO accounting stay bit-identical to the tuple engine (the
// paper's PCM argument constrains logical cost, not physical speed).
//
// Filter kernels come in two shapes, chosen by estimated selectivity:
//
//  * the *sparse* path writes surviving row ids with the classic
//    branch-free `sel[w] = r; w += pred(r)` store, which wins when few
//    rows pass (the store traffic is proportional to survivors);
//  * the *dense* path evaluates the predicate into a byte mask with a
//    tight auto-vectorizable loop and compacts the mask afterwards,
//    which wins when most rows pass (the predicate loop has no
//    loop-carried dependency, so the compiler can SIMD it).
//
// Every column is block-encoded (storage/encoding.h), which adds a third
// axis — how much to decode before filtering:
//
//  * *in place* for kRaw value blocks: the predicate runs over the
//    block's words directly (int64 verbatim, doubles bit-cast), with no
//    decode copy;
//  * *filter-on-compressed* for frame-of-reference packed blocks: when
//    the predicate constant maps exactly into unsigned code space
//    (MapPredicateToCodes — sound only while block values and constant
//    are within ±2^53, where the int64->double cast is exact), compare
//    the stored code lanes directly and never materialize values. Blocks
//    pack at lane widths (bitpack::LaneWidthFor), so 8/16/32/64-bit
//    codes are native arrays the compare loop SIMDs over at lane
//    granularity, and survivors are emitted from the byte mask with
//    zero-word skipping (eight rows per test when nothing passes);
//  * *dictionary-predicate rewrite*: evaluate the predicate once per
//    dictionary entry into a pass bitmap (cached in FilterScratch), then
//    filter rows by code-lane lookup — O(cardinality) predicate work per
//    (column, predicate) instead of O(rows);
//  * *decode-then-filter* fallback for vbyte blocks and unmappable
//    constants: block-decode into scratch, then the value kernels above.
//
// All paths produce bit-identical selection vectors to a scalar loop
// over the values by construction; exec_batch_test differential fuzz and
// storage_encoding_test enforce it.
//
// The flat join table stores unique keys in open-addressed slots (linear
// probing, power-of-two capacity, build-once so no tombstones) with
// insertion-ordered entry chains per key, matching the tuple engine's
// unordered_map<key, vector<Row>> emission order. The probe is split into
// a vectorized hash+bucket-lookup pass over a whole batch and a scalar
// verify/emit pass.

#ifndef ROBUSTQP_EXEC_KERNELS_H_
#define ROBUSTQP_EXEC_KERNELS_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "storage/table.h"

namespace robustqp {
namespace kernels {

// ---------------------------------------------------------------------------
// Zone-map classification
// ---------------------------------------------------------------------------

/// What a zone map can prove about `col OP value` over a row range.
enum class ZoneMatch {
  kNone,  // no row in the range can satisfy the predicate
  kAll,   // every row in the range satisfies the predicate
  kSome,  // undecided: evaluate the rows
};

/// Classifies rows [r0, r1) of `col` against the predicate using the
/// column's zone map. Conservative: only returns kNone/kAll when the
/// block summaries prove it (NaN data rows veto kAll; a NaN literal
/// satisfies nothing and classifies kNone). Returns kSome when the
/// column has no zone map (table not finalized).
ZoneMatch ClassifyZones(const ColumnData& col, CompareOp op, double value,
                        int64_t r0, int64_t r1);

// ---------------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------------

/// One cached dictionary-rewrite result: the predicate evaluated over
/// every dictionary entry of one encoded column.
struct DictPassEntry {
  const void* column = nullptr;  // identity of the EncodedColumn
  CompareOp op = CompareOp::kLt;
  uint64_t value_bits = 0;       // exact constant identity (NaN-safe)
  std::vector<uint8_t> pass;     // per dictionary code: 1 iff it passes
};

/// Scratch buffers reused across kernel calls (one per execution thread).
struct FilterScratch {
  std::vector<uint8_t> mask;
  std::vector<uint8_t> lanes;        // 1/2/4-bit codes widened to bytes
  std::vector<int64_t> decoded_i;    // decode-then-filter staging
  std::vector<double> decoded_d;
  std::vector<DictPassEntry> dict_pass;  // small MRU cache
};

/// Selectivity above which FilterRange takes the dense (byte-mask) path.
/// Below it, the sparse branch-free store does proportionally less work.
inline constexpr double kDensePathSelectivity = 0.20;

/// Writes the ids of rows in [r0, r1) satisfying `col OP value` into
/// `*sel` (overwritten, resized to the survivor count). `est_selectivity`
/// picks the dense vs sparse variant; pass a running observed pass rate,
/// or 0.5 when unknown. Returns the survivor count.
///
/// kRaw blocks are filtered in place whatever `fused` says. Compressed
/// blocks take the fused filter-on-compressed / dictionary rewrite paths
/// when `fused` is true and the exactness conditions hold, and
/// decode-then-filter otherwise; the selection vector is identical
/// either way (`fused` exists for differential testing and as the
/// Executor::Options::use_compression toggle).
int64_t FilterRange(const ColumnData& col, CompareOp op, double value,
                    int64_t r0, int64_t r1, double est_selectivity,
                    std::vector<int64_t>* sel, FilterScratch* scratch,
                    bool fused = true);

/// Compacts `*sel` in place to the ids satisfying `col OP value`
/// (branch-free). The survivors' values are gathered through
/// EncodedColumn::GatherNumeric into `scratch` first (a local buffer when
/// null). Returns the new count.
int64_t FilterRefine(const ColumnData& col, CompareOp op, double value,
                     std::vector<int64_t>* sel,
                     FilterScratch* scratch = nullptr);

// ---------------------------------------------------------------------------
// Fused filters over encoded blocks
// ---------------------------------------------------------------------------

/// `x OP value` translated into frame-of-reference code space: the block
/// stores codes with x = ref + code, so the comparison becomes a pure
/// unsigned compare against `u`.
struct CodePred {
  enum class Kind { kNone, kAll, kLt, kGe, kEq };
  Kind kind = Kind::kNone;
  uint64_t u = 0;
};

/// Maps `(double)x OP value` into code space for a block with the given
/// frame of reference and range. Returns false when the mapping cannot be
/// proven exact — block values or constant outside ±2^53 (where the
/// int64 -> double cast starts rounding) — in which case the caller must
/// decode-then-filter. A NaN constant maps to kNone, and constants
/// outside the block's value range collapse to kNone / kAll.
bool MapPredicateToCodes(CompareOp op, double value, int64_t ref,
                         uint64_t range, CodePred* out);

/// Rank-space translation of a string predicate (see storage/encoding.h):
/// rewrites `col OP literal` into the equivalent numeric comparison over
/// the column's lexicographic ranks, done once at filter resolution. The
/// rewrite is exact — ranks are small integers, every boundary is a
/// representable double — so the ordinary numeric kernels (including the
/// fused dictionary/packed paths) evaluate string filters with no special
/// casing. A predicate no rank satisfies comes back as `rank < 0`.
void MapStringPredicate(const EncodedColumn& enc, CompareOp op,
                        const std::string& literal, CompareOp* out_op,
                        double* out_value);

/// Fused filter over one packed (or dictionary-code) block: compares
/// bit-unpacked codes against the mapped constant without materializing
/// values. Writes surviving absolute row ids (base_row + in-block index,
/// for in-block indices [i0, i1)) to out[0..count); returns the count, or
/// -1 when MapPredicateToCodes declines (caller falls back to decode).
int64_t FilterPackedInt64(const EncodedColumn::PackedView& view,
                          int64_t base_row, int64_t i0, int64_t i1,
                          CompareOp op, double value, double est_selectivity,
                          int64_t* out, FilterScratch* scratch);

// ---------------------------------------------------------------------------
// Gather kernels
// ---------------------------------------------------------------------------

/// Overwrites `*out` with col[sel[0..n)] as doubles (GetNumeric
/// semantics), through EncodedColumn::GatherNumeric, which decodes a
/// block run of row ids at a time.
void Gather(const ColumnData& col, const int64_t* sel, int64_t n,
            std::vector<double>* out);

/// Gather into caller-owned out[0..n).
void GatherInto(const ColumnData& col, const int64_t* sel, int64_t n,
                double* out);

/// Compacts the parallel arrays a[0..n) and b[0..n) in place to the
/// positions j where `vals[j] OP value` holds, keeping their order
/// (branch-free, op dispatched once). Returns the kept count.
int64_t CompactWhere(const double* vals, CompareOp op, double value,
                     int64_t n, int64_t* a, int64_t* b);

/// Overwrites `*out` with col[r0..r1) as doubles.
void GatherRange(const ColumnData& col, int64_t r0, int64_t r1,
                 std::vector<double>* out);

// ---------------------------------------------------------------------------
// Flat open-addressing join hash table
// ---------------------------------------------------------------------------

/// Build-once hash table for join build sides: open-addressed unique-key
/// slots, per-key insertion-ordered entry chains, column-major payloads.
/// Double equality matches the tuple engine's vector<double> comparison:
/// NaN never matches (not even itself), ±0.0 are equal.
class FlatJoinTable {
 public:
  void Init(int key_width, int payload_width);

  int key_width() const { return kw_; }
  int64_t num_keys() const { return num_keys_; }

  void Insert(const double* key, const double* payload);

  /// Unique-key ordinal, or -1 when the key is absent.
  int64_t Find(const double* key) const;

  /// Batch probe at any key width: `keys` holds n keys row-major
  /// (key_width() values each); writes each key's unique-key ordinal (or
  /// -1) into `out[0..n)`. Split into a hash pass and a bucket-resolve
  /// pass so the probe walk runs without re-deriving hashes.
  void FindBatch(const double* keys, int64_t n, int64_t* out,
                 std::vector<uint64_t>* hash_scratch) const;

  int64_t ChainHead(int64_t u) const { return head_[static_cast<size_t>(u)]; }
  int64_t ChainNext(int64_t e) const { return next_[static_cast<size_t>(e)]; }
  int64_t ChainLen(int64_t u) const {
    return chain_len_[static_cast<size_t>(u)];
  }
  double Payload(size_t col, int64_t e) const {
    return pay_[col][static_cast<size_t>(e)];
  }

 private:
  uint64_t Hash(const double* key) const;
  bool KeyEquals(int64_t u, const double* key) const;
  int64_t FindOrAddKey(const double* key);
  void Grow();

  int kw_ = 1;
  std::vector<double> ukeys_;                     // kw_ values per unique key
  std::vector<int64_t> head_, tail_, chain_len_;  // per unique key
  std::vector<int64_t> next_;                     // per entry
  std::vector<std::vector<double>> pay_;          // per payload col, per entry
  std::vector<int64_t> slots_;
  int64_t num_keys_ = 0;
};

}  // namespace kernels
}  // namespace robustqp

#endif  // ROBUSTQP_EXEC_KERNELS_H_
