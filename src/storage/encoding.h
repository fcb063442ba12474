// Compressed columnar encodings. Columns are encoded as independently
// decodable blocks of kZoneBlockRows (4096) rows — the same granularity
// as the zone maps, so a pruned block is also a skipped decode and an
// aligned batch-engine morsel never straddles more than two blocks.
//
// Three compressed encodings, chosen per column, plus the uncompressed
// kRaw value block:
//
//  * *packed* — frame-of-reference bit-packing: each block stores its
//    minimum as the reference and every value as an unsigned delta in
//    the lane width of the block's range (bitpack::LaneWidthFor),
//    little-endian within 64-bit words that
//    start at a word boundary per block (O(1) point access by shift and
//    mask). Wraparound-safe over the full int64 domain: deltas are
//    computed in uint64 arithmetic, so INT64_MIN..INT64_MAX blocks simply
//    pack at width 64.
//  * *vbyte* — LEB128 varints of the same frame-of-reference deltas
//    (RDF-TDAA's adjacency-array trick), written only when a column forces
//    Encoding::kVbyte. A skip table every 64 values bounds point access to
//    at most 64 sequential varint decodes, so GetInt on a vbyte block
//    costs 1..64 decodes; GatherNumeric decodes a skip group once for all
//    the ascending rows it is asked for. No decode reads past the end of
//    the column's byte run, however corrupt a mapped payload is.
//  * *dictionary* — a column-level first-appearance-order dictionary with
//    bit-packed per-row codes (block width grows with the dictionary, so
//    early blocks stay narrow). Doubles are interned by *bit pattern*,
//    which keeps NaN payloads and -0.0 exactly round-trippable; value
//    semantics (NaN matches nothing, -0.0 == 0.0) are preserved because
//    predicates are evaluated against the decoded dictionary values.
//
// String columns are always dictionary-coded (there is no raw string
// layout), with an unbounded interned dictionary. Finish() derives the
// *lexicographic rank* of every dictionary entry; all numeric read APIs
// (GetDouble, DecodeInto, DictNumeric) then yield the rank, so zone maps,
// fused filter kernels and the execution engines operate on ordinary
// ordered integers. String predicates are translated once, at filter
// resolution, into exact rank-space comparisons (see
// StringLowerBoundRank / StringUpperBoundRank).
//
// The encoders are streaming: appends accumulate one staging block that
// is flushed when full, so generators can build 10^7..10^8-row columns
// without ever materializing the raw vector. `Encoding::kAuto` adapts as
// data arrives — start dictionary-coded, fall back (re-encoding the
// already-flushed blocks block-by-block) when the cardinality cap is
// exceeded, and then pack every block at the lane width of its own range.
// Double columns that are not dictionary-friendly fall back to kRaw
// value blocks the same way.
//
// Two out-of-core extensions (see storage/column_file.h):
//  * a *block sink* — attach with set_sink() before the first append and
//    finished payload runs (packed words / vbyte bytes) spill to the sink
//    as each block seals, keeping peak memory O(block + dictionary)
//    instead of O(column). Sink mode restricts the layouts to the ones
//    that never re-encode flushed blocks: strings keep the (unbounded)
//    dictionary, kAuto integers go lane-width packed directly, and
//    doubles use kRaw value blocks.
//  * a *mapped* read path — FromMapped() rebuilds a column whose payload
//    pointers alias an mmap'd column file: the block directory, skip
//    tables and dictionary are materialized (they are small), while the
//    payload words/bytes demand-page zero-copy into the same decode and
//    fused-filter kernels resident columns use.
//
// kRaw *blocks* hold one 64-bit word per row — int64 values verbatim,
// doubles bit-cast. They are the whole of the uncompressed layout: the
// forced kRaw policy, double columns whose dictionary overflowed, and
// sink-mode doubles all store them, resident and mapped alike. The filter
// kernels compare a kRaw block's words in place, with no decode copy.
//
// Everything here is physical-layer machinery. The execution engines
// charge scan_tuple / filter_in / filter_pass for every logical row of
// every block, encoded or not, so cost_used and all NodeStats are
// bit-identical to raw storage (see exec/kernels.h for the fused filter
// paths and the differential tests that enforce this).

#ifndef ROBUSTQP_STORAGE_ENCODING_H_
#define ROBUSTQP_STORAGE_ENCODING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"

namespace robustqp {

/// Physical column layout. kAuto is a *request* (adaptive choice); the
/// others force one layout. kRaw means uncompressed kRaw value blocks
/// (one 64-bit word per row).
enum class Encoding : uint8_t {
  kAuto,
  kRaw,
  kPacked,  // frame-of-reference bit-packing (int columns)
  kVbyte,   // frame-of-reference LEB128 varints (int columns)
  kDict,    // dictionary + bit-packed codes (int or double columns)
};

/// Stable lowercase name ("auto", "raw", "packed", "vbyte", "dict").
const char* EncodingName(Encoding e);

/// Parses an encoding token. Accepts the names above plus the CLI
/// conveniences on|1 -> auto and off|0|none -> raw. Returns false (and
/// leaves *out alone) on anything else.
bool ParseEncoding(const std::string& token, Encoding* out);

/// Per-table encoding choice applied by the streaming Table(schema, policy)
/// constructor. `kind` is the default for every column; `per_column`
/// overrides by column name. Auto consults the
/// same cardinality/range signals stats_builder reports: a column stays
/// dictionary-coded while its running distinct count is within
/// `dict_max_card`, otherwise integers pack every block at the lane width
/// of its range and doubles fall back to kRaw value blocks.
struct EncodingPolicy {
  Encoding kind = Encoding::kAuto;
  int64_t dict_max_card = 4096;
  std::map<std::string, Encoding> per_column;

  Encoding For(const std::string& column) const {
    auto it = per_column.find(column);
    return it == per_column.end() ? kind : it->second;
  }

  static EncodingPolicy Auto() { return EncodingPolicy{}; }
  static EncodingPolicy Raw() {
    EncodingPolicy p;
    p.kind = Encoding::kRaw;
    return p;
  }
};

// ---------------------------------------------------------------------------
// Bit-packing and vbyte primitives (exposed for tests and benchmarks)
// ---------------------------------------------------------------------------

namespace bitpack {

/// Bits needed to represent any value in [0, range]: 0 for range == 0,
/// else the position of range's highest set bit plus one (max 64).
int WidthFor(uint64_t range);

/// WidthFor rounded up to a *lane* width (0, 1, 2, 4, 8, 16, 32, 64).
/// Lane widths divide 64, so a packed code never straddles a word
/// boundary, and the 8/16/32/64 layouts are native little-endian
/// uint8/16/32/64 arrays — which is what lets the fused filter kernels
/// compare codes with auto-vectorized typed loops instead of per-element
/// bit extraction. The storage blocks always pack at lane widths; the
/// few wasted bits are the price of SIMD-able scans.
int LaneWidthFor(uint64_t range);

/// Appends ceil(n*width/64) fresh words to `*words` holding
/// codes[0..n) packed little-endian at bit i*width. width in [0, 64].
void Pack(const uint64_t* codes, int64_t n, int width,
          std::vector<uint64_t>* words);

/// Code at index `idx` of a word run packed with `Pack`.
inline uint64_t Extract(const uint64_t* words, int64_t idx, int width) {
  if (width == 0) return 0;
  const uint64_t bit = static_cast<uint64_t>(idx) * static_cast<uint64_t>(width);
  const uint64_t w0 = bit >> 6;
  const int shift = static_cast<int>(bit & 63);
  uint64_t v = words[w0] >> shift;
  if (shift + width > 64) v |= words[w0 + 1] << (64 - shift);
  return width == 64 ? v : (v & ((uint64_t{1} << width) - 1));
}

/// Unpacks codes [start, start+n) into out[0..n).
void Unpack(const uint64_t* words, int64_t start, int64_t n, int width,
            uint64_t* out);

}  // namespace bitpack

namespace vbyte {

/// Appends the LEB128 encoding of `v` to `*out` (1 to kMaxBytes bytes).
void Encode(uint64_t v, std::vector<uint8_t>* out);

/// Longest encoding of a uint64_t, in bytes.
inline constexpr int kMaxBytes = 10;

/// Decodes one varint at `p`, stores it in `*v`, returns the byte after.
/// Reads no byte at or past `end` and at most kMaxBytes bytes: a corrupt
/// varint yields the bits read so far, and `p == end` yields 0.
inline const uint8_t* Decode(const uint8_t* p, const uint8_t* end,
                             uint64_t* v) {
  uint64_t x = 0;
  int shift = 0;
  if (end - p >= kMaxBytes) {  // a whole varint fits: cap its length only
    while ((*p & 0x80u) && shift < 63) {
      x |= static_cast<uint64_t>(*p++ & 0x7fu) << shift;
      shift += 7;
    }
    *v = x | (static_cast<uint64_t>(*p) << shift);
    return p + 1;
  }
  for (; p < end && shift < 64; shift += 7) {  // the run's last bytes
    const uint8_t b = *p++;
    x |= static_cast<uint64_t>(b & 0x7fu) << shift;
    if ((b & 0x80u) == 0) break;
  }
  *v = x;
  return p;
}

/// Values per skip-table entry in vbyte blocks: point access decodes at
/// most this many varints.
inline constexpr int64_t kVbyteGroup = 64;

}  // namespace vbyte

// ---------------------------------------------------------------------------
// EncodedColumn
// ---------------------------------------------------------------------------

/// Destination for sealed payload runs when a column streams out-of-core;
/// offsets recorded in the block directory are global (across everything
/// already appended), so the sink only ever appends.
class BlockSink {
 public:
  virtual ~BlockSink() = default;
  virtual void AppendWords(const uint64_t* w, size_t n) = 0;
  virtual void AppendBytes(const uint8_t* b, size_t n) = 0;
};

/// One encoded column: a sequence of 4096-row blocks plus (for dictionary
/// mode) the column-level dictionary. Built by streaming appends and
/// sealed with Finish(); all read APIs are const, allocation-free and
/// thread-safe after that.
class EncodedColumn {
 public:
  /// Rows per encoded block. Equal to the zone-map block size by design;
  /// storage/table.h checks this.
  static constexpr int64_t kBlockRows = 4096;

  /// Directory entry for one sealed block. Public so the column-file
  /// layer can serialize and rebuild columns without re-encoding.
  struct Block {
    int64_t ref = 0;        // frame of reference (packed/vbyte)
    uint64_t range = 0;     // max unsigned delta (or max dict code)
    uint64_t word_off = 0;  // packed/dict/raw: first word in the word run
    uint64_t byte_off = 0;  // vbyte: first byte in the byte run
    uint64_t skip_off = 0;  // vbyte: first entry in the skip table
    int32_t rows = 0;
    Encoding kind = Encoding::kPacked;
    uint8_t width = 0;  // packed/dict code width in bits
  };

  EncodedColumn(DataType type, Encoding requested, int64_t dict_max_card);

  DataType type() const { return type_; }
  int64_t size() const { return num_rows_; }
  bool finished() const { return finished_; }

  /// Current column-level layout: kDict while dictionary-coded, kAuto for
  /// lane-width packed blocks, kPacked / kVbyte when forced, kRaw
  /// for kRaw value blocks (forced, sink-mode doubles, or a double column
  /// whose dictionary overflowed).
  Encoding mode() const { return mode_; }

  void AppendInt(int64_t v);
  void AppendDouble(double v);
  /// Interns `v` (unbounded dictionary) and appends its code. String
  /// columns only.
  void AppendString(const std::string& v);

  /// Attaches an out-of-core sink; must precede the first append. Switches
  /// the column to the sink-safe layouts documented in the header comment
  /// (no mid-stream re-encoding): kAuto integers become lane-width
  /// packed, doubles become kRaw value blocks, strings keep the
  /// dictionary. Requesting kDict for a numeric column with a sink is a
  /// caller error (overflow would need a re-encode of spilled blocks).
  void set_sink(BlockSink* sink);

  /// Rebuilds a column over an external (typically mmap'd) payload:
  /// `words` / `bytes` are aliased for the column's lifetime (counts are
  /// element counts, kept for footprint reporting; the caller keeps the
  /// mapping alive, see Table::Retain), while the block directory, skip
  /// tables and dictionaries are owned copies — they are small. The
  /// result is finished and read-only.
  static std::unique_ptr<EncodedColumn> FromMapped(
      DataType type, Encoding mode, std::vector<Block> blocks,
      int64_t num_rows, const uint64_t* words, uint64_t n_words,
      const uint8_t* bytes, uint64_t n_bytes, std::vector<uint64_t> skips,
      std::vector<int64_t> dict_i, std::vector<double> dict_d,
      std::vector<std::string> dict_s);

  /// Flushes the staging tail and seals the column.
  void Finish();

  // ---- Point access (valid after Finish) ----
  int64_t GetInt(int64_t row) const;
  double GetDouble(int64_t row) const;
  /// String value at `row` (string columns only).
  const std::string& GetString(int64_t row) const;

  // ---- Block / range decode (valid after Finish) ----
  int64_t num_blocks() const { return static_cast<int64_t>(blocks_.size()); }
  int64_t block_rows(int64_t b) const {
    return blocks_[static_cast<size_t>(b)].rows;
  }

  /// Scratch-free block decode: writes block_rows(b) values into `out`
  /// (caller-owned, no allocation here). The double overload casts int
  /// columns the same way ColumnData::GetNumeric does.
  void DecodeInto(int64_t b, int64_t* out) const;
  void DecodeInto(int64_t b, double* out) const;

  /// Decodes the row range [r0, r1) (may span blocks) into out[0..r1-r0).
  /// Packed and dictionary codes unpack through bitpack::Unpack's
  /// lane-width loops.
  void DecodeRange(int64_t r0, int64_t r1, int64_t* out) const;
  void DecodeRange(int64_t r0, int64_t r1, double* out) const;

  /// Batched row-id gather: out[j] = the ColumnData::GetNumeric value of
  /// row rows[j] (int values cast, doubles verbatim, dictionary entries,
  /// string ranks) for j in [0, n). Rows may come in any order and
  /// repeat. Each run of rows inside one block is decoded with the
  /// block's kind and code width dispatched once (a lone row between
  /// rows of other blocks takes the point read); a vbyte block decodes
  /// forward from a skip point once per skip group while the rows
  /// ascend, and restarts only when a row goes backwards or jumps to a
  /// later group. Ascending row lists — index fetches, filter survivors
  /// — therefore cost about one varint decode per row, not up to 64.
  void GatherNumeric(const int64_t* rows, int64_t n, double* out) const;

  // ---- Fused-kernel access ----

  /// Per-block code layout for the fused filter kernels. Valid for
  /// packed blocks, for every dictionary block (where codes index the
  /// dictionary and ref is 0) and for kRaw blocks (one value word per
  /// row). words is null for a packed or dictionary block of width 0
  /// (constant block: every code is 0).
  struct PackedView {
    const uint64_t* words;
    int width;
    int64_t ref;     // frame of reference (0 for dictionary codes)
    uint64_t range;  // max code: actual block range, not the width bound
    int64_t rows;
  };

  Encoding block_kind(int64_t b) const {
    return blocks_[static_cast<size_t>(b)].kind;
  }
  PackedView packed_view(int64_t b) const;

  /// Dictionary contents (dictionary mode only). Entry i decodes code i;
  /// every entry occurs in the column at least once (first-appearance
  /// interning), so dictionary extremes are column extremes.
  int64_t dict_size() const;
  /// Dictionary entry as the double the filter kernels compare with
  /// (int entries cast, double entries verbatim, string entries as their
  /// lexicographic rank — which is what makes rank-space predicates
  /// exact).
  double DictNumeric(int64_t code) const;
  int64_t DictInt(int64_t code) const {
    return dict_i_[static_cast<size_t>(code)];
  }
  double DictDouble(int64_t code) const {
    return dict_d_[static_cast<size_t>(code)];
  }
  const std::string& DictString(int64_t code) const {
    return dict_s_[static_cast<size_t>(code)];
  }

  bool is_string() const { return type_ == DataType::kString; }

  /// True for columns built by FromMapped (payload aliases a mapping).
  /// The batch engine uses this to decide which scans draw the
  /// storage.page_fault site.
  bool is_mapped() const { return mapped_; }

  // ---- Rank-space translation (string columns, valid after Finish) ----

  /// Lowest rank whose dictionary string is >= s; dict_size() when none.
  int64_t StringLowerBoundRank(const std::string& s) const;
  /// Lowest rank whose dictionary string is > s; dict_size() when none.
  int64_t StringUpperBoundRank(const std::string& s) const;
  /// The string of rank r (r in [0, dict_size())).
  const std::string& StringOfRank(int64_t r) const {
    return dict_s_[sorted_codes_[static_cast<size_t>(r)]];
  }
  /// The lexicographic rank of dictionary code c.
  int64_t RankOfCode(int64_t c) const {
    return rank_of_code_[static_cast<size_t>(c)];
  }

  /// Encoded footprint in bytes (payload + dictionary + block directory +
  /// skip tables). Mapped payloads count too: the footprint is what the
  /// file backs, whether or not it is currently paged in.
  size_t MemoryBytes() const;

  // ---- Serialization access (resident finished columns; the column-file
  // writer reads these verbatim) ----
  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<uint64_t>& payload_words() const { return words_; }
  const std::vector<uint8_t>& payload_bytes() const { return bytes_; }
  const std::vector<uint64_t>& skip_table() const { return skips_; }
  const std::vector<int64_t>& dict_ints() const { return dict_i_; }
  const std::vector<double>& dict_doubles() const { return dict_d_; }
  const std::vector<std::string>& dict_strings() const { return dict_s_; }

 private:
  void FlushStage();
  /// End of the vbyte byte run (resident or mapped); no read passes it.
  const uint8_t* byte_end() const { return bp_ + bytes_.size() + ext_bytes_; }
  /// GatherNumeric for rows[0..n), all inside the block starting at row
  /// `base`.
  void GatherBlock(const Block& blk, int64_t base, const int64_t* rows,
                   int64_t n, double* out) const;
  /// Decodes vbyte block `blk` from the skip point of in-block index i's
  /// group through index i: stores value i's delta in *delta and returns
  /// the byte after it.
  const uint8_t* VbyteSeek(const Block& blk, int64_t i,
                           uint64_t* delta) const;
  /// DecodeRange for both output types.
  template <typename T>
  void DecodeRangeAs(int64_t r0, int64_t r1, T* out) const;
  /// Sink mode: spills the in-memory payload tails to the sink and clears
  /// them, keeping the global offsets in flushed_words_ / flushed_bytes_.
  void SpillToSink();
  /// Sorts the string dictionary into rank order (rank_of_code_ /
  /// sorted_codes_); called by Finish and FromMapped.
  void BuildStringRanks();
  void EncodeRawBlock(const void* v, int64_t n);
  /// At Finish of a kAuto int column: drop the dictionary when
  /// frame-of-reference codes would be no wider than dictionary codes
  /// (packed is then strictly smaller and fused-filters faster).
  void MaybeDemoteDictToPacked();
  /// Frame-of-reference block: varints when the column forces kVbyte,
  /// lane-width packed codes otherwise.
  void EncodeFrameBlock(const int64_t* v, int64_t n);
  void EncodeDictCodeBlock(const uint32_t* codes, int64_t n);
  /// Dictionary cardinality cap exceeded: re-encode flushed blocks
  /// block-by-block (bounded extra memory), switch ints to lane-width
  /// packed blocks and doubles to kRaw value blocks.
  void AbandonDict();

  DataType type_;
  Encoding requested_;
  Encoding mode_;
  int64_t dict_cap_;
  int64_t num_rows_ = 0;
  bool finished_ = false;
  bool mapped_ = false;  // payload aliases an external mapping (FromMapped)

  // Staging for the block being built: values in non-dict modes, codes in
  // dictionary mode (the dictionary itself holds the values).
  std::vector<int64_t> stage_i_;
  std::vector<uint32_t> stage_c_;
  std::vector<double> stage_d_;  // kRaw-mode doubles

  std::vector<Block> blocks_;
  std::vector<uint64_t> words_;  // packed/dict/raw payloads (word-aligned)
  std::vector<uint8_t> bytes_;   // vbyte payloads
  std::vector<uint64_t> skips_;  // vbyte skip tables (absolute byte offsets)

  // Read-side payload pointers. Finish() aims them at the vectors above;
  // FromMapped() aims them into the mapping. Every read path goes through
  // these, which is the whole of the resident/mapped distinction.
  const uint64_t* wp_ = nullptr;
  const uint8_t* bp_ = nullptr;
  const uint64_t* sp_ = nullptr;

  // Out-of-core sink state: payload runs already spilled (global offsets
  // continue from these counts).
  BlockSink* sink_ = nullptr;
  uint64_t flushed_words_ = 0;
  uint64_t flushed_bytes_ = 0;

  // Mapped payload element counts (FromMapped), for footprint reporting.
  uint64_t ext_words_ = 0;
  uint64_t ext_bytes_ = 0;

  std::vector<int64_t> dict_i_;
  std::vector<double> dict_d_;
  std::vector<std::string> dict_s_;
  std::unordered_map<uint64_t, uint32_t> dict_map_;  // value bits -> code
  std::unordered_map<std::string, uint32_t> dict_smap_;  // string -> code

  // String rank order (built at Finish): rank_of_code_[code] is the
  // lexicographic rank of the code's string, sorted_codes_[rank] its
  // inverse.
  std::vector<uint32_t> rank_of_code_;
  std::vector<uint32_t> sorted_codes_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_STORAGE_ENCODING_H_
