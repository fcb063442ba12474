// In-memory columnar storage. A Table owns one column per schema entry;
// every column's payload is an EncodedColumn (storage/encoding.h) of
// independently decodable 4096-row blocks: frame-of-reference
// bit-packing, vbyte varints, dictionary codes, or kRaw value blocks
// (one 64-bit word per row, the uncompressed layout). Per-row consumers
// go through GetInt / GetDouble / GetNumeric; the Volcano executor's
// scans decode whole blocks (EncodedColumn::DecodeInto), and the batch
// engine's kernels additionally use the block views for fused
// filter-on-compressed paths. This plays the role of the
// heap/buffer-pool layer of the paper's PostgreSQL substrate — the
// discovery algorithms only need a scannable relation with countable
// cardinalities, which this provides at laptop scale (and, encoded, at
// 10^7..10^8-row scale).
//
// Finalize() additionally builds per-block *zone maps* (min/max over
// kZoneBlockRows-row blocks, in GetNumeric double semantics) for every
// column. The batch engine's scan kernels use them to skip blocks that
// cannot satisfy (or that trivially satisfy) a filter predicate; the
// logical cost accounting still charges pruned blocks as scanned, so zone
// maps — like compression — are a pure physical-layer speedup.
//
// A table's layout is fixed at construction: Table(schema, policy)
// streams appended values straight into each column's encoder one block
// at a time, so no column is ever materialized as a plain vector;
// Table(schema) is the kRaw policy.

#ifndef ROBUSTQP_STORAGE_TABLE_H_
#define ROBUSTQP_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/encoding.h"

namespace robustqp {

/// Rows per zone-map block. A multiple of the batch engine's morsel width
/// so aligned morsels fall inside a single block, and equal to the
/// encoded-block size so zone-map pruning skips whole decodes.
inline constexpr int64_t kZoneBlockRows = 4096;
static_assert(kZoneBlockRows == EncodedColumn::kBlockRows,
              "zone-map and encoded blocks must stay aligned");

/// Rows per shard chunk (src/shard): the unit of scatter-gather
/// distribution. A whole multiple of the zone-map block so chunk
/// boundaries never split a block — per-chunk zone summaries are then
/// exact folds of the block summaries, and chunk-local scans reuse the
/// block-aligned batch grid unchanged.
inline constexpr int64_t kShardChunkBlocks = 8;
inline constexpr int64_t kShardChunkRows = kShardChunkBlocks * kZoneBlockRows;

/// Per-block min/max summary of one column, over GetNumeric() values
/// (i.e. int64 columns are summarized after the double cast the filter
/// kernels compare with). NaN values are excluded from min/max and
/// tracked in `has_nan` instead: a NaN row satisfies no comparison, so it
/// can never turn a no-row-matches block into a match, but it does veto
/// every-row-matches claims. A block containing only NaNs (or an empty
/// tail block) keeps min=+inf > max=-inf, which classifies as
/// unsatisfiable for every operator — exactly right.
struct ZoneMap {
  std::vector<double> min;       // per block
  std::vector<double> max;       // per block
  std::vector<uint8_t> has_nan;  // per block (double columns only)

  int64_t num_blocks() const { return static_cast<int64_t>(min.size()); }
};

/// A single column of values, held as one EncodedColumn.
class ColumnData {
 public:
  /// Streaming-encoded column: appends go straight into the encoder
  /// (kRaw value blocks by default). String columns are always
  /// dictionary-encoded, whatever `encoding` says (EncodedColumn's rule).
  explicit ColumnData(DataType type, Encoding encoding = Encoding::kRaw,
                      int64_t dict_max_card = 1);

  DataType type() const { return type_; }
  int64_t size() const { return enc_->size(); }

  const EncodedColumn& enc() const { return *enc_; }

  void AppendInt(int64_t v) { enc_->AppendInt(v); }
  void AppendDouble(double v) { enc_->AppendDouble(v); }
  void AppendString(const std::string& v) { enc_->AppendString(v); }

  int64_t GetInt(int64_t row) const { return enc_->GetInt(row); }
  double GetDouble(int64_t row) const { return enc_->GetDouble(row); }
  /// String value (string columns only).
  const std::string& GetString(int64_t row) const {
    return enc_->GetString(row);
  }

  /// Value as double regardless of storage type (used by stats and
  /// predicate evaluation). String columns yield the lexicographic rank,
  /// which is what makes rank-space predicates exact (see
  /// storage/encoding.h).
  double GetNumeric(int64_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(GetInt(row))
                                     : GetDouble(row);
  }

  /// Seals the encoder (no-op once sealed).
  void FinishEncoding() { enc_->Finish(); }

  /// Logical payload footprint in bytes (values + dictionaries + block
  /// directories; excludes the zone map, which every layout shares).
  size_t MemoryBytes() const { return enc_->MemoryBytes(); }

  /// The zone map, valid after Table::Finalize() (empty before).
  const ZoneMap& zones() const { return zones_; }

  /// Chunk-granularity zone summary (one entry per kShardChunkRows rows),
  /// folded from the block zone map. Valid after Table::Finalize(); the
  /// shard layer uses it to prune whole chunks before scattering them.
  const ZoneMap& chunk_zones() const { return chunk_zones_; }

  /// (Re)builds the zone map (and its chunk-granularity fold) over the
  /// current values. Called by Table::Finalize(); exposed for tests.
  void BuildZoneMap();

  /// Adopts a finished encoded column together with precomputed zone maps
  /// (the mapped open path: zones come from the column file, so nothing
  /// is decoded — and nothing paged in — at open time).
  void AdoptEncoded(std::unique_ptr<EncodedColumn> enc, ZoneMap zones,
                    ZoneMap chunk_zones);

 private:
  DataType type_;
  std::unique_ptr<EncodedColumn> enc_;
  ZoneMap zones_;
  ZoneMap chunk_zones_;
};

/// An immutable (once built) columnar table.
class Table {
 public:
  /// Uncompressed table: the kRaw policy (kRaw value blocks; strings
  /// are dictionary-coded regardless).
  explicit Table(TableSchema schema);
  /// Streaming-encoded table: every column encodes per `policy` as rows
  /// are appended.
  Table(TableSchema schema, const EncodingPolicy& policy);

  const TableSchema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }

  ColumnData& column(int idx) { return *columns_[static_cast<size_t>(idx)]; }
  const ColumnData& column(int idx) const {
    return *columns_[static_cast<size_t>(idx)];
  }

  /// Validates that all columns have equal length, records the row count,
  /// seals any streaming encoders, and builds every column's zone map.
  /// Must be called after bulk-appending values.
  Status Finalize();

  /// Seals a table assembled from adopted (already-finished) columns:
  /// validates lengths and records the row count, but neither re-encodes
  /// nor rebuilds zone maps — the mapped open path supplies those from
  /// the column file, and decoding here would page the whole file in.
  Status FinalizeAdopted();

  /// Keeps `r` alive for the table's lifetime (the mmap backing an
  /// adopted column's payload pointers).
  void Retain(std::shared_ptr<void> r) { retained_.push_back(std::move(r)); }

  /// True when any column's payload aliases a mapping (OpenMappedTable):
  /// scans of this table are subject to the storage.page_fault site.
  bool IsMapped() const {
    for (const auto& c : columns_) {
      if (c->enc().is_mapped()) return true;
    }
    return false;
  }

  /// Total column payload bytes (MemoryBytes over all columns).
  size_t MemoryBytes() const;

 private:
  TableSchema schema_;
  std::vector<std::unique_ptr<ColumnData>> columns_;
  std::vector<std::shared_ptr<void>> retained_;
  int64_t num_rows_ = 0;
};

}  // namespace robustqp

#endif  // ROBUSTQP_STORAGE_TABLE_H_
