// On-disk column files: the serialized form of one table's encoded
// columns, zone maps and statistics, written once and reopened mmap'd so
// scans demand-page payload blocks zero-copy into the same decode and
// fused-filter kernels resident columns use (storage/encoding.h).
//
// File layout (little-endian throughout):
//
//   +--------+------------------------------------------+--------+------+
//   | magic  | payload: per column, 8-aligned word run  | footer | tail |
//   | 8 bytes|   then byte run                          | blob   | 32 B |
//   +--------+------------------------------------------+--------+------+
//
//  * payload — for each column in schema order, its packed/dict/raw word
//    run (aligned to 8 bytes so mapped uint64 access is natural) followed
//    by its vbyte byte run. Block directories hold offsets *into the
//    column's own runs*, so the payload bytes are identical whether the
//    column was written resident or streamed through a sink.
//  * footer blob — everything small: schema (names + types), per-column
//    run extents, block directories, skip tables, dictionaries, zone
//    maps (block + chunk granularity) and ColumnStats. Parsed with a
//    bounds-checked cursor: any truncation or corruption surfaces as a
//    clean Status, never a crash.
//  * tail (fixed 32 bytes) — footer offset, footer length, FNV-1a hash
//    of the footer blob (the same checksum discipline as ess_io), and a
//    closing magic. Load verifies all four before trusting a single
//    footer byte; payload runs are additionally bounds-checked against
//    the payload region.
//
// Writers come in two shapes:
//
//  * WriteTableFile — serializes a finalized resident table (plus its
//    stats) verbatim; reopening the file mapped reproduces scans
//    bit-identically, which the resident-vs-mmap differential tests
//    lean on.
//  * TableFileStreamWriter — row-streaming build for catalogs that never
//    fit in memory: values append straight into sink-mode encoders whose
//    sealed blocks spill to per-column temporary files (O(block + dict)
//    memory), while zone maps and statistics accumulate incrementally
//    (StreamingColumnStats). Finish() concatenates the spill files into
//    the final payload and writes the footer.
//
// OpenMappedTable maps the file and rebuilds a Table whose columns alias
// the mapping (EncodedColumn::FromMapped), with zone maps and stats taken
// from the footer — nothing decodes at open, so opening a 10^8-row
// catalog touches a few footer pages, not gigabytes.

#ifndef ROBUSTQP_STORAGE_COLUMN_FILE_H_
#define ROBUSTQP_STORAGE_COLUMN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/column_stats.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "storage/encoding.h"
#include "storage/stats_builder.h"
#include "storage/table.h"

namespace robustqp {

/// How a catalog's table payloads are held. Purely physical: plans,
/// cost_used and every NodeStat are bit-identical across backends (the
/// differential tests enforce it).
enum class StorageBackend : uint8_t {
  kResident,  // payloads in anonymous memory (the default)
  kMmap,      // payloads demand-paged from column files
};

const char* StorageBackendName(StorageBackend b);
bool ParseStorageBackend(const std::string& token, StorageBackend* out);

/// Serializes a finalized table (each column's blocks verbatim, zone
/// maps) and its statistics to `path`. Every column is already
/// block-addressed — uncompressed columns as kRaw value blocks — so
/// nothing is re-encoded on the way out.
Status WriteTableFile(const Table& table, const std::vector<ColumnStats>& stats,
                      const std::string& path);

/// Row-streaming column-file writer (see header comment). Usage:
///   TableFileStreamWriter w(schema, policy);
///   RQP_RETURN_NOT_OK(w.Open(path));
///   for each row: w.AppendInt/AppendDouble/AppendString per column;
///   RQP_RETURN_NOT_OK(w.Finish());
class TableFileStreamWriter {
 public:
  TableFileStreamWriter(TableSchema schema, EncodingPolicy policy);
  ~TableFileStreamWriter();

  /// Creates `path` and the per-column spill temporaries next to it.
  Status Open(const std::string& path);

  void AppendInt(int col, int64_t v);
  void AppendDouble(int col, double v);
  void AppendString(int col, const std::string& v);

  int64_t rows_appended() const { return rows_; }

  /// Flushes, assembles the final file, removes the temporaries.
  Status Finish();

  /// High-water mark of the writer's transient memory (encoder staging +
  /// dictionaries + zone/stat accumulators), for the bounded-RSS
  /// assertions in the scale tests.
  size_t PeakMemoryBytes() const { return peak_bytes_; }

 private:
  struct ColumnState;

  void NoteUsage();

  TableSchema schema_;
  EncodingPolicy policy_;
  std::string path_;
  std::vector<std::unique_ptr<ColumnState>> cols_;
  int64_t rows_ = 0;
  size_t peak_bytes_ = 0;
  bool open_ = false;
};

/// A table opened from a column file, plus everything the catalog needs.
struct MappedTable {
  std::shared_ptr<Table> table;
  std::vector<ColumnStats> stats;
};

/// Maps `path` and rebuilds the table it holds (payloads aliased into the
/// mapping, zone maps and stats from the footer). Fails with a clean
/// Status on any truncation, checksum mismatch or malformed metadata.
Status OpenMappedTable(const std::string& path, MappedTable* out);

}  // namespace robustqp

#endif  // ROBUSTQP_STORAGE_COLUMN_FILE_H_
