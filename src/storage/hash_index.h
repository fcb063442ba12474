// In-memory hash index over one integer column: the access path behind
// the engine's index nested-loop joins. Dimension-table keys get indexed
// by the workload generators, giving the optimizer the plan class that
// dominates at tiny selectivities and collapses at large ones — a major
// source of POSP diversity across the ESS (the paper's PostgreSQL
// substrate relies on index paths the same way).
//
// The build picks one of two layouts from the data; both answer Lookup
// with the same ascending row ids, so the choice is physical only.
//
//  * Dense: every key is unique and the key range is narrow
//    (max - min < kDenseRangeFactor * rows), as for the serial keys every
//    catalog indexes (key == row + 1). The index keeps one array,
//    dense_row_[key - min] = the row id or -1, plus a trailing -1 that
//    every out-of-range key reads; a probe is one subtraction, one
//    compare and one load.
//  * Hashed: every other column (duplicate or sparse keys). Flat open
//    addressing (linear probing, a power-of-two capacity sized for the
//    distinct keys at <= 7/8 load, build-once so no tombstones) over
//    unique keys, each slot holding the key beside its ordinal, with
//    each key's row ids stored as one contiguous
//    [offset, offset+count) range of a single flat array — a probe is
//    one hash, a short probe walk that compares keys in the slots
//    themselves, and a pointer+length, with no per-key heap node or
//    per-value indirection.

#ifndef ROBUSTQP_STORAGE_HASH_INDEX_H_
#define ROBUSTQP_STORAGE_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace robustqp {

class Table;

/// Non-owning view of one key's row ids (ascending). Iterable; empty when
/// the key is absent.
struct RowIdSpan {
  const int64_t* ids = nullptr;
  int64_t count = 0;

  bool empty() const { return count == 0; }
  int64_t size() const { return count; }
  const int64_t* begin() const { return ids; }
  const int64_t* end() const { return ids + count; }
  int64_t operator[](int64_t i) const { return ids[i]; }
};

/// Equality index: value -> row ids. Immutable after construction.
class HashIndex {
 public:
  /// A column of unique keys gets the dense layout when its key range
  /// (max - min) is below this many times its row count.
  static constexpr int64_t kDenseRangeFactor = 4;

  /// Builds over `column_idx` of `table` (must be an INT64 column).
  HashIndex(const Table& table, int column_idx);

  int column_idx() const { return column_idx_; }

  /// Row ids whose column value equals `key`, ascending; empty when none.
  /// A dense index answers with a span of length 0 or 1 into dense_row_.
  RowIdSpan Lookup(int64_t key) const;

  /// True when the build chose the dense layout: every key owns at most
  /// one row, and DenseRow answers a probe.
  bool dense() const { return !dense_row_.empty(); }

  /// Dense layout only: the row holding `key`, or -1 when none.
  int64_t DenseRow(int64_t key) const { return dense_row_[DenseSlot(key)]; }

  int64_t distinct_keys() const { return num_keys_; }

 private:
  /// Index into dense_row_: key - min in unsigned arithmetic (no signed
  /// overflow at INT64_MIN / INT64_MAX), or the trailing -1 when the key
  /// falls outside the range.
  uint64_t DenseSlot(int64_t key) const {
    const uint64_t off =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key_);
    return off < dense_range_ ? off : dense_range_;
  }
  /// Chooses the dense layout when the keys allow it; false otherwise.
  bool BuildDense(const std::vector<int64_t>& row_key);
  void BuildHashed(std::vector<int64_t> row_key);
  /// Moves the hashed layout's keys into `capacity` (a power of two) slots.
  void Rehash(size_t capacity);
  int64_t FindSlot(int64_t key) const;  // ordinal of key, or -1

  int column_idx_;
  int64_t num_keys_ = 0;
  // Dense layout.
  int64_t min_key_ = 0;
  uint64_t dense_range_ = 0;        // max - min + 1
  std::vector<int64_t> dense_row_;  // dense_range_ + 1 entries, or empty
  // Hashed layout.
  struct Slot {
    int64_t key;
    int64_t ordinal;  // unique-key ordinal, -1 when the slot is empty
  };
  std::vector<Slot> slots_;
  std::vector<int64_t> offsets_;  // per unique key, num_keys_+1 entries
  std::vector<int64_t> row_ids_;  // all rows, grouped by key, ascending
};

}  // namespace robustqp

#endif  // ROBUSTQP_STORAGE_HASH_INDEX_H_
