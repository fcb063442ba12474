#include "storage/hash_index.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "storage/table.h"

namespace robustqp {
namespace {

/// SplitMix64 finalizer over the raw key bits.
uint64_t HashKey(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

HashIndex::HashIndex(const Table& table, int column_idx)
    : column_idx_(column_idx) {
  const ColumnData& col = table.column(column_idx);
  RQP_CHECK(col.type() == DataType::kInt64);
  // Keys decode in block runs (a vbyte point read costs up to 64 varint
  // decodes).
  std::vector<int64_t> row_key(static_cast<size_t>(table.num_rows()));
  col.enc().DecodeRange(0, table.num_rows(), row_key.data());
  if (!BuildDense(row_key)) BuildHashed(std::move(row_key));
}

bool HashIndex::BuildDense(const std::vector<int64_t>& row_key) {
  if (row_key.empty()) return false;
  const auto [lo, hi] = std::minmax_element(row_key.begin(), row_key.end());
  const uint64_t span = static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  if (span >= static_cast<uint64_t>(kDenseRangeFactor) * row_key.size()) {
    return false;
  }
  min_key_ = *lo;
  dense_range_ = span + 1;
  dense_row_.assign(dense_range_ + 1, -1);
  for (size_t r = 0; r < row_key.size(); ++r) {
    int64_t& slot = dense_row_[DenseSlot(row_key[r])];
    if (slot >= 0) {  // a duplicate key: hashed layout
      std::vector<int64_t>().swap(dense_row_);
      return false;
    }
    slot = static_cast<int64_t>(r);
  }
  num_keys_ = static_cast<int64_t>(row_key.size());
  return true;
}

void HashIndex::BuildHashed(std::vector<int64_t> row_key) {
  const int64_t n = static_cast<int64_t>(row_key.size());
  // The table doubles whenever the distinct keys would pass 7/8 load, so
  // it ends sized for them rather than for the rows; build-once means no
  // tombstones.
  slots_.assign(64, Slot{0, -1});
  uint64_t mask = slots_.size() - 1;

  // Pass 1: intern keys (first-touch order), count rows per key, and
  // replace each row's key by its key ordinal.
  std::vector<int64_t> counts;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t key = row_key[static_cast<size_t>(r)];
    uint64_t s = HashKey(key) & mask;
    while (true) {
      Slot& slot = slots_[s];
      if (slot.ordinal < 0) {
        slot = {key, num_keys_};
        counts.push_back(1);
        row_key[static_cast<size_t>(r)] = num_keys_++;
        if (static_cast<uint64_t>(num_keys_ + 1) * 8 > slots_.size() * 7) {
          Rehash(slots_.size() * 2);
          mask = slots_.size() - 1;
        }
        break;
      }
      if (slot.key == key) {
        ++counts[static_cast<size_t>(slot.ordinal)];
        row_key[static_cast<size_t>(r)] = slot.ordinal;
        break;
      }
      s = (s + 1) & mask;
    }
  }

  // Pass 2: prefix sums -> per-key ranges, then place rows in scan order
  // so each key's ids stay ascending.
  offsets_.assign(static_cast<size_t>(num_keys_) + 1, 0);
  for (int64_t u = 0; u < num_keys_; ++u) {
    offsets_[static_cast<size_t>(u) + 1] =
        offsets_[static_cast<size_t>(u)] + counts[static_cast<size_t>(u)];
  }
  row_ids_.resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t u = row_key[static_cast<size_t>(r)];
    row_ids_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = r;
  }
}

void HashIndex::Rehash(size_t capacity) {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(capacity, Slot{0, -1}));
  const uint64_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.ordinal < 0) continue;
    uint64_t s = HashKey(slot.key) & mask;
    while (slots_[s].ordinal >= 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

int64_t HashIndex::FindSlot(int64_t key) const {
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t s = HashKey(key) & mask;; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.ordinal < 0 || slot.key == key) return slot.ordinal;
  }
}

RowIdSpan HashIndex::Lookup(int64_t key) const {
  if (dense()) {
    const int64_t* r = &dense_row_[DenseSlot(key)];
    return {r, *r >= 0};
  }
  if (num_keys_ == 0) return {};
  const int64_t u = FindSlot(key);
  if (u < 0) return {};
  const int64_t off = offsets_[static_cast<size_t>(u)];
  return {row_ids_.data() + off, offsets_[static_cast<size_t>(u) + 1] - off};
}

}  // namespace robustqp
