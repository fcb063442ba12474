#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace robustqp {

ColumnData::ColumnData(DataType type, Encoding encoding, int64_t dict_max_card)
    : type_(type),
      enc_(std::make_unique<EncodedColumn>(type, encoding, dict_max_card)) {}

void ColumnData::AdoptEncoded(std::unique_ptr<EncodedColumn> enc,
                              ZoneMap zones, ZoneMap chunk_zones) {
  RQP_CHECK(enc != nullptr && enc->finished());
  enc_ = std::move(enc);
  zones_ = std::move(zones);
  chunk_zones_ = std::move(chunk_zones);
}

void ColumnData::BuildZoneMap() {
  const int64_t n = size();
  const int64_t blocks = (n + kZoneBlockRows - 1) / kZoneBlockRows;
  zones_.min.assign(static_cast<size_t>(blocks),
                    std::numeric_limits<double>::infinity());
  zones_.max.assign(static_cast<size_t>(blocks),
                    -std::numeric_limits<double>::infinity());
  zones_.has_nan.assign(static_cast<size_t>(blocks), 0);
  std::vector<double> decoded(static_cast<size_t>(kZoneBlockRows));
  for (int64_t b = 0; b < blocks; ++b) {
    enc_->DecodeInto(b, decoded.data());
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    bool nan = false;
    for (int64_t r = 0; r < enc_->block_rows(b); ++r) {
      const double x = decoded[static_cast<size_t>(r)];
      nan |= std::isnan(x);
      // NaN fails both comparisons, so min/max skip it implicitly.
      lo = x < lo ? x : lo;
      hi = x > hi ? x : hi;
    }
    if (type_ == DataType::kDouble) {
      zones_.has_nan[static_cast<size_t>(b)] = nan ? 1 : 0;
    }
    zones_.min[static_cast<size_t>(b)] = lo;
    zones_.max[static_cast<size_t>(b)] = hi;
  }

  // Fold block summaries into chunk summaries. Chunks are whole multiples
  // of blocks, so the fold is exact: a chunk's min/max/has_nan is the
  // min/max/or over its blocks (empty tail blocks keep min > max, which
  // folds away harmlessly).
  const int64_t chunks = (n + kShardChunkRows - 1) / kShardChunkRows;
  chunk_zones_.min.assign(static_cast<size_t>(chunks),
                          std::numeric_limits<double>::infinity());
  chunk_zones_.max.assign(static_cast<size_t>(chunks),
                          -std::numeric_limits<double>::infinity());
  chunk_zones_.has_nan.assign(static_cast<size_t>(chunks), 0);
  for (int64_t b = 0; b < blocks; ++b) {
    const size_t c = static_cast<size_t>(b / kShardChunkBlocks);
    chunk_zones_.min[c] =
        std::min(chunk_zones_.min[c], zones_.min[static_cast<size_t>(b)]);
    chunk_zones_.max[c] =
        std::max(chunk_zones_.max[c], zones_.max[static_cast<size_t>(b)]);
    chunk_zones_.has_nan[c] |= zones_.has_nan[static_cast<size_t>(b)];
  }
}

Table::Table(TableSchema schema)
    : Table(std::move(schema), EncodingPolicy::Raw()) {}

Table::Table(TableSchema schema, const EncodingPolicy& policy)
    : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_.push_back(std::make_unique<ColumnData>(
        schema_.column(i).type, policy.For(schema_.column(i).name),
        policy.dict_max_card));
  }
}

Status Table::Finalize() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::OK();
  }
  for (const auto& col : columns_) col->FinishEncoding();
  const int64_t n = columns_[0]->size();
  for (const auto& col : columns_) {
    if (col->size() != n) {
      return Status::Internal("table '" + schema_.name() +
                              "' has ragged columns");
    }
  }
  num_rows_ = n;
  for (const auto& col : columns_) col->BuildZoneMap();
  return Status::OK();
}

Status Table::FinalizeAdopted() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::OK();
  }
  const int64_t n = columns_[0]->size();
  for (const auto& col : columns_) {
    if (col->size() != n) {
      return Status::Internal("table '" + schema_.name() +
                              "' has ragged columns");
    }
  }
  num_rows_ = n;
  return Status::OK();
}

size_t Table::MemoryBytes() const {
  size_t total = 0;
  for (const auto& col : columns_) total += col->MemoryBytes();
  return total;
}

}  // namespace robustqp
