#include "storage/encoding.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/status.h"

namespace robustqp {

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kAuto:
      return "auto";
    case Encoding::kRaw:
      return "raw";
    case Encoding::kPacked:
      return "packed";
    case Encoding::kVbyte:
      return "vbyte";
    case Encoding::kDict:
      return "dict";
  }
  return "auto";
}

bool ParseEncoding(const std::string& token, Encoding* out) {
  if (token == "auto" || token == "on" || token == "1") {
    *out = Encoding::kAuto;
  } else if (token == "raw" || token == "off" || token == "0" ||
             token == "none") {
    *out = Encoding::kRaw;
  } else if (token == "packed") {
    *out = Encoding::kPacked;
  } else if (token == "vbyte") {
    *out = Encoding::kVbyte;
  } else if (token == "dict" || token == "dictionary") {
    *out = Encoding::kDict;
  } else {
    return false;
  }
  return true;
}

namespace bitpack {

int WidthFor(uint64_t range) {
  int w = 0;
  while (range != 0) {
    ++w;
    range >>= 1;
  }
  return w;
}

int LaneWidthFor(uint64_t range) {
  const int w = WidthFor(range);
  for (int lane : {0, 1, 2, 4, 8, 16, 32}) {
    if (w <= lane) return lane;
  }
  return 64;
}

void Pack(const uint64_t* codes, int64_t n, int width,
          std::vector<uint64_t>* words) {
  if (width == 0 || n <= 0) return;
  const size_t base = words->size();
  const uint64_t total_bits =
      static_cast<uint64_t>(n) * static_cast<uint64_t>(width);
  words->resize(base + static_cast<size_t>((total_bits + 63) / 64), 0);
  uint64_t* w = words->data() + base;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const uint64_t w0 = bit >> 6;
    const int shift = static_cast<int>(bit & 63);
    w[w0] |= codes[i] << shift;
    if (shift + width > 64) w[w0 + 1] |= codes[i] >> (64 - shift);
  }
}

void Unpack(const uint64_t* words, int64_t start, int64_t n, int width,
            uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, uint64_t{0});
    return;
  }
  // Lane-width fast paths: 8/16/32/64-bit codes are native little-endian
  // arrays (the per-element memcpy compiles to a plain load and the
  // widening loops auto-vectorize); 1/2/4-bit codes sit whole inside one
  // byte. Arbitrary widths (tests, external callers) fall through to
  // generic bit extraction.
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  switch (width) {
    case 8:
      for (int64_t i = 0; i < n; ++i) out[i] = bytes[start + i];
      return;
    case 16:
      for (int64_t i = 0; i < n; ++i) {
        uint16_t v;
        std::memcpy(&v, bytes + (start + i) * 2, sizeof(v));
        out[i] = v;
      }
      return;
    case 32:
      for (int64_t i = 0; i < n; ++i) {
        uint32_t v;
        std::memcpy(&v, bytes + (start + i) * 4, sizeof(v));
        out[i] = v;
      }
      return;
    case 64:
      for (int64_t i = 0; i < n; ++i) out[i] = words[start + i];
      return;
    case 1:
    case 2:
    case 4: {
      const int per = 8 / width;
      const uint8_t mask = static_cast<uint8_t>((1u << width) - 1);
      for (int64_t i = 0; i < n; ++i) {
        const int64_t lane = start + i;
        out[i] = static_cast<uint64_t>(
            (bytes[lane / per] >> ((lane % per) * width)) & mask);
      }
      return;
    }
    default:
      for (int64_t i = 0; i < n; ++i) out[i] = Extract(words, start + i, width);
  }
}

}  // namespace bitpack

namespace vbyte {

void Encode(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

}  // namespace vbyte

namespace {

uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

}  // namespace

EncodedColumn::EncodedColumn(DataType type, Encoding requested,
                             int64_t dict_max_card)
    : type_(type),
      requested_(requested),
      dict_cap_(std::max<int64_t>(1, dict_max_card)) {
  if (type_ == DataType::kString) {
    // Strings are always dictionary-coded (unbounded: the cardinality cap
    // governs only the numeric auto policy) — the dictionary is what
    // provides the rank order every numeric consumer sees.
    mode_ = Encoding::kDict;
  } else if (requested == Encoding::kRaw) {
    mode_ = Encoding::kRaw;  // kRaw value blocks: one 64-bit word per row
  } else if (type_ == DataType::kDouble) {
    // Doubles have no frame-of-reference layout; anything but dictionary
    // falls back to kRaw value blocks (AbandonDict).
    mode_ = Encoding::kDict;
  } else if (requested == Encoding::kAuto || requested == Encoding::kDict) {
    mode_ = Encoding::kDict;
  } else {
    mode_ = requested;  // forced kPacked / kVbyte
  }
}

void EncodedColumn::set_sink(BlockSink* sink) {
  RQP_CHECK(num_rows_ == 0 && !finished_);
  sink_ = sink;
  // Sink-safe layouts only: nothing that could re-encode spilled blocks.
  if (type_ == DataType::kInt64) {
    RQP_CHECK(requested_ != Encoding::kDict);
    if (mode_ == Encoding::kDict) mode_ = Encoding::kAuto;
  } else if (type_ == DataType::kDouble) {
    RQP_CHECK(requested_ != Encoding::kDict);
    mode_ = Encoding::kRaw;  // one 64-bit word per value
  }
  // Strings keep the unbounded dictionary; it never abandons.
}

void EncodedColumn::AppendInt(int64_t v) {
  RQP_CHECK(!finished_ && type_ == DataType::kInt64);
  if (mode_ == Encoding::kDict) {
    const uint64_t bits = static_cast<uint64_t>(v);
    auto it = dict_map_.find(bits);
    if (it == dict_map_.end()) {
      if (static_cast<int64_t>(dict_i_.size()) >= dict_cap_) {
        AbandonDict();
        stage_i_.push_back(v);
      } else {
        const uint32_t code = static_cast<uint32_t>(dict_i_.size());
        dict_i_.push_back(v);
        dict_map_.emplace(bits, code);
        stage_c_.push_back(code);
      }
    } else {
      stage_c_.push_back(it->second);
    }
  } else {
    stage_i_.push_back(v);
  }
  ++num_rows_;
  if (static_cast<int64_t>(stage_i_.size() + stage_c_.size()) >= kBlockRows) {
    FlushStage();
  }
}

void EncodedColumn::AppendDouble(double v) {
  RQP_CHECK(!finished_ && type_ == DataType::kDouble);
  if (mode_ == Encoding::kDict) {
    const uint64_t bits = DoubleBits(v);
    auto it = dict_map_.find(bits);
    if (it == dict_map_.end()) {
      if (static_cast<int64_t>(dict_d_.size()) >= dict_cap_) {
        AbandonDict();
        stage_d_.push_back(v);
      } else {
        const uint32_t code = static_cast<uint32_t>(dict_d_.size());
        dict_d_.push_back(v);
        dict_map_.emplace(bits, code);
        stage_c_.push_back(code);
      }
    } else {
      stage_c_.push_back(it->second);
    }
  } else {
    stage_d_.push_back(v);  // kRaw value blocks
  }
  ++num_rows_;
  if (static_cast<int64_t>(stage_c_.size() + stage_d_.size()) >= kBlockRows) {
    FlushStage();
  }
}

void EncodedColumn::AppendString(const std::string& v) {
  RQP_CHECK(!finished_ && type_ == DataType::kString);
  auto it = dict_smap_.find(v);
  if (it == dict_smap_.end()) {
    const uint32_t code = static_cast<uint32_t>(dict_s_.size());
    dict_s_.push_back(v);
    dict_smap_.emplace(v, code);
    stage_c_.push_back(code);
  } else {
    stage_c_.push_back(it->second);
  }
  ++num_rows_;
  if (static_cast<int64_t>(stage_c_.size()) >= kBlockRows) FlushStage();
}

void EncodedColumn::Finish() {
  if (finished_) return;
  MaybeDemoteDictToPacked();
  FlushStage();
  finished_ = true;
  dict_map_.clear();
  dict_smap_.clear();
  words_.shrink_to_fit();
  bytes_.shrink_to_fit();
  skips_.shrink_to_fit();
  blocks_.shrink_to_fit();
  dict_i_.shrink_to_fit();
  dict_d_.shrink_to_fit();
  dict_s_.shrink_to_fit();
  wp_ = words_.data();
  bp_ = bytes_.data();
  sp_ = skips_.data();
  if (type_ == DataType::kString) BuildStringRanks();
}

void EncodedColumn::MaybeDemoteDictToPacked() {
  // kAuto int columns start dictionary-coded because cardinality is
  // unknown up front; once the column is complete the tradeoff is
  // decidable. When frame-of-reference codes are no wider than the
  // dictionary codes, packing is strictly smaller (same lane bytes, no
  // dictionary array) and scans faster — the fused filter compares code
  // lanes directly instead of gathering through a pass bitmap. Sparse
  // domains, where the value range needs wider lanes than the
  // cardinality, keep the dictionary.
  if (mode_ != Encoding::kDict || type_ != DataType::kInt64 ||
      requested_ != Encoding::kAuto || dict_i_.empty()) {
    return;
  }
  int64_t lo = dict_i_[0], hi = dict_i_[0];
  for (int64_t v : dict_i_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const uint64_t max_code = static_cast<uint64_t>(dict_i_.size()) - 1;
  if (bitpack::LaneWidthFor(range) <= bitpack::LaneWidthFor(max_code)) {
    AbandonDict();
  }
}

void EncodedColumn::FlushStage() {
  if (mode_ == Encoding::kDict) {
    if (!stage_c_.empty()) {
      EncodeDictCodeBlock(stage_c_.data(),
                          static_cast<int64_t>(stage_c_.size()));
      stage_c_.clear();
    }
  } else if (mode_ == Encoding::kRaw) {
    if (!stage_i_.empty()) {
      EncodeRawBlock(stage_i_.data(), static_cast<int64_t>(stage_i_.size()));
      stage_i_.clear();
    }
    if (!stage_d_.empty()) {
      EncodeRawBlock(stage_d_.data(), static_cast<int64_t>(stage_d_.size()));
      stage_d_.clear();
    }
  } else if (!stage_i_.empty()) {
    EncodeFrameBlock(stage_i_.data(), static_cast<int64_t>(stage_i_.size()));
    stage_i_.clear();
  }
  SpillToSink();
}

void EncodedColumn::SpillToSink() {
  if (sink_ == nullptr) return;
  if (!words_.empty()) {
    sink_->AppendWords(words_.data(), words_.size());
    flushed_words_ += words_.size();
    words_.clear();
  }
  if (!bytes_.empty()) {
    sink_->AppendBytes(bytes_.data(), bytes_.size());
    flushed_bytes_ += bytes_.size();
    bytes_.clear();
  }
}

void EncodedColumn::EncodeRawBlock(const void* v, int64_t n) {
  Block blk;
  blk.kind = Encoding::kRaw;
  blk.rows = static_cast<int32_t>(n);
  blk.width = 64;
  blk.word_off = flushed_words_ + words_.size();
  const size_t base = words_.size();
  words_.resize(base + static_cast<size_t>(n));
  std::memcpy(words_.data() + base, v, static_cast<size_t>(n) * sizeof(uint64_t));
  blocks_.push_back(blk);
}

void EncodedColumn::EncodeFrameBlock(const int64_t* v, int64_t n) {
  int64_t lo = v[0], hi = v[0];
  for (int64_t i = 1; i < n; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  const uint64_t uref = static_cast<uint64_t>(lo);
  std::vector<uint64_t> deltas(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    deltas[static_cast<size_t>(i)] = static_cast<uint64_t>(v[i]) - uref;
  }
  Block blk;
  blk.rows = static_cast<int32_t>(n);
  blk.ref = lo;
  blk.range = static_cast<uint64_t>(hi) - uref;
  // Only a forced kVbyte column writes varints. kAuto packs at lane width
  // even where varints would be a few percent smaller: packed codes are
  // O(1) point reads and feed the fused filter kernels, varints neither.
  if (mode_ == Encoding::kVbyte) {
    blk.kind = Encoding::kVbyte;
    blk.byte_off = flushed_bytes_ + bytes_.size();
    blk.skip_off = skips_.size();
    for (int64_t i = 0; i < n; ++i) {
      if (i % vbyte::kVbyteGroup == 0) {
        skips_.push_back(flushed_bytes_ + bytes_.size());
      }
      vbyte::Encode(deltas[static_cast<size_t>(i)], &bytes_);
    }
  } else {
    blk.kind = Encoding::kPacked;
    blk.width = static_cast<uint8_t>(bitpack::LaneWidthFor(blk.range));
    blk.word_off = flushed_words_ + words_.size();
    bitpack::Pack(deltas.data(), n, blk.width, &words_);
  }
  blocks_.push_back(blk);
}

void EncodedColumn::EncodeDictCodeBlock(const uint32_t* codes, int64_t n) {
  uint64_t maxcode = 0;
  std::vector<uint64_t> wide(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    wide[static_cast<size_t>(i)] = codes[i];
    maxcode = std::max<uint64_t>(maxcode, codes[i]);
  }
  Block blk;
  blk.kind = Encoding::kDict;
  blk.rows = static_cast<int32_t>(n);
  blk.ref = 0;
  blk.range = maxcode;
  blk.width = static_cast<uint8_t>(bitpack::LaneWidthFor(maxcode));
  blk.word_off = flushed_words_ + words_.size();
  if (blk.width > 0) bitpack::Pack(wide.data(), n, blk.width, &words_);
  blocks_.push_back(blk);
}

void EncodedColumn::AbandonDict() {
  // Re-encoding flushed blocks is impossible once their payload has been
  // spilled; set_sink() restricts layouts so this can never fire.
  RQP_CHECK(sink_ == nullptr);
  // Re-encode the already-flushed dictionary blocks one block at a time
  // so the transient memory cost stays one block, not the whole column.
  std::vector<Block> old_blocks;
  std::vector<uint64_t> old_words;
  old_blocks.swap(blocks_);
  old_words.swap(words_);
  const bool ints = type_ == DataType::kInt64;
  // Only kAuto and kDict columns start dictionary-coded.
  mode_ = ints ? Encoding::kAuto : Encoding::kRaw;
  std::vector<int64_t> tmp_i(ints ? static_cast<size_t>(kBlockRows) : 0);
  std::vector<double> tmp_d(ints ? 0 : static_cast<size_t>(kBlockRows));
  for (const Block& blk : old_blocks) {
    const uint64_t* w = old_words.data() + blk.word_off;
    if (ints) {
      for (int64_t i = 0; i < blk.rows; ++i) {
        tmp_i[static_cast<size_t>(i)] =
            dict_i_[bitpack::Extract(w, i, blk.width)];
      }
      EncodeFrameBlock(tmp_i.data(), blk.rows);
    } else {
      for (int64_t i = 0; i < blk.rows; ++i) {
        tmp_d[static_cast<size_t>(i)] =
            dict_d_[bitpack::Extract(w, i, blk.width)];
      }
      EncodeRawBlock(tmp_d.data(), blk.rows);
    }
  }
  // Staging codes become staged values.
  if (ints) {
    stage_i_.reserve(stage_c_.size() + 1);
    for (uint32_t c : stage_c_) stage_i_.push_back(dict_i_[c]);
  } else {
    stage_d_.reserve(stage_c_.size() + 1);
    for (uint32_t c : stage_c_) stage_d_.push_back(dict_d_[c]);
  }
  stage_c_.clear();
  stage_c_.shrink_to_fit();
  dict_i_.clear();
  dict_i_.shrink_to_fit();
  dict_d_.clear();
  dict_d_.shrink_to_fit();
  dict_map_.clear();
}

int64_t EncodedColumn::GetInt(int64_t row) const {
  const int64_t b = row / kBlockRows;
  const int64_t i = row % kBlockRows;
  const Block& blk = blocks_[static_cast<size_t>(b)];
  switch (blk.kind) {
    case Encoding::kDict:
      return dict_i_[bitpack::Extract(wp_ + blk.word_off, i, blk.width)];
    case Encoding::kPacked:
      return static_cast<int64_t>(
          static_cast<uint64_t>(blk.ref) +
          bitpack::Extract(wp_ + blk.word_off, i, blk.width));
    case Encoding::kRaw:
      return static_cast<int64_t>(wp_[blk.word_off + static_cast<uint64_t>(i)]);
    default: {  // kVbyte
      uint64_t delta = 0;
      VbyteSeek(blk, i, &delta);
      return static_cast<int64_t>(static_cast<uint64_t>(blk.ref) + delta);
    }
  }
}

const uint8_t* EncodedColumn::VbyteSeek(const Block& blk, int64_t i,
                                        uint64_t* delta) const {
  const int64_t g = i / vbyte::kVbyteGroup;
  const uint8_t* p = bp_ + sp_[blk.skip_off + static_cast<uint64_t>(g)];
  const uint8_t* end = byte_end();
  for (int64_t k = g * vbyte::kVbyteGroup; k <= i; ++k) {
    p = vbyte::Decode(p, end, delta);
  }
  return p;
}

double EncodedColumn::GetDouble(int64_t row) const {
  const int64_t b = row / kBlockRows;
  const int64_t i = row % kBlockRows;
  const Block& blk = blocks_[static_cast<size_t>(b)];
  if (type_ == DataType::kString) {
    return static_cast<double>(
        rank_of_code_[bitpack::Extract(wp_ + blk.word_off, i, blk.width)]);
  }
  if (blk.kind == Encoding::kRaw) {
    const uint64_t w = wp_[blk.word_off + static_cast<uint64_t>(i)];
    double d;
    std::memcpy(&d, &w, sizeof(d));
    return d;
  }
  return dict_d_[bitpack::Extract(wp_ + blk.word_off, i, blk.width)];
}

const std::string& EncodedColumn::GetString(int64_t row) const {
  const int64_t b = row / kBlockRows;
  const int64_t i = row % kBlockRows;
  const Block& blk = blocks_[static_cast<size_t>(b)];
  return dict_s_[bitpack::Extract(wp_ + blk.word_off, i, blk.width)];
}

namespace {

/// Calls fn(i, code) for each in-block index i in [i0, i1) of a packed
/// code run, unpacking through bitpack::Unpack's lane-width loops a stack
/// buffer at a time.
template <typename Fn>
void ForEachCode(const uint64_t* words, int width, int64_t i0, int64_t i1,
                 Fn&& fn) {
  constexpr int64_t kChunk = 256;
  uint64_t codes[kChunk];
  for (int64_t c0 = i0; c0 < i1; c0 += kChunk) {
    const int64_t m = std::min(kChunk, i1 - c0);
    bitpack::Unpack(words, c0, m, width, codes);
    for (int64_t j = 0; j < m; ++j) fn(c0 + j, codes[j]);
  }
}

/// Calls fn(j, code) for j in [0, n) with the code at in-block index
/// rows[j] - base of a packed code run. The width switch runs once per
/// call; lane widths 8/16/32/64 are typed loads and 1/2/4-bit codes sit
/// whole inside one byte (see bitpack::LaneWidthFor).
template <typename Fn>
void ForGatheredCodes(const uint64_t* words, int width, const int64_t* rows,
                      int64_t n, int64_t base, Fn&& fn) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  switch (width) {
    case 0:
      for (int64_t j = 0; j < n; ++j) fn(j, uint64_t{0});
      return;
    case 8:
      for (int64_t j = 0; j < n; ++j) fn(j, uint64_t{bytes[rows[j] - base]});
      return;
    case 16:
      for (int64_t j = 0; j < n; ++j) {
        uint16_t v;
        std::memcpy(&v, bytes + (rows[j] - base) * 2, sizeof(v));
        fn(j, uint64_t{v});
      }
      return;
    case 32:
      for (int64_t j = 0; j < n; ++j) {
        uint32_t v;
        std::memcpy(&v, bytes + (rows[j] - base) * 4, sizeof(v));
        fn(j, uint64_t{v});
      }
      return;
    case 64:
      for (int64_t j = 0; j < n; ++j) fn(j, words[rows[j] - base]);
      return;
    case 1:
    case 2:
    case 4: {
      const int per = 8 / width;
      const uint8_t mask = static_cast<uint8_t>((1u << width) - 1);
      for (int64_t j = 0; j < n; ++j) {
        const int64_t lane = rows[j] - base;
        fn(j, static_cast<uint64_t>(
                  (bytes[lane / per] >> ((lane % per) * width)) & mask));
      }
      return;
    }
    default:
      for (int64_t j = 0; j < n; ++j) {
        fn(j, bitpack::Extract(words, rows[j] - base, width));
      }
  }
}

}  // namespace

void EncodedColumn::DecodeInto(int64_t b, int64_t* out) const {
  DecodeRangeAs(b * kBlockRows, b * kBlockRows + block_rows(b), out);
}

void EncodedColumn::DecodeInto(int64_t b, double* out) const {
  DecodeRangeAs(b * kBlockRows, b * kBlockRows + block_rows(b), out);
}

void EncodedColumn::DecodeRange(int64_t r0, int64_t r1, int64_t* out) const {
  DecodeRangeAs(r0, r1, out);
}

void EncodedColumn::DecodeRange(int64_t r0, int64_t r1, double* out) const {
  DecodeRangeAs(r0, r1, out);
}

template <typename T>
void EncodedColumn::DecodeRangeAs(int64_t r0, int64_t r1, T* out) const {
  while (r0 < r1) {
    const int64_t b = r0 / kBlockRows;
    const Block& blk = blocks_[static_cast<size_t>(b)];
    const int64_t base = b * kBlockRows;
    const int64_t i0 = r0 - base;
    const int64_t i1 = std::min<int64_t>(r1 - base, blk.rows);
    T* o = out - i0;
    const uint64_t* w = wp_ + blk.word_off;
    if (type_ == DataType::kString) {
      ForEachCode(w, blk.width, i0, i1, [&](int64_t i, uint64_t c) {
        o[i] = static_cast<T>(rank_of_code_[c]);
      });
    } else if (type_ == DataType::kDouble) {
      // Double columns decode into doubles only (their values need not
      // fit an int64).
      if constexpr (std::is_same_v<T, double>) {
        if (blk.kind == Encoding::kRaw) {
          std::memcpy(o + i0, w + i0,
                      static_cast<size_t>(i1 - i0) * sizeof(double));
        } else {
          ForEachCode(w, blk.width, i0, i1,
                      [&](int64_t i, uint64_t c) { o[i] = dict_d_[c]; });
        }
      } else {
        RQP_CHECK(false);
      }
    } else {
      const uint64_t uref = static_cast<uint64_t>(blk.ref);
      const auto put = [o](int64_t i, uint64_t v) {
        o[i] = static_cast<T>(static_cast<int64_t>(v));
      };
      if (blk.kind == Encoding::kRaw) {
        for (int64_t i = i0; i < i1; ++i) put(i, w[i]);
      } else if (blk.kind == Encoding::kDict) {
        ForEachCode(w, blk.width, i0, i1,
                    [&](int64_t i, uint64_t c) { put(i, dict_i_[c]); });
      } else if (blk.kind == Encoding::kPacked) {
        ForEachCode(w, blk.width, i0, i1,
                    [&](int64_t i, uint64_t c) { put(i, uref + c); });
      } else {  // kVbyte: seek to row i0, then one varint per row
        uint64_t delta = 0;
        const uint8_t* p = VbyteSeek(blk, i0, &delta);
        const uint8_t* end = byte_end();
        put(i0, uref + delta);
        for (int64_t i = i0 + 1; i < i1; ++i) {
          p = vbyte::Decode(p, end, &delta);
          put(i, uref + delta);
        }
      }
    }
    out += i1 - i0;
    r0 = base + i1;
  }
}

void EncodedColumn::GatherNumeric(const int64_t* rows, int64_t n,
                                  double* out) const {
  const bool ints = type_ == DataType::kInt64;
  // Row ids are non-negative, so two share a block iff they agree above
  // the in-block bits.
  const auto same_block = [](int64_t a, int64_t b) {
    return static_cast<uint64_t>(a ^ b) < static_cast<uint64_t>(kBlockRows);
  };
  int64_t j = 0;
  while (j < n) {
    // Lone rows (ids scattered across blocks) take the point read, which
    // is cheaper than setting up a block run.
    for (; j + 1 < n && !same_block(rows[j], rows[j + 1]); ++j) {
      out[j] = ints ? static_cast<double>(GetInt(rows[j])) : GetDouble(rows[j]);
    }
    int64_t j1 = j + 1;
    while (j1 < n && same_block(rows[j], rows[j1])) ++j1;
    const int64_t b = rows[j] / kBlockRows;
    GatherBlock(blocks_[static_cast<size_t>(b)], b * kBlockRows, rows + j,
                j1 - j, out + j);
    j = j1;
  }
}

void EncodedColumn::GatherBlock(const Block& blk, int64_t base,
                                const int64_t* rows, int64_t n,
                                double* out) const {
  const uint64_t* w = wp_ + blk.word_off;
  if (type_ == DataType::kString) {
    ForGatheredCodes(w, blk.width, rows, n, base, [&](int64_t j, uint64_t c) {
      out[j] = static_cast<double>(rank_of_code_[c]);
    });
    return;
  }
  const bool dbl = type_ == DataType::kDouble;
  switch (blk.kind) {
    case Encoding::kRaw:
      if (dbl) {
        for (int64_t j = 0; j < n; ++j) {
          std::memcpy(&out[j], w + (rows[j] - base), sizeof(double));
        }
      } else {
        for (int64_t j = 0; j < n; ++j) {
          out[j] = static_cast<double>(static_cast<int64_t>(w[rows[j] - base]));
        }
      }
      return;
    case Encoding::kDict:
      if (dbl) {
        ForGatheredCodes(w, blk.width, rows, n, base,
                         [&](int64_t j, uint64_t c) { out[j] = dict_d_[c]; });
      } else {
        ForGatheredCodes(w, blk.width, rows, n, base,
                         [&](int64_t j, uint64_t c) {
                           out[j] = static_cast<double>(dict_i_[c]);
                         });
      }
      return;
    case Encoding::kPacked: {
      const uint64_t uref = static_cast<uint64_t>(blk.ref);
      ForGatheredCodes(w, blk.width, rows, n, base, [&](int64_t j, uint64_t c) {
        out[j] = static_cast<double>(static_cast<int64_t>(uref + c));
      });
      return;
    }
    default: {  // kVbyte
      const uint64_t uref = static_cast<uint64_t>(blk.ref);
      const uint8_t* end = byte_end();
      const uint8_t* p = nullptr;
      int64_t at = -1;  // in-block index of the value in `delta`
      uint64_t delta = 0;
      for (int64_t j = 0; j < n; ++j) {
        const int64_t i = rows[j] - base;
        if (at < 0 || i < at ||
            i / vbyte::kVbyteGroup != at / vbyte::kVbyteGroup) {
          p = VbyteSeek(blk, i, &delta);
          at = i;
        }
        while (at < i) {
          p = vbyte::Decode(p, end, &delta);
          ++at;
        }
        out[j] = static_cast<double>(static_cast<int64_t>(uref + delta));
      }
      return;
    }
  }
}

EncodedColumn::PackedView EncodedColumn::packed_view(int64_t b) const {
  const Block& blk = blocks_[static_cast<size_t>(b)];
  PackedView v;
  // kRaw blocks hold their values whatever the directory's width says.
  v.words = blk.width > 0 || blk.kind == Encoding::kRaw ? wp_ + blk.word_off
                                                         : nullptr;
  v.width = blk.width;
  v.ref = blk.kind == Encoding::kDict ? 0 : blk.ref;
  v.range = blk.range;
  v.rows = blk.rows;
  return v;
}

int64_t EncodedColumn::dict_size() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<int64_t>(dict_i_.size());
    case DataType::kDouble:
      return static_cast<int64_t>(dict_d_.size());
    case DataType::kString:
      return static_cast<int64_t>(dict_s_.size());
  }
  return 0;
}

double EncodedColumn::DictNumeric(int64_t code) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(dict_i_[static_cast<size_t>(code)]);
    case DataType::kDouble:
      return dict_d_[static_cast<size_t>(code)];
    case DataType::kString:
      return static_cast<double>(rank_of_code_[static_cast<size_t>(code)]);
  }
  return 0.0;
}

void EncodedColumn::BuildStringRanks() {
  const size_t n = dict_s_.size();
  sorted_codes_.resize(n);
  for (size_t i = 0; i < n; ++i) sorted_codes_[i] = static_cast<uint32_t>(i);
  std::sort(sorted_codes_.begin(), sorted_codes_.end(),
            [this](uint32_t a, uint32_t b) { return dict_s_[a] < dict_s_[b]; });
  rank_of_code_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    rank_of_code_[sorted_codes_[r]] = static_cast<uint32_t>(r);
  }
}

int64_t EncodedColumn::StringLowerBoundRank(const std::string& s) const {
  int64_t lo = 0, hi = static_cast<int64_t>(sorted_codes_.size());
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (StringOfRank(mid) < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int64_t EncodedColumn::StringUpperBoundRank(const std::string& s) const {
  int64_t lo = 0, hi = static_cast<int64_t>(sorted_codes_.size());
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (StringOfRank(mid) <= s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::unique_ptr<EncodedColumn> EncodedColumn::FromMapped(
    DataType type, Encoding mode, std::vector<Block> blocks, int64_t num_rows,
    const uint64_t* words, uint64_t n_words, const uint8_t* bytes,
    uint64_t n_bytes, std::vector<uint64_t> skips, std::vector<int64_t> dict_i,
    std::vector<double> dict_d, std::vector<std::string> dict_s) {
  auto col = std::make_unique<EncodedColumn>(type, Encoding::kAuto, 1);
  col->mode_ = mode;
  col->mapped_ = true;
  col->blocks_ = std::move(blocks);
  col->num_rows_ = num_rows;
  col->finished_ = true;
  col->wp_ = words;
  col->ext_words_ = n_words;
  col->bp_ = bytes;
  col->ext_bytes_ = n_bytes;
  col->skips_ = std::move(skips);
  col->sp_ = col->skips_.data();
  col->dict_i_ = std::move(dict_i);
  col->dict_d_ = std::move(dict_d);
  col->dict_s_ = std::move(dict_s);
  if (type == DataType::kString) col->BuildStringRanks();
  return col;
}

size_t EncodedColumn::MemoryBytes() const {
  size_t dict_str = dict_s_.size() * sizeof(std::string);
  for (const auto& s : dict_s_) dict_str += s.size();
  return (words_.size() + flushed_words_ + ext_words_) * sizeof(uint64_t) +
         bytes_.size() + flushed_bytes_ + ext_bytes_ +
         skips_.size() * sizeof(uint64_t) +
         blocks_.size() * sizeof(Block) + dict_i_.size() * sizeof(int64_t) +
         dict_d_.size() * sizeof(double) + dict_str +
         (rank_of_code_.size() + sorted_codes_.size()) * sizeof(uint32_t) +
         stage_i_.size() * sizeof(int64_t) + stage_d_.size() * sizeof(double) +
         stage_c_.size() * sizeof(uint32_t);
}

}  // namespace robustqp
