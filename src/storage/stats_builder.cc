#include "storage/stats_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace robustqp {
namespace {

ColumnStats ComputeColumnStats(const ColumnData& col) {
  ColumnStats stats;
  const int64_t n = col.size();
  stats.row_count = n;
  if (n == 0) return stats;

  // NaN rows are excluded before sorting (NaN breaks the comparator's
  // strict weak ordering) and carry no ordering information anyway.
  // Columns decode a block at a time (GetNumeric on a vbyte block costs
  // up to 64 varint decodes per row).
  std::vector<double> sorted(static_cast<size_t>(n));
  col.enc().DecodeRange(0, n, sorted.data());
  sorted.erase(std::remove_if(sorted.begin(), sorted.end(),
                              [](double v) { return std::isnan(v); }),
               sorted.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) return stats;  // all-NaN column: no ordering stats

  // Min/max fold over the zone map when the table has been finalized:
  // same values as the sort endpoints, and well-defined even with NaN
  // rows (which the per-block summaries exclude).
  const ZoneMap& z = col.zones();
  if (z.num_blocks() > 0) {
    double lo = z.min[0], hi = z.max[0];
    for (int64_t b = 1; b < z.num_blocks(); ++b) {
      lo = std::min(lo, z.min[static_cast<size_t>(b)]);
      hi = std::max(hi, z.max[static_cast<size_t>(b)]);
    }
    stats.min = lo;
    stats.max = hi;
  } else {
    stats.min = sorted.front();
    stats.max = sorted.back();
  }

  int64_t distinct = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ++distinct;
  }
  stats.distinct_count = distinct;

  const int buckets = static_cast<int>(
      std::min<int64_t>(kHistogramBuckets, std::max<int64_t>(1, distinct)));
  const int64_t m = static_cast<int64_t>(sorted.size());
  EquiDepthHistogram& h = stats.histogram;
  h.total_rows = n;
  h.rows_per_bucket = (n + buckets - 1) / buckets;
  for (int b = 1; b <= buckets; ++b) {
    int64_t edge_row = std::min<int64_t>(m - 1, static_cast<int64_t>(b) * m / buckets - 1);
    if (edge_row < 0) edge_row = 0;
    h.bounds.push_back(sorted[static_cast<size_t>(edge_row)]);
  }
  h.bounds.back() = stats.max;

  if (col.type() == DataType::kString) {
    // GetNumeric yielded lexicographic ranks, so the numeric stats above
    // already describe rank space; mirror the histogram into string space
    // (rank bounds are exact integers — every dictionary entry occurs at
    // least once) so the estimator can place raw string literals too.
    const EncodedColumn& enc = col.enc();
    StringHistogram& sh = stats.str_histogram;
    sh.total_rows = h.total_rows;
    sh.rows_per_bucket = h.rows_per_bucket;
    sh.bounds.reserve(h.bounds.size());
    for (double bound : h.bounds) {
      sh.bounds.push_back(enc.StringOfRank(static_cast<int64_t>(bound)));
    }
    stats.str_min = enc.StringOfRank(0);
    stats.str_max = enc.StringOfRank(enc.dict_size() - 1);
  }
  return stats;
}

}  // namespace

std::vector<ColumnStats> ComputeTableStats(const Table& table) {
  std::vector<ColumnStats> all;
  all.reserve(static_cast<size_t>(table.schema().num_columns()));
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    all.push_back(ComputeColumnStats(table.column(c)));
  }
  return all;
}

namespace {

/// SplitMix64 finalizer: the deterministic hash behind the KMV sketch and
/// the row sample.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t ValueBits(double v) {
  // Normalize -0.0 with +0.0 so they hash (and count) as one value,
  // matching double equality in the sort-based pass.
  if (v == 0.0) v = 0.0;
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Histogram bounds from a sorted multiset given as (value, count) walks:
/// the bound of bucket b is the value at row index
/// min(m - 1, b*m/buckets - 1) of the sorted sequence, exactly as the
/// sort-based pass computes it.
template <typename Iter, typename GetValue, typename GetCount>
void BoundsFromSortedCounts(Iter begin, Iter end, int64_t m, int buckets,
                            GetValue value_of, GetCount count_of,
                            std::vector<double>* bounds) {
  std::vector<int64_t> edges;
  edges.reserve(static_cast<size_t>(buckets));
  for (int b = 1; b <= buckets; ++b) {
    int64_t e =
        std::min<int64_t>(m - 1, static_cast<int64_t>(b) * m / buckets - 1);
    if (e < 0) e = 0;
    edges.push_back(e);
  }
  size_t next = 0;
  int64_t cum = 0;
  for (Iter it = begin; it != end && next < edges.size(); ++it) {
    cum += count_of(it);
    while (next < edges.size() && edges[next] < cum) {
      bounds->push_back(value_of(it));
      ++next;
    }
  }
}

}  // namespace

StreamingColumnStats::StreamingColumnStats(DataType type) : type_(type) {}

void StreamingColumnStats::AddNumeric(double v) {
  RQP_CHECK(type_ != DataType::kString);
  const int64_t row = rows_++;
  if (std::isnan(v)) return;  // counted in rows_, excluded from ordering
  if (!has_value_) {
    min_ = max_ = v;
    has_value_ = true;
  } else {
    min_ = v < min_ ? v : min_;
    max_ = v > max_ ? v : max_;
  }
  const uint64_t vh = Mix64(ValueBits(v));
  if (exact_) {
    if (++counts_[v == 0.0 ? 0.0 : v] == 1 &&
        static_cast<int64_t>(counts_.size()) > kExactDistinctCap) {
      exact_ = false;
      counts_.clear();
    }
  }
  // The sketch and sample run from row 0 so a mid-stream fall from the
  // exact path loses nothing.
  kmv_.insert(vh);
  if (static_cast<int64_t>(kmv_.size()) > kKmvSize) kmv_.erase(--kmv_.end());
  const uint64_t rh = Mix64(static_cast<uint64_t>(row) ^ 0xc0ffee5eedull);
  if (rh <= sample_threshold_) {
    sample_.emplace_back(rh, v);
    if (static_cast<int64_t>(sample_.size()) > kSampleCap) {
      sample_threshold_ /= 2;
      auto keep = sample_.begin();
      for (auto& s : sample_) {
        if (s.first <= sample_threshold_) *keep++ = s;
      }
      sample_.erase(keep, sample_.end());
    }
  }
}

void StreamingColumnStats::AddString(const std::string& v) {
  RQP_CHECK(type_ == DataType::kString);
  ++rows_;
  ++str_counts_[v];
}

ColumnStats StreamingColumnStats::Finish() {
  ColumnStats stats;
  stats.row_count = rows_;
  if (rows_ == 0) return stats;

  if (type_ == DataType::kString) {
    // Exact at any scale: the ordered frequency map IS the sorted
    // multiset, and map order is rank order (map keys = dictionary
    // contents, every entry observed at least once).
    const int64_t distinct = static_cast<int64_t>(str_counts_.size());
    stats.distinct_count = distinct;
    stats.min = 0.0;
    stats.max = static_cast<double>(distinct - 1);
    stats.str_min = str_counts_.begin()->first;
    stats.str_max = (--str_counts_.end())->first;
    const int buckets = static_cast<int>(
        std::min<int64_t>(kHistogramBuckets, std::max<int64_t>(1, distinct)));
    EquiDepthHistogram& h = stats.histogram;
    h.total_rows = rows_;
    h.rows_per_bucket = (rows_ + buckets - 1) / buckets;
    StringHistogram& sh = stats.str_histogram;
    sh.total_rows = rows_;
    sh.rows_per_bucket = h.rows_per_bucket;
    // Rank-space bounds and string bounds walk the same edges; ranks are
    // the map's iteration indices.
    std::vector<int64_t> edges;
    for (int b = 1; b <= buckets; ++b) {
      int64_t e = std::min<int64_t>(
          rows_ - 1, static_cast<int64_t>(b) * rows_ / buckets - 1);
      if (e < 0) e = 0;
      edges.push_back(e);
    }
    size_t next = 0;
    int64_t cum = 0, rank = 0;
    for (const auto& [s, cnt] : str_counts_) {
      cum += cnt;
      while (next < edges.size() && edges[next] < cum) {
        h.bounds.push_back(static_cast<double>(rank));
        sh.bounds.push_back(s);
        ++next;
      }
      ++rank;
    }
    h.bounds.back() = stats.max;
    sh.bounds.back() = stats.str_max;
    return stats;
  }

  if (!has_value_) return stats;  // all-NaN column: no ordering stats
  stats.min = min_;
  stats.max = max_;

  if (exact_) {
    int64_t m = 0;
    for (const auto& [v, cnt] : counts_) m += cnt;
    stats.distinct_count = static_cast<int64_t>(counts_.size());
    const int buckets = static_cast<int>(std::min<int64_t>(
        kHistogramBuckets, std::max<int64_t>(1, stats.distinct_count)));
    EquiDepthHistogram& h = stats.histogram;
    h.total_rows = rows_;
    h.rows_per_bucket = (rows_ + buckets - 1) / buckets;
    BoundsFromSortedCounts(
        counts_.begin(), counts_.end(), m, buckets,
        [](auto it) { return it->first; }, [](auto it) { return it->second; },
        &h.bounds);
    h.bounds.back() = stats.max;
    return stats;
  }

  // Sketch path: KMV distinct estimate and sample-quantile histogram
  // edges; min/max stay exact.
  if (static_cast<int64_t>(kmv_.size()) < kKmvSize) {
    stats.distinct_count = static_cast<int64_t>(kmv_.size());
  } else {
    const long double hk =
        static_cast<long double>(*(--kmv_.end())) + 1.0L;
    const long double est = (static_cast<long double>(kKmvSize) - 1.0L) *
                            18446744073709551616.0L / hk;
    stats.distinct_count = static_cast<int64_t>(est);
  }
  std::vector<double> sorted;
  sorted.reserve(sample_.size());
  for (const auto& [rh, v] : sample_) sorted.push_back(v);
  std::sort(sorted.begin(), sorted.end());
  const int buckets = static_cast<int>(std::min<int64_t>(
      kHistogramBuckets, std::max<int64_t>(1, stats.distinct_count)));
  const int64_t m = static_cast<int64_t>(sorted.size());
  EquiDepthHistogram& h = stats.histogram;
  h.total_rows = rows_;
  h.rows_per_bucket = (rows_ + buckets - 1) / buckets;
  for (int b = 1; b <= buckets; ++b) {
    int64_t e =
        std::min<int64_t>(m - 1, static_cast<int64_t>(b) * m / buckets - 1);
    if (e < 0) e = 0;
    h.bounds.push_back(sorted[static_cast<size_t>(e)]);
  }
  h.bounds.back() = stats.max;
  return stats;
}

size_t StreamingColumnStats::MemoryBytes() const {
  size_t strs = 0;
  for (const auto& [s, cnt] : str_counts_) {
    strs += s.size() + sizeof(std::string) + sizeof(int64_t) + 48;
  }
  return counts_.size() * (sizeof(double) + sizeof(int64_t) + 48) +
         kmv_.size() * (sizeof(uint64_t) + 48) +
         sample_.capacity() * sizeof(std::pair<uint64_t, double>) + strs;
}

}  // namespace robustqp
