// Order statistics shared by the load and traced metrics.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace e2e {

/// Nearest-rank q-quantile; 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
