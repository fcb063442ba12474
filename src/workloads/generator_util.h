// Helpers shared by the synthetic workload generators.

#ifndef ROBUSTQP_WORKLOADS_GENERATOR_UTIL_H_
#define ROBUSTQP_WORKLOADS_GENERATOR_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace robustqp {

/// Declarative column spec: name, type, and a per-row value generator.
struct ColumnSpec {
  std::string name;
  DataType type = DataType::kInt64;
  /// Called once per row (row index passed) to produce the value
  /// (numeric columns).
  std::function<double(Rng&, int64_t)> gen;
  /// String columns use this instead (`gen` is unused). A generator that
  /// never draws from the Rng can be appended to an existing table spec
  /// without perturbing the other columns' data — the determinism the
  /// golden tests depend on.
  std::function<std::string(Rng&, int64_t)> str_gen{};
};

/// Materializes a table of `rows` rows from column specs and registers it
/// (with freshly computed statistics) in `catalog`. Rows stream straight
/// into columns encoded per `policy` (one 4096-row staging block per
/// column), so generator memory stays near the *encoded* footprint and
/// fact tables can scale to 1e7-1e8 rows. The generated values, stats,
/// and plans are identical for every policy — encoding is physical only.
void BuildAndRegister(Catalog* catalog, const std::string& name, int64_t rows,
                      const std::vector<ColumnSpec>& columns, Rng* rng,
                      const EncodingPolicy& policy = EncodingPolicy::Auto());

/// Streams a generated table straight into column file `path` through
/// TableFileStreamWriter: encoder staging blocks spill to disk as they
/// seal, so peak memory is O(row group), independent of `rows` — this is
/// what lets 1e7+-row fact tables build on a bounded heap (the resident
/// generator above holds the whole encoded table). Draw order is
/// row-major like BuildAndRegister, so for the same Rng state the file
/// holds bit-identical data to the resident build. When `peak_bytes` is
/// non-null it receives the writer's transient high-water mark, which the
/// scale tests assert stays bounded.
Status BuildTableFile(const std::string& path, const std::string& name,
                      int64_t rows, const std::vector<ColumnSpec>& columns,
                      Rng* rng, size_t* peak_bytes = nullptr);

}  // namespace robustqp

#endif  // ROBUSTQP_WORKLOADS_GENERATOR_UTIL_H_
