// The database catalog: owns every stored table together with its
// statistics, and resolves (table, column) names for the query layer and
// the optimizer.

#ifndef ROBUSTQP_CATALOG_CATALOG_H_
#define ROBUSTQP_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/column_stats.h"
#include "catalog/schema.h"
#include "common/status.h"

namespace robustqp {

class Table;      // storage/table.h
class HashIndex;  // storage/hash_index.h

/// A catalog entry: schema + data + statistics + indexes for one table.
struct CatalogEntry {
  std::shared_ptr<Table> table;
  std::vector<ColumnStats> stats;
  /// Hash indexes keyed by column name.
  std::map<std::string, std::shared_ptr<HashIndex>> indexes{};
};

/// Name-keyed registry of tables. Tables are registered once (with
/// statistics computed by the caller) and are immutable afterwards.
class Catalog {
 public:
  /// Registers a table under its schema name. Fails if the name is taken.
  Status AddTable(std::shared_ptr<Table> table, std::vector<ColumnStats> stats);

  /// Looks up a table by name; nullptr if absent.
  const CatalogEntry* FindTable(const std::string& name) const;

  /// Row count of the named table; 0 if absent.
  int64_t RowCount(const std::string& name) const;

  /// Stats for table.column; nullptr if either is absent.
  const ColumnStats* FindColumnStats(const std::string& table_name,
                                     const std::string& column_name) const;

  /// Builds (or replaces) a hash index on an INT64 column. Fails if the
  /// table or column is absent.
  Status BuildIndex(const std::string& table_name,
                    const std::string& column_name);

  /// The hash index on table.column; nullptr if none exists.
  const HashIndex* FindIndex(const std::string& table_name,
                             const std::string& column_name) const;

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, CatalogEntry> tables_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_CATALOG_CATALOG_H_
