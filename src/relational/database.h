// Database: catalog plus table data. This is the "target RDBMS" of the
// middle-ware setting; the SilkRoute layers talk to it only through SQL text
// and tuple streams (see engine/).
#ifndef SILKROUTE_RELATIONAL_DATABASE_H_
#define SILKROUTE_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace silkroute {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Catalog& catalog() const { return catalog_; }

  /// Registers the schema and creates an empty table.
  Status CreateTable(TableSchema schema);

  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// Validated insert (see Table::Insert).
  Status Insert(const std::string& table, Tuple row);

  /// Sum of all table data sizes in bytes (what "database size" means in the
  /// experiment configurations).
  size_t TotalByteSize() const;

 private:
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_DATABASE_H_
