// CSV loading: parse RFC-4180-style records (quoted fields, doubled-quote
// escapes, CRLF tolerance) and bulk-load them into tables with type
// coercion against the table schema.
#ifndef SILKROUTE_RELATIONAL_CSV_H_
#define SILKROUTE_RELATIONAL_CSV_H_

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/database.h"

namespace silkroute {

/// Splits one CSV record into fields. Handles quoted fields with embedded
/// commas and doubled-quote escapes; trailing CR is stripped.
std::vector<std::string> ParseCsvRecord(std::string_view line);

struct CsvLoadOptions {
  /// Skip the first row (column headers).
  bool has_header = true;
  /// Empty unquoted fields load as NULL (only legal in nullable columns).
  bool empty_is_null = true;
  /// Rows to Reserve() in the target table before loading (0 = don't).
  /// LoadCsvFile fills this in automatically with a newline count when
  /// left at 0, so file loads never grow the columns incrementally.
  size_t expected_rows = 0;
};

/// Loads CSV rows from `input` into `table`, coercing each field to the
/// column type (int64, double, or string). Returns the number of rows
/// loaded; fails with row/column context on type or arity errors.
Result<size_t> LoadCsv(std::istream* input, const CsvLoadOptions& options,
                       const std::string& table, Database* db);

/// Convenience: load from a file path.
Result<size_t> LoadCsvFile(const std::string& path,
                           const CsvLoadOptions& options,
                           const std::string& table, Database* db);

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_CSV_H_
