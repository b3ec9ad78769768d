#include "engine/stats.h"

#include <string_view>
#include <unordered_set>

#include "relational/value.h"

namespace silkroute::engine {

DatabaseStats DatabaseStats::Collect(const Database& db) {
  DatabaseStats stats;
  for (const std::string& name : db.catalog().TableNames()) {
    auto table_result = db.GetTable(name);
    if (!table_result.ok()) continue;
    const Table& table = *table_result.value();
    const size_t num_cols = table.schema().num_columns();

    TableStats ts;
    ts.row_count = table.num_rows();
    ts.columns.resize(num_cols);

    // One pass per column over the typed arrays. String cells are
    // deduplicated as views into the column's pool, numeric cells as
    // Values, so an int64 3 and a double 3.0 in one kDouble column count
    // once, as Value equality says.
    double row_width = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      const ColumnVector& cells = table.columns().column(c);
      std::unordered_set<std::string_view> strings;
      std::unordered_set<Value, ValueHash> numbers;
      size_t nulls = 0;
      for (size_t r = 0; r < cells.size(); ++r) {
        if (cells.IsNull(r)) {
          ++nulls;
        } else if (cells.type() == DataType::kString) {
          strings.insert(cells.StringAt(r));
        } else {
          numbers.insert(cells.ValueAt(r));
        }
      }
      ColumnStats& cs = ts.columns[c];
      cs.distinct_count = strings.size() + numbers.size();
      cs.null_fraction =
          ts.row_count == 0 ? 0.0
                            : static_cast<double>(nulls) / ts.row_count;
      cs.avg_width_bytes =
          ts.row_count == 0
              ? 8.0
              : static_cast<double>(cells.ByteSize()) / ts.row_count;
      row_width += cs.avg_width_bytes;
      stats.column_index_[name][table.schema().column(c).name] = c;
    }
    ts.avg_row_width_bytes = row_width;
    stats.tables_.emplace(name, std::move(ts));
  }
  return stats;
}

Result<const TableStats*> DatabaseStats::GetTable(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no statistics for table '" + table + "'");
  }
  return &it->second;
}

double DatabaseStats::DistinctCount(const std::string& table,
                                    const std::string& column,
                                    double fallback) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return fallback;
  auto ci = column_index_.find(table);
  if (ci == column_index_.end()) return fallback;
  auto c = ci->second.find(column);
  if (c == ci->second.end()) return fallback;
  size_t d = t->second.columns[c->second].distinct_count;
  return d == 0 ? fallback : static_cast<double>(d);
}

const ColumnStats* DatabaseStats::GetColumn(const std::string& table,
                                            const std::string& column) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return nullptr;
  auto ci = column_index_.find(table);
  if (ci == column_index_.end()) return nullptr;
  auto c = ci->second.find(column);
  if (c == ci->second.end()) return nullptr;
  return &t->second.columns[c->second];
}

double DatabaseStats::RowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0.0
                             : static_cast<double>(it->second.row_count);
}

}  // namespace silkroute::engine
