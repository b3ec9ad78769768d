#include "relational/table.h"

namespace silkroute {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (const auto& k : schema_.primary_key()) {
    auto idx = schema_.FindColumn(k);
    if (idx) key_indices_.push_back(*idx);
  }
}

Tuple Table::ExtractKey(const Tuple& row) const {
  Tuple key;
  for (size_t i : key_indices_) key.Append(row[i]);
  return key;
}

Status Table::CheckRow(const Tuple& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + schema_.name() + "': got " +
        std::to_string(row.size()) + " values, want " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("NULL in non-nullable column '" +
                                           col.name + "' of table '" +
                                           schema_.name() + "'");
      }
      continue;
    }
    bool type_ok = false;
    switch (col.type) {
      case DataType::kInt64:
        type_ok = v.is_int64();
        break;
      case DataType::kDouble:
        type_ok = v.is_double() || v.is_int64();
        break;
      case DataType::kString:
        type_ok = v.is_string();
        break;
    }
    if (!type_ok) {
      return Status::TypeError("value " + v.ToString() +
                               " does not match column '" + col.name +
                               "' of type " + DataTypeToString(col.type));
    }
  }
  return Status::OK();
}

Status Table::Insert(Tuple row) {
  SILK_RETURN_IF_ERROR(CheckRow(row));
  if (!key_indices_.empty()) {
    Tuple key = ExtractKey(row);
    if (key_set_.count(key) != 0) {
      return Status::ConstraintViolation("duplicate primary key " +
                                         key.ToString() + " in table '" +
                                         schema_.name() + "'");
    }
  }
  CommitRow(row);
  return Status::OK();
}

Status Table::InsertUnchecked(Tuple row) {
  SILK_RETURN_IF_ERROR(CheckRow(row));
  CommitRow(row);
  return Status::OK();
}

void Table::CommitRow(const Tuple& row) {
  if (!key_indices_.empty()) key_set_.insert(ExtractKey(row));
  columns_.Append(row);
  IndexRow(columns_.size() - 1);
  version_.fetch_add(1, std::memory_order_release);
}

Status Table::CreateIndex(const std::string& column) {
  SILK_ASSIGN_OR_RETURN(size_t position, schema_.ColumnIndex(column));
  Index& index = indexes_[position];
  index.clear();
  const ColumnVector& cells = columns_.column(position);
  index.reserve(cells.size());
  for (size_t r = 0; r < cells.size(); ++r) {
    if (!cells.IsNull(r)) index.emplace(cells.ValueAt(r), r);
  }
  return Status::OK();
}

const Table::Index* Table::GetIndex(const std::string& column) const {
  auto position = schema_.FindColumn(column);
  if (!position) return nullptr;
  auto it = indexes_.find(*position);
  return it == indexes_.end() ? nullptr : &it->second;
}

void Table::IndexRow(size_t row_position) {
  for (auto& [column, index] : indexes_) {
    const ColumnVector& cells = columns_.column(column);
    if (!cells.IsNull(row_position)) {
      index.emplace(cells.ValueAt(row_position), row_position);
    }
  }
}

size_t Table::DataByteSize() const {
  size_t total = 0;
  for (size_t c = 0; c < columns_.num_columns(); ++c) {
    total += columns_.column(c).ByteSize();
  }
  return total;
}

}  // namespace silkroute
