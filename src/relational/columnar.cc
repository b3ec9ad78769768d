#include "relational/columnar.h"

#include <bit>

namespace silkroute {

void ColumnVector::Reserve(size_t additional) {
  const size_t target = size_ + additional;
  if (type_ == DataType::kString) {
    offsets_.reserve(target);
    lens_.reserve(target);
  } else {
    words_.reserve(target);
  }
  nulls_.reserve((target + 63) / 64);
}

void ColumnVector::Append(const Value& v) {
  const size_t pos = size_++;
  if (type_ == DataType::kString) {
    offsets_.push_back(pool_.size());
    if (v.is_null()) {
      lens_.push_back(0);
      SetBit(&nulls_, pos);
      return;
    }
    const std::string& s = v.AsString();
    lens_.push_back(static_cast<uint32_t>(s.size()));
    pool_.append(s);
    return;
  }
  // Numeric column: raw payload word + subtype bit. Both kInt64 and
  // kDouble columns accept either numeric representation, mirroring the
  // widened type check in Table::Insert.
  uint64_t word = 0;
  if (v.is_null()) {
    SetBit(&nulls_, pos);
  } else if (v.is_int64()) {
    const int64_t i = v.AsInt64();
    std::memcpy(&word, &i, sizeof(word));
    SetBit(&int_cells_, pos);
  } else {
    const double d = v.AsDouble();
    std::memcpy(&word, &d, sizeof(word));
  }
  words_.push_back(word);
}

size_t ColumnVector::ByteSize() const {
  size_t nulls = 0;
  for (uint64_t word : nulls_) {
    nulls += static_cast<size_t>(std::popcount(word));
  }
  const size_t present = size_ - nulls;
  return nulls + (type_ == DataType::kString ? pool_.size() + 4 * present
                                             : 8 * present);
}

ColumnStore::ColumnStore(const TableSchema* schema) {
  columns_.reserve(schema->num_columns());
  for (const ColumnDef& col : schema->columns()) {
    columns_.emplace_back(col.type);
  }
}

void ColumnStore::Reserve(size_t additional) {
  for (ColumnVector& c : columns_) c.Reserve(additional);
}

void ColumnStore::Append(const Tuple& row) {
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++size_;
}

}  // namespace silkroute
