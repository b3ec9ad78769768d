// Columnar storage for base tables (DESIGN.md §16). A Table keeps its rows
// in one ColumnStore and nowhere else: column-major contiguous typed
// arrays — 8-byte words for numerics, string-pool offsets for strings,
// plus a null bitmap — so scan filters and join-key encoding run over flat
// memory instead of dispatching through one std::variant per cell, and a
// row exists as a Tuple only where a caller gathers one (Table::Row).
//
// Representation invariants the executor relies on:
//  - Position is the row id. Cell (col, pos) belongs to the table's row
//    `pos`, in insertion order.
//  - Exact Value round-trip. A kDouble column legally holds int64 cells
//    (Table::Insert widens the type check, not the value), and the
//    differential harness demands exact representation identity
//    (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise). Numeric columns
//    therefore keep the raw 8-byte payload plus a per-cell int64-subtype
//    bitmap, never a widened double.
//  - Append-only. A column never moves or rewrites a committed cell;
//    string-pool offsets stay valid across growth.
#ifndef SILKROUTE_RELATIONAL_COLUMNAR_H_
#define SILKROUTE_RELATIONAL_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute {

/// One column of a table: a typed contiguous array plus a null bitmap.
/// Numeric columns (kInt64 and kDouble alike) store raw 8-byte payloads in
/// `words_` with `int_cells_` marking which cells hold an int64; string
/// columns store (offset, length) into an append-only byte pool.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  /// Pre-sizes the arrays for `additional` more cells.
  void Reserve(size_t additional);

  /// Appends one cell. `v` must be NULL or lie in the column's type domain
  /// (Table checks every row before it commits one).
  void Append(const Value& v);

  bool IsNull(size_t i) const { return GetBit(nulls_, i); }
  /// Exact subtype of a non-null numeric cell.
  bool CellIsInt64(size_t i) const { return GetBit(int_cells_, i); }

  int64_t Int64At(size_t i) const {
    int64_t v;
    std::memcpy(&v, &words_[i], sizeof(v));
    return v;
  }
  double DoubleAt(size_t i) const {
    double v;
    std::memcpy(&v, &words_[i], sizeof(v));
    return v;
  }
  /// Widened numeric view of a non-null numeric cell (Value::AsNumeric).
  double NumericAt(size_t i) const {
    return CellIsInt64(i) ? static_cast<double>(Int64At(i)) : DoubleAt(i);
  }
  /// View into the string pool; valid until the ColumnVector is destroyed
  /// (offsets are re-resolved on every call, so pool growth is safe).
  std::string_view StringAt(size_t i) const {
    return std::string_view(pool_.data() + offsets_[i], lens_[i]);
  }

  /// Exact Value round-trip of cell `i` (same representation that was
  /// appended, bit for bit). Inline: row gathers call it once per cell.
  Value ValueAt(size_t i) const {
    if (IsNull(i)) return Value::Null();
    if (type_ == DataType::kString) {
      return Value::String(std::string(StringAt(i)));
    }
    return CellIsInt64(i) ? Value::Int64(Int64At(i))
                          : Value::Double(DoubleAt(i));
  }

  /// Sum of Value::ByteSize over the cells (1 per NULL, 8 per numeric,
  /// length + 4 per string), computed without building a Value.
  size_t ByteSize() const;

 private:
  static bool GetBit(const std::vector<uint64_t>& bits, size_t i) {
    const size_t word = i >> 6;
    return word < bits.size() && (bits[word] >> (i & 63)) & 1;
  }
  static void SetBit(std::vector<uint64_t>* bits, size_t i) {
    const size_t word = i >> 6;
    if (word >= bits->size()) bits->resize(word + 1, 0);
    (*bits)[word] |= uint64_t{1} << (i & 63);
  }

  DataType type_;
  size_t size_ = 0;
  std::vector<uint64_t> nulls_;      // bit set => SQL NULL
  std::vector<uint64_t> words_;      // numeric payloads, raw bit patterns
  std::vector<uint64_t> int_cells_;  // bit set => cell is an int64
  std::vector<uint64_t> offsets_;    // string cells: offset into pool_
  std::vector<uint32_t> lens_;       // string cells: byte length
  std::string pool_;                 // append-only string bytes
};

/// A table's rows, column-major: one ColumnVector per schema column, all
/// of the same length, position == row id.
class ColumnStore {
 public:
  explicit ColumnStore(const TableSchema* schema);

  size_t size() const { return size_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVector& column(size_t c) const { return columns_[c]; }

  void Reserve(size_t additional);

  /// Appends `row` as position size(). The row must match the schema
  /// (arity and type domains); Table validates before it commits.
  void Append(const Tuple& row);

  /// Exact Value of cell (col, pos).
  Value ValueAt(size_t col, size_t pos) const {
    return columns_[col].ValueAt(pos);
  }

  /// Appends every cell of row `pos` to `out`, in column order.
  void AppendRow(size_t pos, Tuple* out) const {
    out->mutable_values().reserve(out->size() + columns_.size());
    for (const ColumnVector& c : columns_) out->Append(c.ValueAt(pos));
  }

 private:
  std::vector<ColumnVector> columns_;
  size_t size_ = 0;
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_COLUMNAR_H_
