// Table: an in-memory base relation with schema type-checking and
// primary-key uniqueness enforcement.
//
// Storage is one column-major ColumnStore (DESIGN.md §16): it is the only
// copy of a committed row. Scans, filters, join keys, secondary indexes,
// and statistics read its typed arrays; Row(pos) gathers one row as a
// Tuple for callers that need one. Every mutation goes through the single
// CommitRow commit point, so columns, primary-key set, indexes, and the
// version counter can never drift.
#ifndef SILKROUTE_RELATIONAL_TABLE_H_
#define SILKROUTE_RELATIONAL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/columnar.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace silkroute {

class Table {
 public:
  /// Hash index: value -> row positions.
  using Index = std::unordered_multimap<Value, size_t, ValueHash>;

  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return columns_.size(); }

  /// The rows, column-major; position is the row id.
  const ColumnStore& columns() const { return columns_; }

  /// Gathers row `pos` from the columns: exactly the tuple that was
  /// inserted there (same Value representation, bit for bit).
  Tuple Row(size_t pos) const {
    Tuple row;
    columns_.AppendRow(pos, &row);
    return row;
  }

  /// Monotonic mutation counter: bumped once per committed row, on every
  /// insert path (validated and bulk). Since the store is append-only the
  /// version doubles as the row high-water mark, so the delta since
  /// version v is exactly rows [v, num_rows()). The result cache keys
  /// component results on the version vector of the tables a query names
  /// (engine/result_cache.h); any drift between this counter and the
  /// actual row/index state would silently serve stale documents, which is
  /// why every mutation funnels through one CommitRow helper.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Rows appended since `version` (the delta a republish must re-read).
  size_t RowsAppendedSince(uint64_t version) const {
    return version >= num_rows() ? 0 : num_rows() - version;
  }

  /// Builds (or rebuilds) a hash index on one column. Maintained by later
  /// inserts. The executor uses it for literal-equality scans.
  Status CreateIndex(const std::string& column);

  /// The index on `column`, or nullptr if none was created.
  const Index* GetIndex(const std::string& column) const;

  /// Validates arity, types, nullability, and primary-key uniqueness, then
  /// appends the row.
  Status Insert(Tuple row);

  /// Like Insert, but skips the primary-key uniqueness probe. Used by the
  /// bulk loader, whose generated keys are unique by construction. Arity,
  /// nullability, and types are still checked (the same CheckRow as
  /// Insert), so a malformed row is rejected and changes nothing. Shares
  /// CommitRow with Insert, so bulk loads maintain the primary-key set,
  /// secondary indexes, and the version counter exactly like validated
  /// inserts — the paths can never drift.
  Status InsertUnchecked(Tuple row);

  /// Pre-sizes the columns, primary-key set, and every index for
  /// `expected_rows` additional rows, so a bulk load pays one allocation
  /// per container instead of incremental regrowth and rehashing.
  void Reserve(size_t expected_rows) {
    columns_.Reserve(expected_rows);
    if (!key_indices_.empty()) {
      key_set_.reserve(key_set_.size() + expected_rows);
    }
    for (auto& [col, index] : indexes_) {
      index.reserve(index.size() + expected_rows);
    }
  }

  /// Total serialized size of all rows, in bytes (the sum of
  /// Value::ByteSize over every cell).
  size_t DataByteSize() const;

 private:
  struct KeyHash {
    size_t operator()(const Tuple& t) const {
      size_t h = 0;
      for (const auto& v : t.values()) h = h * 1315423911u + v.Hash();
      return h;
    }
  };

  Tuple ExtractKey(const Tuple& row) const;
  /// Arity, nullability, and type-domain check shared by both insert
  /// paths.
  Status CheckRow(const Tuple& row) const;
  void IndexRow(size_t row_position);
  /// The single mutation commit point: appends the row to the columns,
  /// records its primary key, maintains every secondary index, and bumps
  /// the version counter — all-or-nothing, so version/index/key/column
  /// state stay in lock step on every insert path. Callers have already
  /// run CheckRow.
  void CommitRow(const Tuple& row);

  TableSchema schema_;
  ColumnStore columns_{&schema_};
  std::vector<size_t> key_indices_;
  std::unordered_set<Tuple, KeyHash> key_set_;
  std::map<size_t, Index> indexes_;  // column position -> index
  /// Atomic so a publisher thread can snapshot the version vector while
  /// another request's writer commits (writers themselves are serialized
  /// by the caller; the table is not a concurrent structure).
  std::atomic<uint64_t> version_{0};
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_TABLE_H_
