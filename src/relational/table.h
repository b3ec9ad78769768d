// Table: an in-memory base relation with schema type-checking and
// primary-key uniqueness enforcement.
//
// Storage is dual-representation (DESIGN.md §16): every committed row
// lands both in the legacy row vector (`rows()`, which borrowed scans,
// secondary indexes, and intermediate-result copies read) and in one
// column-major ColumnStore (which scan filters and join-key encoding
// read), at the same position. The two views are maintained eagerly
// inside the single CommitRow commit point, so they can never drift and
// no query-time state transition exists.
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
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// The columnar view: cell (col, r) is rows()[r][col], exactly.
  const ColumnStore& columns() const { return columns_; }

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
    return version >= rows_.size() ? 0 : rows_.size() - version;
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

  /// Pre-sizes the row vector, primary-key set, every index, and the
  /// columnar view for `expected_rows` additional rows, so a bulk load
  /// pays one allocation per container instead of incremental regrowth
  /// and rehashing.
  void Reserve(size_t expected_rows) {
    rows_.reserve(rows_.size() + expected_rows);
    columns_.Reserve(expected_rows);
    if (!key_indices_.empty()) {
      key_set_.reserve(key_set_.size() + expected_rows);
    }
    for (auto& [col, index] : indexes_) {
      index.reserve(index.size() + expected_rows);
    }
  }

  /// Total serialized size of all rows, in bytes.
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
  /// The single mutation commit point: appends the row to the columnar
  /// view and to the row view, records its primary key, maintains every
  /// secondary index, and bumps the version counter — all-or-nothing, so
  /// version/index/key/column state stay in lock step on every insert
  /// path. Callers have already run CheckRow.
  void CommitRow(Tuple row);

  TableSchema schema_;
  std::vector<Tuple> rows_;
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
