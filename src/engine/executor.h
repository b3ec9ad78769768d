// QueryExecutor: executes a sql::Query against a Database and materializes
// the result. The physical plan is derived with textbook heuristics:
//
//  - comma-separated FROM lists are joined greedily along equijoin conjuncts
//    extracted from WHERE (hash joins), single-table conjuncts are pushed
//    down, the remainder is a residual filter;
//  - explicit JOIN ... ON uses a hash join when the ON condition is a
//    conjunction containing column equalities, a *disjunctive hash join*
//    when it is an OR of such conjunctions (the shape SilkRoute's unified
//    outer-join queries produce), and a nested loop otherwise;
//  - UNION ALL concatenates; ORDER BY sorts the materialized result.
#ifndef SILKROUTE_ENGINE_EXECUTOR_H_
#define SILKROUTE_ENGINE_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "engine/rel_schema.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/tuple.h"
#include "sql/ast.h"

namespace silkroute::engine {

/// A materialized intermediate or final relation.
struct Relation {
  RelSchema schema;
  std::vector<Tuple> rows;

  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& r : rows) total += r.ByteSize();
    return total;
  }
};

/// Counters the executor accumulates across one query.
struct ExecStats {
  uint64_t rows_scanned = 0;      // base-table rows read
  uint64_t rows_joined = 0;       // rows emitted by join operators
  uint64_t rows_sorted = 0;       // rows passed through ORDER BY
  uint64_t nested_loop_joins = 0; // fallback joins taken (should be rare)
  uint64_t hash_joins = 0;
  uint64_t index_probes = 0;      // rows fetched through a secondary index
  uint64_t keys_encoded = 0;      // packed keys built (join/sort/distinct)
  uint64_t bytes_encoded = 0;     // bytes of packed-key encoding produced
};

/// Abstract connection to the target RDBMS: one ExecuteSql call per
/// component query. The middle-ware's fault-tolerance stack is built from
/// implementations of this interface — QueryExecutor / DatabaseExecutor at
/// the bottom, FaultInjectingExecutor (fault_injection.h) simulating an
/// unreliable wire, ResilientExecutor (resilient_executor.h) adding retries
/// on top.
class SqlExecutor {
 public:
  virtual ~SqlExecutor() = default;

  virtual Result<Relation> ExecuteSql(std::string_view sql) = 0;

  /// Wall-clock cap per ExecuteSql call in milliseconds (the paper capped
  /// each sub-query at five minutes); exceeding it yields kTimeout.
  /// 0 disables.
  virtual void set_timeout_ms(double timeout_ms) = 0;

  /// Executes with an explicit per-call deadline instead of mutating
  /// executor state, so one executor can serve concurrent callers with
  /// different deadlines (the set_timeout_ms / ExecuteSql pair races when
  /// shared). The default shims onto the stateful pair and is therefore
  /// only single-thread safe; every executor meant to be shared across
  /// service workers overrides it.
  virtual Result<Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                                  double timeout_ms) {
    set_timeout_ms(timeout_ms);
    return ExecuteSql(sql);
  }

  /// Executes with a per-call deadline and a cooperative per-call cancel
  /// token: cancelling it abandons *this call only*, leaving the executor
  /// usable — how a hedged race cancels its loser (net/replica_set.h). The
  /// default ignores the token, which is correct for executors whose calls
  /// are short and local; transports that can block on a dead peer
  /// override it.
  virtual Result<Relation> ExecuteSqlCancellable(std::string_view sql,
                                                 double timeout_ms,
                                                 CancelToken* cancel) {
    (void)cancel;
    return ExecuteSqlWithDeadline(sql, timeout_ms);
  }

  /// Load/health hint for routers above: false means the executor knows a
  /// call would fail fast right now (e.g. every replica of a replica set
  /// is ejected), so the caller may skip it without charging the failure
  /// to its own breakers. Must be cheap and side-effect-free; the default
  /// is always-healthy.
  virtual bool Healthy() const { return true; }

  /// Current version counters of `tables` (sorted by name on return) —
  /// the freshness half of every result-cache key (engine/result_cache.h,
  /// relational/table.h). The publisher fetches one vector per publish,
  /// before executing any component query, so a concurrent writer can
  /// only make entries conservatively stale (a future miss), never
  /// wrongly fresh. The default declines — an executor that cannot vouch
  /// for versions (e.g. a legacy remote peer) disables caching rather
  /// than serving stale documents. Must be thread-safe in executors meant
  /// to be shared across service workers.
  virtual Result<std::vector<std::pair<std::string, uint64_t>>>
  FetchTableVersions(const std::vector<std::string>& tables) {
    (void)tables;
    return Status::Unimplemented("table versions not supported");
  }
};

class QueryExecutor : public SqlExecutor {
 public:
  explicit QueryExecutor(const Database* db) : db_(db) {}

  /// Executes a parsed query.
  Result<Relation> Execute(const sql::Query& query);

  /// Parses and executes SQL text (the middle-ware entry point). The
  /// deadline is re-armed on every call: the timeout caps one query, not
  /// the lifetime of the executor.
  Result<Relation> ExecuteSql(std::string_view sql) override;

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  /// What an operator reads: owned rows (derived tables, join outputs), or
  /// a base table read in place through its columns — every row, or only
  /// the row ids in `ids` (an index probe's or a filter's survivors, in
  /// scan order). No base row is copied up front: cells become Values only
  /// where a row is built (join output, projection, SELECT *, ORDER BY
  /// keys), and join keys encode straight from the columns.
  struct Source {
    RelSchema schema;
    std::vector<Tuple> rows;       // owned rows; unused when `table` is set
    const Table* table = nullptr;  // base table read in place
    std::optional<std::vector<uint32_t>> ids;  // table rows kept, in order

    size_t size() const {
      if (table == nullptr) return rows.size();
      return ids ? ids->size() : table->num_rows();
    }
    size_t RowId(size_t i) const { return ids ? (*ids)[i] : i; }
    /// Cell `col` of row i, as a fresh Value.
    Value Cell(size_t i, size_t col) const;
    /// Appends every cell of row i to `out`.
    void AppendRow(size_t i, Tuple* out) const;
    /// Row i: the owned tuple, or gathered into `*scratch`.
    const Tuple& Row(size_t i, Tuple* scratch) const;
    /// `prefix` followed by row i (one join output row).
    Tuple AppendedTo(const Tuple& prefix, size_t i) const;
    /// Join key over `cols` of row i (key_codec.h); false on a NULL cell.
    bool EncodeKey(size_t i, const std::vector<size_t>& cols,
                   std::string* out) const;
  };

  /// `allow_fusion` permits the final greedy join to skip materializing its
  /// wide output (see JoinFromList); the caller clears it when ORDER BY may
  /// need the aligned pre-projection rows.
  Result<Relation> ExecuteCore(const sql::SelectCore& core, bool allow_fusion);
  /// A base table in place, every row, nothing counted yet.
  Result<Source> TableSource(const sql::BaseTableRef& ref) const;
  Result<Source> EvalTableRef(const sql::TableRef& ref);
  Result<Source> EvalJoin(const sql::JoinRef& join);
  Result<Source> JoinRelations(sql::JoinType type, const Source& left,
                               const Source& right, const sql::Expr& on);
  /// Builds on `right`, probes with `left`. Emits the full concatenated
  /// rows, or — when `project` is set (inner join, no residual) — only the
  /// wide-schema columns it lists, in that order (projection fusion). The
  /// output schema is the concatenated one either way.
  Result<Source> HashJoin(sql::JoinType type, const Source& left,
                          const Source& right,
                          const std::vector<std::pair<size_t, size_t>>& keys,
                          const sql::Expr* residual,
                          const std::vector<size_t>* project = nullptr);
  Result<Source> DisjunctiveHashJoin(sql::JoinType type, const Source& left,
                                     const Source& right, const sql::Expr& on);
  Result<Source> NestedLoopJoin(sql::JoinType type, const Source& left,
                                const Source& right, const sql::Expr& on);
  /// Joins the FROM list. A single base table comes back in place (its
  /// columns plus the row ids its filters kept), so single-table queries
  /// never copy the table.
  ///
  /// When `allow_fusion` is set, the select list is all column refs, and no
  /// residual predicate survives the joins, the final greedy join projects
  /// straight off its inputs: the wide concatenated tuples are never built.
  /// In that case `*fused` is set and the returned rows carry the
  /// *projected* values in select-list order (while `schema` still
  /// describes the wide shape for expression binding).
  Result<Source> JoinFromList(const sql::SelectCore& core, bool allow_fusion,
                              bool* fused);
  /// Counts the scan of base-table source `src` and narrows it to the rows
  /// passing every filter: through an index probe when a literal equality
  /// has an index, else compiled column predicates over the typed arrays,
  /// else bound expressions.
  Status ScanBaseTable(const std::vector<const sql::Expr*>& filters,
                       Source* src);
  /// Keeps the rows of `src` passing every filter, in order.
  Status FilterSource(const std::vector<const sql::Expr*>& filters,
                      Source* src);
  /// `preproj` is the latest core's FROM/WHERE source, aligned 1:1 with
  /// `result`'s rows, so single-core ORDER BY can reference non-projected
  /// columns; an empty source when no aligned one exists.
  Status ApplyOrderBy(const sql::Query& query, const Source& preproj,
                      Relation* result);

  Status CheckDeadline() const;

  const Database* db_;
  ExecStats stats_;
  double timeout_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  // The latest core's pre-projection source (see ApplyOrderBy).
  Source last_preprojection_;
};

/// SqlExecutor over a local Database: a fresh QueryExecutor per call, so
/// per-query state (deadline, stats) can never leak across component
/// queries of a plan. ExecuteSqlWithDeadline is fully thread-safe (the
/// database is read-only during publishing); the stateful pair remains
/// single-thread only.
class DatabaseExecutor : public SqlExecutor {
 public:
  explicit DatabaseExecutor(const Database* db) : db_(db) {}

  Result<Relation> ExecuteSql(std::string_view sql) override {
    return ExecuteSqlWithDeadline(sql, timeout_ms_);
  }

  Result<Relation> ExecuteSqlWithDeadline(std::string_view sql,
                                          double timeout_ms) override {
    QueryExecutor executor(db_);
    if (timeout_ms > 0) executor.set_timeout_ms(timeout_ms);
    auto result = executor.ExecuteSql(sql);
    const ExecStats& s = executor.stats();
    if (keys_encoded_counter_ != nullptr && s.keys_encoded > 0) {
      keys_encoded_counter_->Add(s.keys_encoded);
      key_bytes_counter_->Add(s.bytes_encoded);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_ = s;
    }
    return result;
  }

  void set_timeout_ms(double timeout_ms) override { timeout_ms_ = timeout_ms; }

  /// Local tables answer version fetches directly (Table::version() is an
  /// atomic read; thread-safe against concurrent queries).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchTableVersions(
      const std::vector<std::string>& tables) override;

  /// Mirrors cumulative packed-key counters into `registry` (nullable to
  /// turn accounting off). Counters are resolved here once; the per-query
  /// hot path then pays only relaxed atomic adds.
  void set_metrics_registry(obs::MetricsRegistry* registry);

  /// Stats of the most recent query (last writer wins under concurrency).
  ExecStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  const Database* db_;
  double timeout_ms_ = 0;
  // Wired before publishing starts (set_metrics_registry is not safe to
  // race with in-flight ExecuteSql calls).
  obs::Counter* keys_encoded_counter_ = nullptr;
  obs::Counter* key_bytes_counter_ = nullptr;
  mutable std::mutex stats_mu_;
  ExecStats stats_;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_EXECUTOR_H_
