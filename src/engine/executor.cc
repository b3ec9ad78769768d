#include "engine/executor.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "engine/expr_eval.h"
#include "engine/key_codec.h"
#include "obs/trace.h"
#include "relational/columnar.h"
#include "sql/parser.h"

namespace silkroute::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;

/// Collects every column reference in an expression tree.
void CollectColumnRefs(const Expr& e, std::vector<const sql::ColumnRefExpr*>* out) {
  switch (e.kind()) {
    case Expr::Kind::kColumnRef:
      out->push_back(static_cast<const sql::ColumnRefExpr*>(&e));
      return;
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      CollectColumnRefs(b.left(), out);
      CollectColumnRefs(b.right(), out);
      return;
    }
    case Expr::Kind::kNot:
      CollectColumnRefs(static_cast<const sql::NotExpr&>(e).operand(), out);
      return;
    case Expr::Kind::kIsNull:
      CollectColumnRefs(static_cast<const sql::IsNullExpr&>(e).operand(), out);
      return;
  }
}

/// Which single relation (by index into `schemas`) does `e` reference?
/// Returns -1 if it references none or more than one, or a ref is ambiguous.
int SoleReferencedRelation(const Expr& e,
                           const std::vector<const RelSchema*>& schemas) {
  std::vector<const sql::ColumnRefExpr*> refs;
  CollectColumnRefs(e, &refs);
  int sole = -2;  // -2: none seen yet
  for (const auto* ref : refs) {
    int owner = -1;
    for (size_t i = 0; i < schemas.size(); ++i) {
      if (schemas[i]->Resolve(ref->qualifier(), ref->name()).ok()) {
        if (owner >= 0) return -1;  // ambiguous across relations
        owner = static_cast<int>(i);
      }
    }
    if (owner < 0) return -1;  // unresolved here; defer to residual binding
    if (sole == -2) {
      sole = owner;
    } else if (sole != owner) {
      return -1;
    }
  }
  return sole == -2 ? -1 : sole;
}

struct EquiPair {
  const sql::ColumnRefExpr* left;
  const sql::ColumnRefExpr* right;
};

/// If `e` is `colA = colB`, returns the two refs.
bool AsColumnEquality(const Expr& e, EquiPair* out) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& b = static_cast<const sql::BinaryExpr&>(e);
  if (b.op() != BinaryOp::kEq) return false;
  if (b.left().kind() != Expr::Kind::kColumnRef ||
      b.right().kind() != Expr::Kind::kColumnRef) {
    return false;
  }
  out->left = static_cast<const sql::ColumnRefExpr*>(&b.left());
  out->right = static_cast<const sql::ColumnRefExpr*>(&b.right());
  return true;
}

// ---------------------------------------------------------------------------
// Compiled column predicates (DESIGN.md §16). A pushed-down filter of the
// shape `col <op> literal` (either orientation), `col IS [NOT] NULL`, or a
// NOT over those compiles into a ColPred: one branch-light comparison
// against pre-classified literal payloads, evaluated straight off a
// table's typed column arrays with no BoundExpr dispatch and no Value
// materialized per row. Semantics replicate BoundExpr::Test over
// Value::Compare exactly: a NULL cell fails every comparison (three-valued
// unknown), int64-vs-int64 compares exactly, mixed numerics widen to
// double, numerics order before strings.
// ---------------------------------------------------------------------------

enum class ColOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIsNull,
  kIsNotNull,
  kNever,  // comparison against a NULL literal: no row ever passes
};

struct ColPred {
  enum class LitKind { kInt, kDouble, kString, kNone };

  size_t col = 0;
  ColOp op = ColOp::kNever;
  LitKind lit_kind = LitKind::kNone;
  int64_t lit_i = 0;     // kInt payload
  double lit_num = 0.0;  // widened numeric payload (kInt and kDouble)
  std::string lit_s;     // kString payload
};

/// `not (col <op> lit)` strengthens to the inverted comparison: for
/// non-null cells the inversion is exact, and a NULL cell fails both the
/// original (kUnknown) and the inversion, matching NotBound's kUnknown
/// pass-through. kNever stays kNever (NOT unknown is unknown).
ColOp InvertColOp(ColOp op) {
  switch (op) {
    case ColOp::kEq: return ColOp::kNe;
    case ColOp::kNe: return ColOp::kEq;
    case ColOp::kLt: return ColOp::kGe;
    case ColOp::kLe: return ColOp::kGt;
    case ColOp::kGt: return ColOp::kLe;
    case ColOp::kGe: return ColOp::kLt;
    case ColOp::kIsNull: return ColOp::kIsNotNull;
    case ColOp::kIsNotNull: return ColOp::kIsNull;
    case ColOp::kNever: return ColOp::kNever;
  }
  return ColOp::kNever;
}

bool FillLiteral(const Value& v, ColPred* out) {
  if (v.is_null()) {
    // `col <op> NULL` is kUnknown for every row; only kTrue passes.
    out->op = ColOp::kNever;
    out->lit_kind = ColPred::LitKind::kNone;
    return true;
  }
  if (v.is_int64()) {
    out->lit_kind = ColPred::LitKind::kInt;
    out->lit_i = v.AsInt64();
    out->lit_num = static_cast<double>(out->lit_i);
  } else if (v.is_double()) {
    out->lit_kind = ColPred::LitKind::kDouble;
    out->lit_num = v.AsDouble();
  } else {
    out->lit_kind = ColPred::LitKind::kString;
    out->lit_s = v.AsString();
  }
  return true;
}

/// Compiles `e` into a single ColPred. Returns false when the expression
/// is not of a compilable shape (the caller then keeps the whole filter
/// set on the legacy bound-expression path).
bool CompileColPred(const Expr& e, const RelSchema& schema, ColPred* out) {
  switch (e.kind()) {
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      ColOp op;
      switch (b.op()) {
        case BinaryOp::kEq: op = ColOp::kEq; break;
        case BinaryOp::kNe: op = ColOp::kNe; break;
        case BinaryOp::kLt: op = ColOp::kLt; break;
        case BinaryOp::kLe: op = ColOp::kLe; break;
        case BinaryOp::kGt: op = ColOp::kGt; break;
        case BinaryOp::kGe: op = ColOp::kGe; break;
        default: return false;  // And/Or arrive pre-split into conjuncts
      }
      const sql::ColumnRefExpr* col = nullptr;
      const sql::LiteralExpr* lit = nullptr;
      if (b.left().kind() == Expr::Kind::kColumnRef &&
          b.right().kind() == Expr::Kind::kLiteral) {
        col = static_cast<const sql::ColumnRefExpr*>(&b.left());
        lit = static_cast<const sql::LiteralExpr*>(&b.right());
      } else if (b.right().kind() == Expr::Kind::kColumnRef &&
                 b.left().kind() == Expr::Kind::kLiteral) {
        col = static_cast<const sql::ColumnRefExpr*>(&b.right());
        lit = static_cast<const sql::LiteralExpr*>(&b.left());
        // lit <op> col reads as col <flipped-op> lit.
        if (op == ColOp::kLt) op = ColOp::kGt;
        else if (op == ColOp::kLe) op = ColOp::kGe;
        else if (op == ColOp::kGt) op = ColOp::kLt;
        else if (op == ColOp::kGe) op = ColOp::kLe;
      } else {
        return false;
      }
      auto idx = schema.Resolve(col->qualifier(), col->name());
      if (!idx.ok()) return false;
      out->col = *idx;
      out->op = op;
      FillLiteral(lit->value(), out);  // may override op to kNever
      return true;
    }
    case Expr::Kind::kIsNull: {
      const auto& isn = static_cast<const sql::IsNullExpr&>(e);
      if (isn.operand().kind() != Expr::Kind::kColumnRef) return false;
      const auto& col =
          static_cast<const sql::ColumnRefExpr&>(isn.operand());
      auto idx = schema.Resolve(col.qualifier(), col.name());
      if (!idx.ok()) return false;
      out->col = *idx;
      out->op = isn.negated() ? ColOp::kIsNotNull : ColOp::kIsNull;
      out->lit_kind = ColPred::LitKind::kNone;
      return true;
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(e);
      if (!CompileColPred(n.operand(), schema, out)) return false;
      out->op = InvertColOp(out->op);
      return true;
    }
    default:
      return false;
  }
}

/// All-or-nothing: every filter must compile or none is used, so a scan is
/// either fully columnar or fully legacy (never a mix with different
/// short-circuit order).
bool CompileColumnPreds(const std::vector<const Expr*>& filters,
                        const RelSchema& schema, std::vector<ColPred>* out) {
  out->clear();
  out->reserve(filters.size());
  for (const Expr* e : filters) {
    ColPred p;
    if (!CompileColPred(*e, schema, &p)) return false;
    out->push_back(std::move(p));
  }
  return true;
}

/// One predicate against cell `pos` of a column. Mirrors
/// BinaryBound::Test over Value::Compare: NULL cells fail comparisons,
/// pass/fail IS NULL directly.
bool EvalColPred(const ColumnVector& cv, size_t pos, const ColPred& p) {
  switch (p.op) {
    case ColOp::kIsNull: return cv.IsNull(pos);
    case ColOp::kIsNotNull: return !cv.IsNull(pos);
    case ColOp::kNever: return false;
    default: break;
  }
  if (cv.IsNull(pos)) return false;
  int c;
  if (cv.type() != DataType::kString) {
    if (p.lit_kind == ColPred::LitKind::kString) {
      c = -1;  // numerics order before strings
    } else if (p.lit_kind == ColPred::LitKind::kInt && cv.CellIsInt64(pos)) {
      const int64_t a = cv.Int64At(pos);
      c = a < p.lit_i ? -1 : (a > p.lit_i ? 1 : 0);
    } else {
      const double a = cv.NumericAt(pos);
      c = a < p.lit_num ? -1 : (a > p.lit_num ? 1 : 0);
    }
  } else {
    if (p.lit_kind != ColPred::LitKind::kString) {
      c = 1;  // strings order after numerics
    } else {
      const int r = cv.StringAt(pos).compare(p.lit_s);
      c = r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
  }
  switch (p.op) {
    case ColOp::kEq: return c == 0;
    case ColOp::kNe: return c != 0;
    case ColOp::kLt: return c < 0;
    case ColOp::kLe: return c <= 0;
    case ColOp::kGt: return c > 0;
    case ColOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Row ids (ascending) of the rows passing every predicate, evaluated
/// straight off the typed column arrays — no bound-expression dispatch and
/// no per-row Value.
std::vector<uint32_t> SelectRows(const ColumnStore& columns,
                                 const std::vector<ColPred>& preds) {
  std::vector<uint32_t> ids;
  if (std::any_of(preds.begin(), preds.end(), [](const ColPred& p) {
        return p.op == ColOp::kNever;
      })) {
    return ids;  // a NULL-literal comparison passes no row
  }
  const size_t n = columns.size();
  for (size_t row = 0; row < n; ++row) {
    bool pass = true;
    for (const ColPred& p : preds) {
      if (!EvalColPred(columns.column(p.col), row, p)) {
        pass = false;
        break;
      }
    }
    if (pass) ids.push_back(static_cast<uint32_t>(row));
  }
  return ids;
}

/// A literal-equality filter with an index on its column, if any: the index
/// path beats every flavour of full scan, so ScanBaseTable consults this
/// first.
struct IndexProbe {
  const Table::Index* index = nullptr;
  const Value* probe = nullptr;
};

IndexProbe FindIndexProbe(const Table& table,
                          const std::vector<const Expr*>& filters) {
  for (const sql::Expr* e : filters) {
    if (e->kind() != Expr::Kind::kBinary) continue;
    const auto& b = static_cast<const sql::BinaryExpr&>(*e);
    if (b.op() != BinaryOp::kEq) continue;
    const sql::ColumnRefExpr* col = nullptr;
    const sql::LiteralExpr* lit = nullptr;
    if (b.left().kind() == Expr::Kind::kColumnRef &&
        b.right().kind() == Expr::Kind::kLiteral) {
      col = static_cast<const sql::ColumnRefExpr*>(&b.left());
      lit = static_cast<const sql::LiteralExpr*>(&b.right());
    } else if (b.right().kind() == Expr::Kind::kColumnRef &&
               b.left().kind() == Expr::Kind::kLiteral) {
      col = static_cast<const sql::ColumnRefExpr*>(&b.right());
      lit = static_cast<const sql::LiteralExpr*>(&b.left());
    } else {
      continue;
    }
    const Table::Index* candidate = table.GetIndex(col->name());
    if (candidate != nullptr && !lit->value().is_null()) {
      return {candidate, &lit->value()};
    }
  }
  return {};
}

/// Chained hash index over packed join keys (key_codec.h): one map entry
/// per distinct key, rows with equal keys threaded through `next_` links
/// in insertion order. Probes therefore walk matches in ascending build-
/// row order for free — hash-table iteration order never leaks out — and
/// key bytes live contiguously in the arena instead of one
/// vector<Value> node per build row. Row ids are uint32 (a build side
/// anywhere near 4B rows would have exhausted memory long before).
class EncodedKeyIndex {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  void Reserve(size_t rows) {
    map_.reserve(rows);
    next_.assign(rows, kNil);
  }

  void Insert(std::string_view key, uint32_t row) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_.emplace(arena_.Intern(key), Chain{row, row});
    } else {
      next_[it->second.tail] = row;
      it->second.tail = row;
    }
  }

  /// Head of the chain for `key`, or kNil; advance with NextRow.
  uint32_t Find(std::string_view key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kNil : it->second.head;
  }
  uint32_t NextRow(uint32_t row) const { return next_[row]; }

 private:
  struct Chain {
    uint32_t head;
    uint32_t tail;
  };
  KeyArena arena_;
  std::unordered_map<std::string_view, Chain> map_;
  std::vector<uint32_t> next_;
};

Tuple NullPadded(const Tuple& left, size_t right_width) {
  Tuple out = left;
  for (size_t i = 0; i < right_width; ++i) out.Append(Value::Null());
  return out;
}

}  // namespace

Value QueryExecutor::Source::Cell(size_t i, size_t col) const {
  if (table != nullptr) return table->columns().ValueAt(col, RowId(i));
  return rows[i].values()[col];
}

void QueryExecutor::Source::AppendRow(size_t i, Tuple* out) const {
  if (table != nullptr) {
    table->columns().AppendRow(RowId(i), out);
    return;
  }
  const std::vector<Value>& cells = rows[i].values();
  out->mutable_values().insert(out->mutable_values().end(), cells.begin(),
                               cells.end());
}

const Tuple& QueryExecutor::Source::Row(size_t i, Tuple* scratch) const {
  if (table == nullptr) return rows[i];
  scratch->mutable_values().clear();
  table->columns().AppendRow(RowId(i), scratch);
  return *scratch;
}

Tuple QueryExecutor::Source::AppendedTo(const Tuple& prefix, size_t i) const {
  if (table == nullptr) return Tuple::Concat(prefix, rows[i]);
  Tuple out;
  out.mutable_values().reserve(prefix.size() + schema.size());
  out.mutable_values() = prefix.values();
  table->columns().AppendRow(RowId(i), &out);
  return out;
}

bool QueryExecutor::Source::EncodeKey(size_t i, const std::vector<size_t>& cols,
                                      std::string* out) const {
  if (table != nullptr) return EncodeTableJoinKey(*table, RowId(i), cols, out);
  return EncodeJoinKey(rows[i], cols, out);
}

Result<Relation> QueryExecutor::ExecuteSql(std::string_view sql_text) {
  // The timeout caps each query, not the executor: re-arm the deadline so a
  // reused executor does not charge query N+1 for query N's elapsed time.
  has_deadline_ = false;
  SILK_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql_text));
  auto result = Execute(*q);
  // Attach this query's physical-plan counters to the enclosing attempt
  // span, if one is installed (the string building is gated on the span so
  // untraced runs pay only the thread-local load).
  if (result.ok() && obs::CurrentSpan() != nullptr) {
    obs::AnnotateCurrent("rows_scanned", std::to_string(stats_.rows_scanned));
    obs::AnnotateCurrent("rows_joined", std::to_string(stats_.rows_joined));
    obs::AnnotateCurrent("hash_joins", std::to_string(stats_.hash_joins));
    obs::AnnotateCurrent("nested_loop_joins",
                         std::to_string(stats_.nested_loop_joins));
    obs::AnnotateCurrent("index_probes", std::to_string(stats_.index_probes));
    obs::AnnotateCurrent("keys_encoded", std::to_string(stats_.keys_encoded));
    obs::AnnotateCurrent("bytes_encoded",
                         std::to_string(stats_.bytes_encoded));
    obs::AnnotateCurrent("result_rows",
                         std::to_string(result.value().rows.size()));
  }
  return result;
}

Status QueryExecutor::CheckDeadline() const {
  if (!has_deadline_) return Status::OK();
  if (std::chrono::steady_clock::now() > deadline_) {
    return Status::Timeout("query exceeded " +
                           std::to_string(timeout_ms_) + " ms");
  }
  return Status::OK();
}

Result<Relation> QueryExecutor::Execute(const sql::Query& query) {
  if (query.cores.empty()) {
    return Status::InvalidArgument("query has no SELECT cores");
  }
  if (timeout_ms_ > 0 && !has_deadline_) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<int64_t>(timeout_ms_ * 1000));
  }
  Relation result;
  // With no ORDER BY the aligned pre-projection rows are never consulted,
  // so the final join of each core may fuse with the projection.
  const bool allow_fusion = query.order_by.empty();
  for (size_t i = 0; i < query.cores.size(); ++i) {
    SILK_ASSIGN_OR_RETURN(Relation part,
                          ExecuteCore(query.cores[i], allow_fusion));
    if (i == 0) {
      result = std::move(part);
    } else {
      if (part.schema.size() != result.schema.size()) {
        return Status::InvalidArgument(
            "UNION operands have different arities (" +
            std::to_string(result.schema.size()) + " vs " +
            std::to_string(part.schema.size()) + ")");
      }
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(part.rows.begin()),
                         std::make_move_iterator(part.rows.end()));
    }
  }
  if (!query.order_by.empty()) {
    SILK_RETURN_IF_ERROR(ApplyOrderBy(query, last_preprojection_, &result));
  }
  last_preprojection_ = Source();  // release memory
  return result;
}

Result<Relation> QueryExecutor::ExecuteCore(const sql::SelectCore& core,
                                            bool allow_fusion) {
  bool fused = false;
  SILK_ASSIGN_OR_RETURN(
      Source combined,
      JoinFromList(core, allow_fusion && !core.select_star, &fused));
  Relation out;
  const size_t n = combined.size();

  if (core.select_star) {
    // The output is the source itself, so ORDER BY resolves every key
    // against the output schema and needs no pre-projection.
    last_preprojection_ = Source();
    out.schema = std::move(combined.schema);
    if (combined.table == nullptr) {
      out.rows = std::move(combined.rows);
      return out;
    }
    out.rows.resize(n);
    for (size_t i = 0; i < n; ++i) combined.AppendRow(i, &out.rows[i]);
    return out;
  }

  // Bind projection expressions.
  std::vector<BoundExprPtr> exprs;
  exprs.reserve(core.select_list.size());
  for (const auto& item : core.select_list) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr bound,
                          BindExpr(*item.expr, combined.schema));
    exprs.push_back(std::move(bound));
    if (!item.alias.empty()) {
      out.schema.Add({"", item.alias});
    } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      out.schema.Add({c.qualifier(), c.name()});
    } else {
      out.schema.Add({"", "col" + std::to_string(out.schema.size() + 1)});
    }
  }

  // How each select item reads a source row: a column ref copies its cell
  // by index and a literal copies its value, so the shapes SilkRoute's view
  // composer emits (column refs, label constants, NULLs) never build the
  // row — over a base table only the selected cells of the kept row ids
  // are gathered. Any other expression evaluates over the whole row.
  struct Item {
    int col = -1;           // column ref: the source column
    bool constant = false;  // literal: `value` on every row
    Value value;
  };
  std::vector<Item> items(core.select_list.size());
  bool needs_row = false;
  for (size_t k = 0; k < items.size(); ++k) {
    const Expr& e = *core.select_list[k].expr;
    if (e.kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(e);
      auto idx = combined.schema.Resolve(c.qualifier(), c.name());
      if (idx.ok()) {
        items[k].col = static_cast<int>(*idx);
        continue;
      }
    } else if (e.kind() == Expr::Kind::kLiteral) {
      items[k].constant = true;
      items[k].value = static_cast<const sql::LiteralExpr&>(e).value();
      continue;
    }
    needs_row = true;
  }

  if (fused) {
    // JoinFromList already produced the projected rows.
    out.rows = std::move(combined.rows);
  } else {
    out.rows.reserve(n);
    Tuple scratch;
    for (size_t i = 0; i < n; ++i) {
      const Tuple* row = needs_row ? &combined.Row(i, &scratch) : nullptr;
      Tuple projected;
      projected.mutable_values().reserve(items.size());
      for (size_t k = 0; k < items.size(); ++k) {
        const Item& item = items[k];
        if (item.col >= 0) {
          projected.Append(combined.Cell(i, static_cast<size_t>(item.col)));
        } else if (item.constant) {
          projected.Append(item.value);
        } else {
          projected.Append(exprs[k]->Eval(*row));
        }
      }
      out.rows.push_back(std::move(projected));
    }
  }
  if (core.distinct) {
    // Dedup on packed whole-row keys: each row is encoded once into a
    // contiguous byte string, so hashing and equality are single byte
    // passes instead of a variant walk of t.values() per probe. NULL ==
    // NULL here, as before (Tuple::Compare identity, not SqlEquals).
    KeyArena arena;
    std::unordered_set<std::string_view> seen;
    seen.reserve(out.rows.size());
    std::vector<Tuple> unique;
    unique.reserve(out.rows.size());
    std::string scratch;
    for (auto& row : out.rows) {
      scratch.clear();
      EncodeRowKey(row, &scratch);
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      if (seen.find(scratch) == seen.end()) {
        seen.insert(arena.Intern(scratch));
        unique.push_back(std::move(row));
      }
    }
    out.rows = std::move(unique);
  }
  // DISTINCT breaks row alignment, and fused rows have no wide rows behind
  // them (fusion only runs when no ORDER BY follows).
  if (core.distinct || fused) {
    last_preprojection_ = Source();
  } else {
    last_preprojection_ = std::move(combined);
  }
  return out;
}

Result<QueryExecutor::Source> QueryExecutor::JoinFromList(
    const sql::SelectCore& core, bool allow_fusion, bool* fused) {
  *fused = false;
  if (core.from.empty()) {
    // `select <literals>`: one empty source row.
    Source r;
    r.rows.emplace_back();
    return r;
  }

  // Evaluate each FROM item. Base tables stay in place, unscanned, so the
  // pushdown filters below can narrow them to a row-id list.
  std::vector<Source> items;
  items.reserve(core.from.size());
  for (const auto& ref : core.from) {
    SILK_ASSIGN_OR_RETURN(
        Source item,
        ref->kind() == sql::TableRef::Kind::kBaseTable
            ? TableSource(static_cast<const sql::BaseTableRef&>(*ref))
            : EvalTableRef(*ref));
    items.push_back(std::move(item));
  }

  // Classify WHERE conjuncts.
  std::vector<const Expr*> conjuncts;
  if (core.where) CollectConjuncts(*core.where, &conjuncts);

  std::vector<const RelSchema*> schemas;
  schemas.reserve(items.size());
  for (const auto& it : items) schemas.push_back(&it.schema);

  struct JoinPred {
    const Expr* expr;
    int item_a;
    const sql::ColumnRefExpr* ref_a;
    int item_b;
    const sql::ColumnRefExpr* ref_b;
    bool used = false;
  };
  std::vector<JoinPred> join_preds;
  std::vector<const Expr*> residual;
  std::vector<std::vector<const Expr*>> pushdown(items.size());

  for (const Expr* c : conjuncts) {
    int sole = SoleReferencedRelation(*c, schemas);
    if (sole >= 0) {
      pushdown[static_cast<size_t>(sole)].push_back(c);
      continue;
    }
    EquiPair pair;
    if (AsColumnEquality(*c, &pair)) {
      int owner_l = SoleReferencedRelation(*pair.left, schemas);
      int owner_r = SoleReferencedRelation(*pair.right, schemas);
      if (owner_l >= 0 && owner_r >= 0 && owner_l != owner_r) {
        join_preds.push_back({c, owner_l, pair.left, owner_r, pair.right});
        continue;
      }
    }
    residual.push_back(c);
  }

  // Push single-item filters down. Base tables are scanned here: an index
  // probe or a filter narrows them to the row ids that pass.
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].table != nullptr) {
      SILK_RETURN_IF_ERROR(ScanBaseTable(pushdown[i], &items[i]));
    } else {
      SILK_RETURN_IF_ERROR(FilterSource(pushdown[i], &items[i]));
    }
  }

  // Projection fusion: when every select item is a plain column ref, the
  // final greedy join can project straight off its inputs, skipping the
  // wide concatenated tuples entirely (provided no residual predicate
  // survives the joins).
  const bool can_fuse =
      allow_fusion && items.size() > 1 &&
      std::all_of(core.select_list.begin(), core.select_list.end(),
                  [](const sql::SelectItem& item) {
                    return item.expr->kind() == Expr::Kind::kColumnRef;
                  });

  // Greedy hash-join order: start with item 0, repeatedly join the smallest
  // connected unjoined item.
  std::vector<bool> joined(items.size(), false);
  Source current = std::move(items[0]);
  joined[0] = true;
  size_t num_joined = 1;

  auto pred_connects = [&](const JoinPred& p, size_t candidate) {
    bool a_in = joined[static_cast<size_t>(p.item_a)];
    bool b_in = joined[static_cast<size_t>(p.item_b)];
    return (!p.used) &&
           ((a_in && static_cast<size_t>(p.item_b) == candidate) ||
            (b_in && static_cast<size_t>(p.item_a) == candidate));
  };

  while (num_joined < items.size()) {
    // Choose the smallest connected candidate.
    int best = -1;
    for (size_t cand = 0; cand < items.size(); ++cand) {
      if (joined[cand]) continue;
      bool connected = std::any_of(join_preds.begin(), join_preds.end(),
                                   [&](const JoinPred& p) {
                                     return pred_connects(p, cand);
                                   });
      if (!connected) continue;
      if (best < 0 ||
          items[cand].size() < items[static_cast<size_t>(best)].size()) {
        best = static_cast<int>(cand);
      }
    }
    bool cross_product = false;
    if (best < 0) {
      // No connected item: cross product with the first unjoined one.
      for (size_t cand = 0; cand < items.size(); ++cand) {
        if (!joined[cand]) {
          best = static_cast<int>(cand);
          break;
        }
      }
      cross_product = true;
    }
    size_t cand = static_cast<size_t>(best);
    const Source& right = items[cand];

    if (cross_product) {
      Source combined;
      combined.schema = RelSchema::Concat(current.schema, right.schema);
      combined.rows.reserve(current.size() * right.size());
      Tuple scratch;
      for (size_t l = 0; l < current.size(); ++l) {
        SILK_RETURN_IF_ERROR(CheckDeadline());
        const Tuple& lrow = current.Row(l, &scratch);
        for (size_t r = 0; r < right.size(); ++r) {
          combined.rows.push_back(right.AppendedTo(lrow, r));
        }
      }
      current = std::move(combined);
    } else {
      // Gather all usable predicates between the joined set and `cand`.
      std::vector<std::pair<size_t, size_t>> keys;
      for (auto& p : join_preds) {
        if (!pred_connects(p, cand)) continue;
        const sql::ColumnRefExpr* left_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_a : p.ref_b;
        const sql::ColumnRefExpr* right_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_b : p.ref_a;
        auto li = current.schema.Resolve(left_ref->qualifier(), left_ref->name());
        auto ri = right.schema.Resolve(right_ref->qualifier(), right_ref->name());
        if (!li.ok() || !ri.ok()) continue;
        keys.emplace_back(*li, *ri);
        p.used = true;
      }
      // The last join fuses when nothing is left to filter afterwards.
      std::vector<size_t> fuse_cols;  // select columns in the wide schema
      bool fuse = can_fuse && num_joined + 1 == items.size() &&
                  residual.empty() &&
                  std::none_of(join_preds.begin(), join_preds.end(),
                               [](const JoinPred& p) { return !p.used; });
      if (fuse) {
        RelSchema wide = RelSchema::Concat(current.schema, right.schema);
        for (const auto& item : core.select_list) {
          const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
          auto idx = wide.Resolve(c.qualifier(), c.name());
          if (!idx.ok()) {
            fuse = false;
            break;
          }
          fuse_cols.push_back(*idx);
        }
      }
      SILK_ASSIGN_OR_RETURN(
          current, HashJoin(sql::JoinType::kInner, current, right, keys,
                            /*residual=*/nullptr, fuse ? &fuse_cols : nullptr));
      *fused = fuse;
    }
    joined[cand] = true;
    ++num_joined;
  }

  // Residual predicates (including any join predicates never used).
  std::vector<const Expr*> leftover = residual;
  for (const auto& p : join_preds) {
    if (!p.used) leftover.push_back(p.expr);
  }
  SILK_RETURN_IF_ERROR(FilterSource(leftover, &current));
  return current;
}

Status QueryExecutor::ScanBaseTable(
    const std::vector<const sql::Expr*>& filters, Source* src) {
  const Table& table = *src->table;
  const IndexProbe ip = FindIndexProbe(table, filters);
  if (ip.index != nullptr) {
    // The probe's matches in index order; every filter (the probed one
    // included) then runs on each.
    std::vector<uint32_t> ids;
    auto [begin, end] = ip.index->equal_range(*ip.probe);
    for (auto it = begin; it != end; ++it) {
      ids.push_back(static_cast<uint32_t>(it->second));
    }
    stats_.rows_scanned += ids.size();
    stats_.index_probes += ids.size();
    src->ids = std::move(ids);
    return FilterSource(filters, src);
  }

  stats_.rows_scanned += table.num_rows();
  std::vector<ColPred> preds;
  if (filters.empty() || !CompileColumnPreds(filters, src->schema, &preds)) {
    return FilterSource(filters, src);
  }
  // Position equals row id, so survivors come out in table row order.
  src->ids = SelectRows(table.columns(), preds);
  return Status::OK();
}

Status QueryExecutor::FilterSource(
    const std::vector<const sql::Expr*>& filters, Source* src) {
  if (filters.empty()) return Status::OK();
  std::vector<BoundExprPtr> bound;
  bound.reserve(filters.size());
  for (const sql::Expr* e : filters) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, src->schema));
    bound.push_back(std::move(b));
  }
  auto passes = [&bound](const Tuple& row) {
    for (const auto& f : bound) {
      if (f->Test(row) != Tribool::kTrue) return false;
    }
    return true;
  };
  if (src->table == nullptr) {
    std::vector<Tuple> kept;
    kept.reserve(src->rows.size());
    for (auto& row : src->rows) {
      if (passes(row)) kept.push_back(std::move(row));
    }
    src->rows = std::move(kept);
    return Status::OK();
  }
  std::vector<uint32_t> kept;
  Tuple scratch;
  for (size_t i = 0; i < src->size(); ++i) {
    if (passes(src->Row(i, &scratch))) {
      kept.push_back(static_cast<uint32_t>(src->RowId(i)));
    }
  }
  src->ids = std::move(kept);
  return Status::OK();
}

Result<QueryExecutor::Source> QueryExecutor::TableSource(
    const sql::BaseTableRef& ref) const {
  SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(ref.table()));
  Source src;
  for (const auto& col : table->schema().columns()) {
    src.schema.Add({ref.binding_name(), col.name});
  }
  src.table = table;
  return src;
}

Result<QueryExecutor::Source> QueryExecutor::EvalTableRef(
    const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      SILK_ASSIGN_OR_RETURN(
          Source src, TableSource(static_cast<const sql::BaseTableRef&>(ref)));
      stats_.rows_scanned += src.size();
      return src;
    }
    case sql::TableRef::Kind::kDerivedTable: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      // Note: uses a nested executor so last_preprojection_ of the outer
      // query is not clobbered. The deadline is inherited as-is.
      QueryExecutor sub(db_);
      sub.timeout_ms_ = timeout_ms_;
      sub.has_deadline_ = has_deadline_;
      sub.deadline_ = deadline_;
      SILK_ASSIGN_OR_RETURN(Relation rel, sub.Execute(derived.query()));
      stats_.rows_scanned += sub.stats_.rows_scanned;
      stats_.rows_joined += sub.stats_.rows_joined;
      stats_.rows_sorted += sub.stats_.rows_sorted;
      stats_.hash_joins += sub.stats_.hash_joins;
      stats_.nested_loop_joins += sub.stats_.nested_loop_joins;
      stats_.index_probes += sub.stats_.index_probes;
      stats_.keys_encoded += sub.stats_.keys_encoded;
      stats_.bytes_encoded += sub.stats_.bytes_encoded;
      Source src;
      src.schema = rel.schema.WithQualifier(derived.alias());
      src.rows = std::move(rel.rows);
      return src;
    }
    case sql::TableRef::Kind::kJoin:
      return EvalJoin(static_cast<const sql::JoinRef&>(ref));
  }
  return Status::Internal("unknown table ref kind");
}

Result<QueryExecutor::Source> QueryExecutor::EvalJoin(
    const sql::JoinRef& join) {
  SILK_ASSIGN_OR_RETURN(Source left, EvalTableRef(join.left()));
  SILK_ASSIGN_OR_RETURN(Source right, EvalTableRef(join.right()));
  return JoinRelations(join.join_type(), left, right, join.on());
}

Result<QueryExecutor::Source> QueryExecutor::JoinRelations(
    sql::JoinType type, const Source& left, const Source& right,
    const sql::Expr& on) {
  // Case 1: conjunction with at least one column equality -> hash join.
  {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(on, &conjuncts);
    std::vector<std::pair<size_t, size_t>> keys;
    std::vector<const Expr*> residual_parts;
    for (const Expr* c : conjuncts) {
      EquiPair pair;
      if (AsColumnEquality(*c, &pair)) {
        auto li = left.schema.Resolve(pair.left->qualifier(), pair.left->name());
        auto ri =
            right.schema.Resolve(pair.right->qualifier(), pair.right->name());
        if (li.ok() && ri.ok()) {
          keys.emplace_back(*li, *ri);
          continue;
        }
        // Try swapped orientation.
        li = left.schema.Resolve(pair.right->qualifier(), pair.right->name());
        ri = right.schema.Resolve(pair.left->qualifier(), pair.left->name());
        if (li.ok() && ri.ok()) {
          keys.emplace_back(*li, *ri);
          continue;
        }
      }
      residual_parts.push_back(c);
    }
    if (!keys.empty()) {
      sql::ExprPtr residual_expr;
      if (!residual_parts.empty()) {
        std::vector<sql::ExprPtr> clones;
        clones.reserve(residual_parts.size());
        for (const Expr* e : residual_parts) clones.push_back(e->Clone());
        residual_expr = sql::AndAll(std::move(clones));
      }
      return HashJoin(type, left, right, keys, residual_expr.get());
    }
  }

  // Case 2: OR of conjunctions, each with column equalities -> disjunctive
  // hash join (the unified outer-join query shape).
  {
    auto result = DisjunctiveHashJoin(type, left, right, on);
    if (result.ok()) return result;
    // fall through to nested loop on decomposition failure
  }

  return NestedLoopJoin(type, left, right, on);
}

Result<QueryExecutor::Source> QueryExecutor::HashJoin(
    sql::JoinType type, const Source& left, const Source& right,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const sql::Expr* residual, const std::vector<size_t>* project) {
  Source out;
  out.schema = RelSchema::Concat(left.schema, right.schema);

  BoundExprPtr residual_bound;
  if (residual != nullptr) {
    SILK_ASSIGN_OR_RETURN(residual_bound, BindExpr(*residual, out.schema));
  }

  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;
  left_cols.reserve(keys.size());
  right_cols.reserve(keys.size());
  for (const auto& [li, ri] : keys) {
    left_cols.push_back(li);
    right_cols.push_back(ri);
  }

  EncodedKeyIndex index;
  index.Reserve(right.size());
  std::string scratch;
  for (size_t r = 0; r < right.size(); ++r) {
    scratch.clear();
    // EncodeKey returns false on a NULL key column: such rows can
    // never match, so they are simply not indexed.
    if (!right.EncodeKey(r, right_cols, &scratch)) continue;
    ++stats_.keys_encoded;
    stats_.bytes_encoded += scratch.size();
    index.Insert(scratch, static_cast<uint32_t>(r));
  }

  ++stats_.hash_joins;
  const size_t left_width = left.schema.size();
  const size_t right_width = right.schema.size();
  Tuple left_scratch;
  size_t deadline_check = 0;
  for (size_t l = 0; l < left.size(); ++l) {
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    scratch.clear();
    bool matched = false;
    if (left.EncodeKey(l, left_cols, &scratch)) {
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      // The chain yields matches in ascending right-row order (rows were
      // inserted in row order), so equal-key output is deterministic in
      // right-row order — which fused streams rely on.
      uint32_t r = index.Find(scratch);
      if (project != nullptr) {
        // Fused: gather only the select-list cells of each match.
        for (; r != EncodedKeyIndex::kNil; r = index.NextRow(r)) {
          Tuple t;
          t.mutable_values().reserve(project->size());
          for (size_t c : *project) {
            t.Append(c < left_width ? left.Cell(l, c)
                                    : right.Cell(r, c - left_width));
          }
          out.rows.push_back(std::move(t));
        }
        continue;
      }
      for (; r != EncodedKeyIndex::kNil; r = index.NextRow(r)) {
        Tuple combined;
        combined.mutable_values().reserve(left_width + right_width);
        left.AppendRow(l, &combined);
        right.AppendRow(r, &combined);
        if (residual_bound &&
            residual_bound->Test(combined) != Tribool::kTrue) {
          continue;
        }
        matched = true;
        out.rows.push_back(std::move(combined));
      }
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      out.rows.push_back(NullPadded(left.Row(l, &left_scratch), right_width));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Result<QueryExecutor::Source> QueryExecutor::DisjunctiveHashJoin(
    sql::JoinType type, const Source& left, const Source& right,
    const sql::Expr& on) {
  std::vector<const Expr*> disjuncts;
  CollectDisjuncts(on, &disjuncts);
  if (disjuncts.size() < 2) {
    return Status::Unimplemented("not a disjunction");
  }

  struct Disjunct {
    std::vector<size_t> left_cols;   // key columns on the probe side
    std::vector<size_t> right_cols;  // key columns on the build side
    std::vector<BoundExprPtr> left_filters;
    std::vector<BoundExprPtr> right_filters;
    EncodedKeyIndex index;
  };
  std::vector<Disjunct> plans;
  plans.reserve(disjuncts.size());

  for (const Expr* d : disjuncts) {
    Disjunct plan;
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(*d, &conjuncts);
    for (const Expr* c : conjuncts) {
      EquiPair pair;
      if (AsColumnEquality(*c, &pair)) {
        auto li = left.schema.Resolve(pair.left->qualifier(), pair.left->name());
        auto ri =
            right.schema.Resolve(pair.right->qualifier(), pair.right->name());
        if (li.ok() && ri.ok()) {
          plan.left_cols.push_back(*li);
          plan.right_cols.push_back(*ri);
          continue;
        }
        li = left.schema.Resolve(pair.right->qualifier(), pair.right->name());
        ri = right.schema.Resolve(pair.left->qualifier(), pair.left->name());
        if (li.ok() && ri.ok()) {
          plan.left_cols.push_back(*li);
          plan.right_cols.push_back(*ri);
          continue;
        }
      }
      // Single-side predicate?
      std::vector<const RelSchema*> schemas = {&left.schema, &right.schema};
      int sole = SoleReferencedRelation(*c, schemas);
      if (sole == 0) {
        SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*c, left.schema));
        plan.left_filters.push_back(std::move(b));
      } else if (sole == 1) {
        SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*c, right.schema));
        plan.right_filters.push_back(std::move(b));
      } else {
        return Status::Unimplemented(
            "disjunct has a cross-side non-equality predicate");
      }
    }
    if (plan.left_cols.empty()) {
      return Status::Unimplemented("disjunct has no column equality");
    }
    plans.push_back(std::move(plan));
  }

  // Build one packed-key index per disjunct.
  std::string scratch;
  Tuple row_scratch;
  for (auto& plan : plans) {
    plan.index.Reserve(right.size());
    for (size_t r = 0; r < right.size(); ++r) {
      if (!plan.right_filters.empty()) {
        const Tuple& rrow = right.Row(r, &row_scratch);
        bool pass = true;
        for (const auto& f : plan.right_filters) {
          if (f->Test(rrow) != Tribool::kTrue) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
      }
      scratch.clear();
      if (!right.EncodeKey(r, plan.right_cols, &scratch)) continue;
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      plan.index.Insert(scratch, static_cast<uint32_t>(r));
    }
  }

  ++stats_.hash_joins;
  Source out;
  out.schema = RelSchema::Concat(left.schema, right.schema);
  const size_t right_width = right.schema.size();
  std::vector<uint32_t> match_ids;
  size_t deadline_check = 0;
  for (size_t l = 0; l < left.size(); ++l) {
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    const Tuple& lrow = left.Row(l, &row_scratch);
    match_ids.clear();
    for (const auto& plan : plans) {
      bool pass = true;
      for (const auto& f : plan.left_filters) {
        if (f->Test(lrow) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      scratch.clear();
      if (!EncodeJoinKey(lrow, plan.left_cols, &scratch)) continue;
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      for (uint32_t r = plan.index.Find(scratch);
           r != EncodedKeyIndex::kNil; r = plan.index.NextRow(r)) {
        match_ids.push_back(r);
      }
    }
    // Each disjunct's chain is already ascending, but the per-disjunct
    // match lists are concatenated and two disjuncts can select the same
    // right row, so this normalization pass is still required: it both
    // dedups across disjuncts and restores global right-row order (pinned
    // by the DisjunctiveJoinStreamOrder regression test).
    std::sort(match_ids.begin(), match_ids.end());
    match_ids.erase(std::unique(match_ids.begin(), match_ids.end()),
                    match_ids.end());
    if (match_ids.empty()) {
      if (type == sql::JoinType::kLeftOuter) {
        out.rows.push_back(NullPadded(lrow, right_width));
      }
      continue;
    }
    for (size_t r : match_ids) out.rows.push_back(right.AppendedTo(lrow, r));
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Result<QueryExecutor::Source> QueryExecutor::NestedLoopJoin(
    sql::JoinType type, const Source& left, const Source& right,
    const sql::Expr& on) {
  Source out;
  out.schema = RelSchema::Concat(left.schema, right.schema);
  SILK_ASSIGN_OR_RETURN(BoundExprPtr pred, BindExpr(on, out.schema));
  ++stats_.nested_loop_joins;
  const size_t right_width = right.schema.size();
  Tuple left_scratch;
  for (size_t l = 0; l < left.size(); ++l) {
    SILK_RETURN_IF_ERROR(CheckDeadline());
    const Tuple& lrow = left.Row(l, &left_scratch);
    bool matched = false;
    for (size_t r = 0; r < right.size(); ++r) {
      Tuple combined = right.AppendedTo(lrow, r);
      if (pred->Test(combined) == Tribool::kTrue) {
        matched = true;
        out.rows.push_back(std::move(combined));
      }
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      out.rows.push_back(NullPadded(lrow, right_width));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Status QueryExecutor::ApplyOrderBy(const sql::Query& query,
                                   const Source& preproj, Relation* result) {
  const size_t n = result->rows.size();
  // Bind each key against the output schema; fall back to the
  // pre-projection schema (single-core queries only).
  struct Key {
    BoundExprPtr expr;  // null when direct_col applies
    bool ascending;
    bool from_preprojection;
    int direct_col = -1;  // plain column ref: read the cell, skip Eval
  };
  std::vector<Key> bound_keys;
  for (const auto& o : query.order_by) {
    // A bare column ref resolves against the same schemas BindExpr would
    // use; encoding then reads the cell in place instead of paying a
    // bound-expression dispatch and a Value copy per row.
    if (o.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*o.expr);
      auto idx = result->schema.Resolve(c.qualifier(), c.name());
      if (idx.ok()) {
        bound_keys.push_back(
            {nullptr, o.ascending, false, static_cast<int>(*idx)});
        continue;
      }
      if (query.cores.size() == 1 && preproj.size() == n) {
        idx = preproj.schema.Resolve(c.qualifier(), c.name());
        if (idx.ok()) {
          bound_keys.push_back(
              {nullptr, o.ascending, true, static_cast<int>(*idx)});
          continue;
        }
      }
    }
    auto out_bound = BindExpr(*o.expr, result->schema);
    if (out_bound.ok()) {
      bound_keys.push_back({std::move(out_bound).value(), o.ascending, false});
      continue;
    }
    if (query.cores.size() == 1 && preproj.size() == n) {
      auto pre_bound = BindExpr(*o.expr, preproj.schema);
      if (pre_bound.ok()) {
        bound_keys.push_back({std::move(pre_bound).value(), o.ascending, true});
        continue;
      }
    }
    return Status::InvalidArgument("cannot resolve ORDER BY key '" +
                                   o.expr->ToSql() + "'");
  }

  // Cell of a direct-column key in row i: read in place from the output,
  // or gathered from the pre-projection source into `*tmp`.
  auto key_cell = [&](const Key& k, size_t i, Value* tmp) -> const Value& {
    const size_t col = static_cast<size_t>(k.direct_col);
    if (!k.from_preprojection) return result->rows[i].values()[col];
    *tmp = preproj.Cell(i, col);
    return *tmp;
  };
  Value tmp;

  // Fast path: at most two keys, all direct columns holding only non-null
  // numerics (the shape the view composer's skolem-key ORDER BYs take).
  // Each key packs into one machine word whose unsigned order equals the
  // encoded-segment order, so the sort runs over flat PODs and never
  // builds a byte buffer.
  if (!bound_keys.empty() && bound_keys.size() <= 2 &&
      std::all_of(bound_keys.begin(), bound_keys.end(),
                  [](const Key& k) { return k.direct_col >= 0; })) {
    bool numeric = true;
    for (const auto& k : bound_keys) {
      for (size_t i = 0; i < n && numeric; ++i) {
        const Value& v = key_cell(k, i, &tmp);
        // Tiebreaker-carrying magnitudes (>= 2^53) must take the byte
        // path: the word alone would order them differently.
        if (!(v.is_int64() || v.is_double()) || !NumericFitsWord(v)) {
          numeric = false;
        }
      }
      if (!numeric) break;
    }
    if (numeric) {
      struct WordRec {
        uint64_t k0;
        uint64_t k1;
        uint32_t idx;
      };
      std::vector<WordRec> recs(n);
      for (size_t i = 0; i < n; ++i) {
        uint64_t words[2] = {0, 0};
        for (size_t j = 0; j < bound_keys.size(); ++j) {
          const Key& k = bound_keys[j];
          uint64_t bits = OrderedNumericBits(key_cell(k, i, &tmp));
          words[j] = k.ascending ? bits : ~bits;
        }
        recs[i] = {words[0], words[1], static_cast<uint32_t>(i)};
      }
      stats_.keys_encoded += n;
      stats_.bytes_encoded += n * 8 * bound_keys.size();
      auto word_less = [](const WordRec& a, const WordRec& b) {
        if (a.k0 != b.k0) return a.k0 < b.k0;
        if (a.k1 != b.k1) return a.k1 < b.k1;
        return a.idx < b.idx;  // stable order on full ties
      };
      std::sort(recs.begin(), recs.end(), word_less);
      std::vector<Tuple> sorted;
      sorted.reserve(n);
      for (const WordRec& r : recs) {
        sorted.push_back(std::move(result->rows[r.idx]));
      }
      result->rows = std::move(sorted);
      stats_.rows_sorted += n;
      return Status::OK();
    }
  }

  // Encode one packed sort key per row (key_codec.h): ascending segments
  // use the order-preserving encoding directly, descending segments are
  // byte-complemented, so the whole composite key sorts by memcmp —
  // no variant dispatch in the comparator. Keys are packed back-to-back
  // in one flat buffer; `ends[i]` marks where row i's key stops.
  std::string buf;
  std::vector<size_t> ends(n + 1, 0);
  Tuple row_scratch;
  auto encode_key = [&](size_t i, std::string* out) {
    for (const auto& k : bound_keys) {
      if (k.direct_col >= 0) {
        const Value& v = key_cell(k, i, &tmp);
        if (k.ascending) {
          EncodeValue(v, out);
        } else {
          EncodeValueDescending(v, out);
        }
        continue;
      }
      Value v = k.expr->Eval(k.from_preprojection
                                 ? preproj.Row(i, &row_scratch)
                                 : result->rows[i]);
      if (k.ascending) {
        EncodeValue(v, out);
      } else {
        EncodeValueDescending(v, out);
      }
    }
  };
  buf.reserve(n * 9 * bound_keys.size());  // a numeric segment is 9 bytes
  for (size_t i = 0; i < n; ++i) {
    encode_key(i, &buf);
    ends[i + 1] = buf.size();
  }
  stats_.keys_encoded += n;
  stats_.bytes_encoded += buf.size();
  const char* base = buf.data();
  // Sort flat records instead of a bare permutation: each record inlines
  // the first eight key bytes (big-endian, zero-padded) so the vast
  // majority of comparisons resolve on one integer compare without
  // touching the key buffer.
  struct SortRec {
    uint64_t prefix;
    uint64_t off;
    uint32_t len;
    uint32_t idx;
  };
  std::vector<SortRec> recs(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t off = ends[i];
    const size_t len = ends[i + 1] - off;
    const auto* p = reinterpret_cast<const unsigned char*>(base + off);
    const size_t m = len < 8 ? len : 8;
    uint64_t prefix = 0;
    for (size_t b = 0; b < m; ++b) prefix = (prefix << 8) | p[b];
    prefix <<= 8 * (8 - m);
    recs[i] = {prefix, off, static_cast<uint32_t>(len),
               static_cast<uint32_t>(i)};
  }
  auto rec_less = [base](const SortRec& a, const SortRec& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.len > 8 && b.len > 8) {
      const size_t m = (a.len < b.len ? a.len : b.len) - 8;
      const int c = std::memcmp(base + a.off + 8, base + b.off + 8, m);
      if (c != 0) return c < 0;
    }
    if (a.len != b.len) return a.len < b.len;
    // Index tiebreak keeps equal-key rows in input order — the
    // same result stable_sort gave, without its merge buffer.
    return a.idx < b.idx;
  };
  std::sort(recs.begin(), recs.end(), rec_less);
  std::vector<Tuple> sorted;
  sorted.reserve(n);
  for (const SortRec& r : recs) {
    sorted.push_back(std::move(result->rows[r.idx]));
  }
  result->rows = std::move(sorted);
  stats_.rows_sorted += n;
  return Status::OK();
}

Result<std::vector<std::pair<std::string, uint64_t>>>
DatabaseExecutor::FetchTableVersions(const std::vector<std::string>& tables) {
  std::vector<std::pair<std::string, uint64_t>> versions;
  versions.reserve(tables.size());
  for (const std::string& name : tables) {
    SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(name));
    versions.emplace_back(name, table->version());
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

void DatabaseExecutor::set_metrics_registry(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    keys_encoded_counter_ = nullptr;
    key_bytes_counter_ = nullptr;
    return;
  }
  keys_encoded_counter_ =
      registry->counter("silkroute_engine_keys_encoded_total");
  key_bytes_counter_ =
      registry->counter("silkroute_engine_key_bytes_encoded_total");
}

}  // namespace silkroute::engine
