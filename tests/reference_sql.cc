#include "tests/reference_sql.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "sql/ast.h"
#include "sql/parser.h"

namespace silkroute::reference {
namespace {

using sql::BinaryOp;
using sql::Expr;

enum class Truth { kFalse, kTrue, kUnknown };

/// The name of one column of an intermediate relation.
struct ColumnName {
  std::string qualifier;
  std::string name;
};

struct Relation {
  std::vector<ColumnName> columns;
  std::vector<Tuple> rows;
};

/// The one column of `columns` that `qualifier.name` names (an empty
/// qualifier matches any).
Result<size_t> Resolve(const std::vector<ColumnName>& columns,
                       const std::string& qualifier, const std::string& name) {
  const std::string full = qualifier.empty() ? name : qualifier + "." + name;
  size_t found = columns.size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name != name) continue;
    if (!qualifier.empty() && columns[i].qualifier != qualifier) continue;
    if (found != columns.size()) {
      return Status::InvalidArgument("ambiguous column '" + full + "'");
    }
    found = i;
  }
  if (found == columns.size()) {
    return Status::NotFound("no column '" + full + "'");
  }
  return found;
}

/// A row seen as the concatenation of two rows, so a join can test its
/// condition before it builds the combined row.
struct RowPair {
  const Tuple& left;
  const Tuple* right = nullptr;  // null: the row is `left` alone

  const Value& operator[](size_t i) const {
    return i < left.size() ? left[i] : (*right)[i - left.size()];
  }
};

/// An expression with every column reference resolved to a position.
struct Bound {
  Expr::Kind kind = Expr::Kind::kLiteral;
  size_t column = 0;            // kColumnRef
  Value literal;                // kLiteral
  BinaryOp op = BinaryOp::kEq;  // kBinary
  bool negated = false;         // kIsNull
  std::vector<Bound> operands;
};

/// Binds a scalar: a column reference or a literal.
Result<Bound> BindValue(const Expr& e, const std::vector<ColumnName>& columns) {
  Bound b;
  b.kind = e.kind();
  if (e.kind() == Expr::Kind::kColumnRef) {
    const auto& ref = static_cast<const sql::ColumnRefExpr&>(e);
    SILK_ASSIGN_OR_RETURN(b.column,
                          Resolve(columns, ref.qualifier(), ref.name()));
    return b;
  }
  if (e.kind() == Expr::Kind::kLiteral) {
    b.literal = static_cast<const sql::LiteralExpr&>(e).value();
    return b;
  }
  return Status::Unimplemented("reference scalar: " + e.ToSql());
}

/// Binds a predicate: comparisons of scalars, AND, OR, NOT, IS [NOT] NULL.
Result<Bound> BindPredicate(const Expr& e,
                            const std::vector<ColumnName>& columns) {
  Bound b;
  b.kind = e.kind();
  switch (e.kind()) {
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpr&>(e);
      b.op = bin.op();
      switch (bin.op()) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          SILK_ASSIGN_OR_RETURN(Bound l, BindPredicate(bin.left(), columns));
          SILK_ASSIGN_OR_RETURN(Bound r, BindPredicate(bin.right(), columns));
          b.operands.push_back(std::move(l));
          b.operands.push_back(std::move(r));
          return b;
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          SILK_ASSIGN_OR_RETURN(Bound l, BindValue(bin.left(), columns));
          SILK_ASSIGN_OR_RETURN(Bound r, BindValue(bin.right(), columns));
          b.operands.push_back(std::move(l));
          b.operands.push_back(std::move(r));
          return b;
        }
        default:
          return Status::Unimplemented("reference predicate: " + e.ToSql());
      }
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(e);
      SILK_ASSIGN_OR_RETURN(Bound operand, BindPredicate(n.operand(), columns));
      b.operands.push_back(std::move(operand));
      return b;
    }
    case Expr::Kind::kIsNull: {
      const auto& isn = static_cast<const sql::IsNullExpr&>(e);
      b.negated = isn.negated();
      SILK_ASSIGN_OR_RETURN(Bound operand, BindValue(isn.operand(), columns));
      b.operands.push_back(std::move(operand));
      return b;
    }
    default:
      return Status::Unimplemented("reference predicate: " + e.ToSql());
  }
}

const Value& Eval(const Bound& b, const RowPair& row) {
  return b.kind == Expr::Kind::kColumnRef ? row[b.column] : b.literal;
}

Truth Test(const Bound& b, const RowPair& row) {
  if (b.kind == Expr::Kind::kNot) {
    const Truth t = Test(b.operands[0], row);
    if (t == Truth::kUnknown) return t;
    return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
  }
  if (b.kind == Expr::Kind::kIsNull) {
    const bool is_null = Eval(b.operands[0], row).is_null();
    return is_null != b.negated ? Truth::kTrue : Truth::kFalse;
  }
  if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
    const Truth l = Test(b.operands[0], row);
    const Truth r = Test(b.operands[1], row);
    const Truth decisive =
        b.op == BinaryOp::kAnd ? Truth::kFalse : Truth::kTrue;
    if (l == decisive || r == decisive) return decisive;
    if (l == Truth::kUnknown || r == Truth::kUnknown) return Truth::kUnknown;
    return l;
  }
  const Value& l = Eval(b.operands[0], row);
  const Value& r = Eval(b.operands[1], row);
  if (l.is_null() || r.is_null()) return Truth::kUnknown;
  const int c = l.Compare(r);
  bool result = false;
  switch (b.op) {
    case BinaryOp::kEq: result = c == 0; break;
    case BinaryOp::kNe: result = c != 0; break;
    case BinaryOp::kLt: result = c < 0; break;
    case BinaryOp::kLe: result = c <= 0; break;
    case BinaryOp::kGt: result = c > 0; break;
    case BinaryOp::kGe: result = c >= 0; break;
    default: break;
  }
  return result ? Truth::kTrue : Truth::kFalse;
}

bool Passes(const std::vector<Bound>& predicates, const RowPair& row) {
  for (const Bound& p : predicates) {
    if (Test(p, row) != Truth::kTrue) return false;
  }
  return true;
}

Tuple Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values();
  values.insert(values.end(), right.values().begin(), right.values().end());
  return Tuple(std::move(values));
}

void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind() == Expr::Kind::kBinary) {
    const auto& bin = static_cast<const sql::BinaryExpr&>(e);
    if (bin.op() == BinaryOp::kAnd) {
      SplitConjuncts(bin.left(), out);
      SplitConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(&e);
}

void CollectColumnRefs(const Expr& e,
                       std::vector<const sql::ColumnRefExpr*>* out) {
  switch (e.kind()) {
    case Expr::Kind::kColumnRef:
      out->push_back(static_cast<const sql::ColumnRefExpr*>(&e));
      return;
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpr&>(e);
      CollectColumnRefs(bin.left(), out);
      CollectColumnRefs(bin.right(), out);
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

Result<Relation> EvalTableRef(const Database& db, const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db.GetTable(base.table()));
      Relation rel;
      for (const ColumnDef& col : table->schema().columns()) {
        rel.columns.push_back({base.binding_name(), col.name});
      }
      for (size_t r = 0; r < table->num_rows(); ++r) {
        rel.rows.push_back(table->Row(r));
      }
      return rel;
    }
    case sql::TableRef::Kind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      SILK_ASSIGN_OR_RETURN(Relation left, EvalTableRef(db, join.left()));
      SILK_ASSIGN_OR_RETURN(Relation right, EvalTableRef(db, join.right()));
      Relation out;
      out.columns = left.columns;
      out.columns.insert(out.columns.end(), right.columns.begin(),
                         right.columns.end());
      SILK_ASSIGN_OR_RETURN(Bound on, BindPredicate(join.on(), out.columns));
      const Tuple null_right(std::vector<Value>(right.columns.size()));
      for (const Tuple& l : left.rows) {
        bool matched = false;
        for (const Tuple& r : right.rows) {
          if (Test(on, RowPair{l, &r}) == Truth::kTrue) {
            out.rows.push_back(Concat(l, r));
            matched = true;
          }
        }
        if (!matched && join.join_type() == sql::JoinType::kLeftOuter) {
          out.rows.push_back(Concat(l, null_right));
        }
      }
      return out;
    }
    case sql::TableRef::Kind::kDerivedTable:
      break;
  }
  return Status::Unimplemented("reference: derived tables");
}

/// The FROM items' cross product filtered by WHERE. Items join in FROM
/// order; each conjunct is tested as soon as the last item it names has
/// joined, which (for inner joins) is the same relation as filtering the
/// full product at the end, only smaller along the way.
Result<Relation> EvalFromWhere(const Database& db,
                               const sql::SelectCore& core) {
  std::vector<Relation> items;
  std::vector<ColumnName> all_columns;
  std::vector<size_t> item_of_column;
  for (const auto& ref : core.from) {
    SILK_ASSIGN_OR_RETURN(Relation item, EvalTableRef(db, *ref));
    for (const ColumnName& c : item.columns) {
      all_columns.push_back(c);
      item_of_column.push_back(items.size());
    }
    items.push_back(std::move(item));
  }
  if (items.empty()) return Status::Unimplemented("reference: empty FROM");

  std::vector<const Expr*> conjuncts;
  if (core.where) SplitConjuncts(*core.where, &conjuncts);
  // The last FROM item each conjunct names (0 when it names none).
  std::vector<size_t> ready_at(conjuncts.size(), 0);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    std::vector<const sql::ColumnRefExpr*> refs;
    CollectColumnRefs(*conjuncts[i], &refs);
    for (const sql::ColumnRefExpr* ref : refs) {
      SILK_ASSIGN_OR_RETURN(
          size_t col, Resolve(all_columns, ref->qualifier(), ref->name()));
      ready_at[i] = std::max(ready_at[i], item_of_column[col]);
    }
  }
  auto bind_ready = [&](size_t item, const std::vector<ColumnName>& columns)
      -> Result<std::vector<Bound>> {
    std::vector<Bound> bound;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (ready_at[i] != item) continue;
      SILK_ASSIGN_OR_RETURN(Bound b, BindPredicate(*conjuncts[i], columns));
      bound.push_back(std::move(b));
    }
    return bound;
  };

  Relation current = std::move(items[0]);
  {
    SILK_ASSIGN_OR_RETURN(std::vector<Bound> filters,
                          bind_ready(0, current.columns));
    std::vector<Tuple> kept;
    for (Tuple& row : current.rows) {
      if (Passes(filters, RowPair{row})) kept.push_back(std::move(row));
    }
    current.rows = std::move(kept);
  }
  for (size_t k = 1; k < items.size(); ++k) {
    Relation next;
    next.columns = current.columns;
    next.columns.insert(next.columns.end(), items[k].columns.begin(),
                        items[k].columns.end());
    SILK_ASSIGN_OR_RETURN(std::vector<Bound> filters,
                          bind_ready(k, next.columns));
    for (const Tuple& l : current.rows) {
      for (const Tuple& r : items[k].rows) {
        if (Passes(filters, RowPair{l, &r})) next.rows.push_back(Concat(l, r));
      }
    }
    current = std::move(next);
  }
  return current;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64()) return b.is_int64() && a.AsInt64() == b.AsInt64();
  if (a.is_double()) {
    if (!b.is_double()) return false;
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return b.is_string() && a.AsString() == b.AsString();
}

}  // namespace

bool SameRepresentation(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

Result<ReferenceResult> EvaluateSql(const Database& db, std::string_view sql) {
  SILK_ASSIGN_OR_RETURN(sql::QueryPtr query, sql::ParseQuery(sql));
  if (query->cores.size() != 1) {
    return Status::Unimplemented("reference: UNION ALL");
  }
  const sql::SelectCore& core = query->cores[0];
  SILK_ASSIGN_OR_RETURN(Relation from, EvalFromWhere(db, core));

  // Projection. Output columns are named the way the select list names
  // them, which is what ORDER BY keys resolve against first.
  if (core.select_star) return Status::Unimplemented("reference: SELECT *");
  std::vector<ColumnName> out_columns;
  std::vector<Bound> select;
  for (const sql::SelectItem& item : core.select_list) {
    SILK_ASSIGN_OR_RETURN(Bound b, BindValue(*item.expr, from.columns));
    select.push_back(std::move(b));
    if (!item.alias.empty()) {
      out_columns.push_back({"", item.alias});
    } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      out_columns.push_back({ref.qualifier(), ref.name()});
    } else {
      out_columns.push_back(
          {"", "col" + std::to_string(out_columns.size() + 1)});
    }
  }

  // ORDER BY keys read the output row when they name exactly one output
  // column. Otherwise they read the FROM row — which DISTINCT forbids,
  // since one output row then stands for many FROM rows.
  struct SortKey {
    Bound expr;
    bool from_output = false;
    bool ascending = true;
  };
  std::vector<SortKey> keys;
  for (const sql::OrderItem& o : query->order_by) {
    SortKey key;
    key.ascending = o.ascending;
    if (o.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*o.expr);
      auto col = Resolve(out_columns, ref.qualifier(), ref.name());
      if (col.ok()) {
        key.expr.kind = Expr::Kind::kColumnRef;
        key.expr.column = *col;
        key.from_output = true;
        keys.push_back(std::move(key));
        continue;
      }
    }
    if (core.distinct) {
      return Status::InvalidArgument("ORDER BY key '" + o.expr->ToSql() +
                                     "' is not a DISTINCT output column");
    }
    SILK_ASSIGN_OR_RETURN(key.expr, BindValue(*o.expr, from.columns));
    keys.push_back(std::move(key));
  }

  // One (output row, sort key) per FROM row; DISTINCT merges equal output
  // rows into one class and remembers each exact form it saw.
  std::vector<ReferenceRow> rows;
  std::vector<Tuple> row_keys;
  auto tuple_less = [](const Tuple& a, const Tuple& b) {
    return a.Compare(b) < 0;
  };
  std::map<Tuple, size_t, decltype(tuple_less)> class_of(tuple_less);
  for (const Tuple& row : from.rows) {
    Tuple out;
    for (const Bound& b : select) out.Append(Eval(b, RowPair{row}));
    Tuple key;
    for (const SortKey& k : keys) {
      key.Append(k.from_output ? out[k.expr.column]
                               : Eval(k.expr, RowPair{row}));
    }
    if (!core.distinct) {
      rows.push_back({{std::move(out)}});
      row_keys.push_back(std::move(key));
      continue;
    }
    auto [it, inserted] = class_of.emplace(out, rows.size());
    if (inserted) {
      rows.push_back({{std::move(out)}});
      row_keys.push_back(std::move(key));
      continue;
    }
    std::vector<Tuple>& forms = rows[it->second].forms;
    if (std::none_of(forms.begin(), forms.end(), [&](const Tuple& f) {
          return SameRepresentation(f, out);
        })) {
      forms.push_back(std::move(out));
    }
  }

  ReferenceResult result;
  result.num_columns = out_columns.size();
  if (keys.empty()) {
    result.runs.push_back(std::move(rows));
    return result;
  }
  // Stable sort by the keys, then cut runs where the key changes.
  auto key_cmp = [&](size_t a, size_t b) {
    for (size_t j = 0; j < keys.size(); ++j) {
      const int c = row_keys[a][j].Compare(row_keys[b][j]);
      if (c != 0) return keys[j].ascending ? c : -c;
    }
    return 0;
  };
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return key_cmp(a, b) < 0;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || key_cmp(order[i - 1], order[i]) != 0) {
      result.runs.emplace_back();
    }
    result.runs.back().push_back(std::move(rows[order[i]]));
  }
  return result;
}

}  // namespace silkroute::reference
