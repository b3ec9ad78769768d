// Differential testing harness: the engine against an independent
// reference (tests/reference_sql.h), a nested-loop evaluator that shares
// no planner, key codec, storage path, or expression code with the engine.
// A seeded generator produces random schemas, NULL-heavy data, and random
// queries (multi-way joins, left outer joins, filters, DISTINCT, ORDER BY
// over mixed-type keys). For every query:
//
//  - the engine's rows must equal the reference's as a multiset with
//    exact representation (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise);
//    under DISTINCT, each engine row must be one of the exact forms its
//    class of equal rows took, since SQL lets an engine keep any of them;
//  - with ORDER BY, the engine's rows must fall into the reference's runs
//    of equal sort keys, position by position: rows [0, n1) carry the
//    smallest key, [n1, n2) the next, and so on;
//  - a query the reference rejects (an ORDER BY key outside a DISTINCT
//    select list) must fail in the engine too.
//
// Failures print the seed and the SQL, so a reproduction is one copy-paste
// away.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "tests/reference_sql.h"

namespace silkroute::engine {
namespace {

// All randomness goes through rng() % n — never std::uniform_*_distribution,
// whose output is implementation-defined and would break seed reproduction
// across standard libraries.
using Rng = std::mt19937;

size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng() % n); }
bool Chance(Rng& rng, uint32_t percent) { return rng() % 100 < percent; }

Value RandomDoubleColValue(Rng& rng) {
  // A kDouble column accepts int64s too, so this column carries the
  // cross-type Compare/Hash semantics (3 vs 3.0) and the giant-magnitude
  // tiebreaker regime into join keys, DISTINCT, and ORDER BY.
  static const double kDoubles[] = {-1e300, -2.5,  -0.5, -0.0, 0.0,
                                    0.5,    3.0,   7.0,  1e15, 9007199254740994.0};
  constexpr int64_t kExact = int64_t{1} << 53;
  switch (rng() % 10) {
    case 0:
    case 1:
    case 2:
      return Value::Int64(static_cast<int64_t>(rng() % 8));
    case 3:
      return Value::Int64(kExact + static_cast<int64_t>(rng() % 3));
    case 4:
      return Value::Int64(-kExact - static_cast<int64_t>(rng() % 3));
    default:
      return Value::Double(kDoubles[rng() % 10]);
  }
}

Value RandomStringColValue(Rng& rng) {
  static const char* kStrings[] = {"", "a", "ab", "b", "x", "yy", "zzz"};
  return Value::String(kStrings[rng() % 7]);
}

/// Random schema + NULL-heavy data. Every table is
///   tN(k0 INT64 NULL, k1 INT64 NULL, d0 DOUBLE NULL, s0 STRING NULL)
/// so any generated column reference is valid against any table; the
/// small k domains make joins productive without exploding.
struct GenDb {
  Database db;
  size_t num_tables = 0;
};

void BuildDatabaseInto(Rng& rng, GenDb* gen) {
  const size_t num_tables = 2 + Pick(rng, 3);  // 2..4
  for (size_t t = 0; t < num_tables; ++t) {
    const std::string name = "t" + std::to_string(t);
    TableSchema schema(name, {
                                 {"k0", DataType::kInt64, /*nullable=*/true},
                                 {"k1", DataType::kInt64, true},
                                 {"d0", DataType::kDouble, true},
                                 {"s0", DataType::kString, true},
                             });
    ASSERT_TRUE(gen->db.CreateTable(std::move(schema)).ok())
        << "CreateTable " << name;
    const size_t rows = 20 + Pick(rng, 61);  // 20..80
    Table* table = *gen->db.GetTable(name);
    for (size_t r = 0; r < rows; ++r) {
      Tuple row{
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 30) ? Value::Null() : RandomDoubleColValue(rng),
          Chance(rng, 20) ? Value::Null() : RandomStringColValue(rng),
      };
      ASSERT_TRUE(table->Insert(std::move(row)).ok());
    }
  }
  gen->num_tables = num_tables;  // set only after every insert succeeded
}

const char* RandomColumn(Rng& rng) {
  static const char* kCols[] = {"k0", "k1", "d0", "s0"};
  return kCols[rng() % 4];
}

std::string Qualified(size_t table, const char* col) {
  return "t" + std::to_string(table) + "." + col;
}

/// One random query over tables t0..t{use-1}. Shapes:
///  - comma FROM list with equijoin WHERE conjuncts (the greedy hash-join
///    planner; dropping a conjunct occasionally forces a cross product),
///  - LEFT OUTER JOIN ... ON (two tables),
/// plus optional single-table filters, DISTINCT, and 1-2 ORDER BY keys.
std::string GenerateSql(Rng& rng, size_t num_tables) {
  const size_t use = 2 + Pick(rng, num_tables - 1);  // 2..num_tables
  const bool outer = use == 2 && Chance(rng, 25);

  std::ostringstream sql;
  sql << "SELECT ";
  if (Chance(rng, 30)) sql << "DISTINCT ";
  const size_t num_select = 1 + Pick(rng, 4);
  for (size_t i = 0; i < num_select; ++i) {
    if (i > 0) sql << ", ";
    sql << Qualified(Pick(rng, use), RandomColumn(rng));
  }

  std::vector<std::string> where;
  if (outer) {
    sql << " FROM t0 LEFT OUTER JOIN t1 ON t0.k" << rng() % 2 << " = t1.k"
        << rng() % 2;
    if (Chance(rng, 30)) {
      sql << " AND t0.k" << rng() % 2 << " = t1.k" << rng() % 2;
    }
  } else {
    sql << " FROM ";
    for (size_t t = 0; t < use; ++t) {
      if (t > 0) sql << ", ";
      sql << "t" << t;
    }
    for (size_t t = 0; t + 1 < use; ++t) {
      // 10%: drop the conjunct, leaving a cross product.
      if (Chance(rng, 10)) continue;
      where.push_back(Qualified(t, rng() % 2 ? "k0" : "k1") + " = " +
                      Qualified(t + 1, rng() % 2 ? "k0" : "k1"));
    }
  }

  // Single-table filters, pushed down by the planner.
  if (Chance(rng, 40)) {
    where.push_back(Qualified(Pick(rng, use), rng() % 2 ? "k0" : "k1") +
                    " = " + std::to_string(rng() % 10));
  }
  if (Chance(rng, 20)) {
    where.push_back(Qualified(Pick(rng, use), "s0") + " IS NOT NULL");
  }
  if (Chance(rng, 15)) {
    where.push_back(Qualified(Pick(rng, use), "d0") + " = 3");  // cross-type
  }
  if (!where.empty()) {
    sql << " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql << " AND ";
      sql << where[i];
    }
  }

  if (Chance(rng, 50)) {
    sql << " ORDER BY " << Qualified(Pick(rng, use), RandomColumn(rng));
    if (Chance(rng, 40)) sql << " DESC";
    if (Chance(rng, 40)) {
      sql << ", " << Qualified(Pick(rng, use), RandomColumn(rng));
      if (Chance(rng, 40)) sql << " DESC";
    }
  }
  return sql.str();
}

std::string RowToString(const Tuple& row) {
  std::ostringstream os;
  os << "(";
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row[c];
    if (c > 0) os << ", ";
    if (v.is_null()) {
      os << "NULL";
    } else if (v.is_int64()) {
      os << "i:" << v.AsInt64();
    } else if (v.is_double()) {
      os << "d:" << v.AsDouble();
    } else {
      os << "s:'" << v.AsString() << "'";
    }
  }
  os << ")";
  return os.str();
}

/// Orders rows by Value::Compare column by column, then by representation
/// (int64 before double, then bit pattern), so two rows are equivalent
/// exactly when they are identical. Rows that compare equal but differ in
/// representation stay adjacent, which lets a DISTINCT class's engine
/// representative line up with the class's first reference form.
bool RowLess(const Tuple& a, const Tuple& b) {
  const int c = a.Compare(b);
  if (c != 0) return c < 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const Value& x = a[i];
    const Value& y = b[i];
    if (x.is_int64() != y.is_int64()) return x.is_int64();
    if (x.is_double() && y.is_double()) {
      const double dx = x.AsDouble();
      const double dy = y.AsDouble();
      uint64_t bx, by;
      std::memcpy(&bx, &dx, sizeof(bx));
      std::memcpy(&by, &dy, sizeof(by));
      if (bx != by) return bx < by;
    }
  }
  return false;
}

/// Checks the engine's result against the reference's runs; see the file
/// comment for what must hold.
void ExpectMatchesReference(const Relation& engine,
                            const reference::ReferenceResult& expected,
                            const std::string& repro) {
  ASSERT_EQ(engine.schema.size(), expected.num_columns) << repro;
  ASSERT_EQ(engine.rows.size(), expected.num_rows()) << repro;
  size_t begin = 0;
  for (size_t run = 0; run < expected.runs.size(); ++run) {
    std::vector<reference::ReferenceRow> want = expected.runs[run];
    std::vector<Tuple> got(engine.rows.begin() + begin,
                           engine.rows.begin() + begin + want.size());
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(),
              [](const reference::ReferenceRow& a,
                 const reference::ReferenceRow& b) {
                return RowLess(a.forms[0], b.forms[0]);
              });
    for (size_t i = 0; i < got.size(); ++i) {
      const std::vector<Tuple>& forms = want[i].forms;
      const bool found =
          std::any_of(forms.begin(), forms.end(), [&](const Tuple& form) {
            return reference::SameRepresentation(form, got[i]);
          });
      ASSERT_TRUE(found) << repro << "\nrows [" << begin << ", "
                         << begin + want.size() << ") are sort-key run "
                         << run << "; engine row " << RowToString(got[i])
                         << " vs reference " << RowToString(forms[0])
                         << (forms.size() > 1 ? " (or another form)" : "");
    }
    begin += want.size();
  }
}

TEST(DifferentialTest, EngineMatchesIndependentReference) {
  // 500+ random queries in tier-1. Override with SILK_DIFF_QUERIES for
  // deeper soak runs.
  int num_queries = 500;
  if (const char* env = std::getenv("SILK_DIFF_QUERIES")) {
    num_queries = std::atoi(env);
  }
  constexpr uint32_t kBaseSeed = 20260805;

  int checked = 0;
  int nonempty = 0;
  int ordered = 0;
  int rejected = 0;
  for (int q = 0; q < num_queries; ++q) {
    const uint32_t seed = kBaseSeed + static_cast<uint32_t>(q);
    Rng rng(seed);
    GenDb gen;
    {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      Rng db_rng(seed * 2654435761u);
      BuildDatabaseInto(db_rng, &gen);
      ASSERT_GT(gen.num_tables, 0u);  // builder ASSERT fired if zero
    }
    const std::string sql = GenerateSql(rng, gen.num_tables);
    const std::string repro = "seed=" + std::to_string(seed) + "\nsql: " + sql;

    auto expected = reference::EvaluateSql(gen.db, sql);
    QueryExecutor executor(&gen.db);
    auto actual = executor.ExecuteSql(sql);
    ASSERT_EQ(actual.ok(), expected.ok())
        << repro << "\nengine: " << actual.status()
        << "\nreference: " << expected.status();
    if (expected.ok()) {
      ExpectMatchesReference(*actual, *expected, repro);
      if (::testing::Test::HasFatalFailure()) return;
      if (expected->num_rows() > 0) ++nonempty;
      if (expected->runs.size() > 1) ++ordered;
    } else {
      ++rejected;
    }
    ++checked;
  }
  EXPECT_EQ(checked, num_queries);
  // The comparison must not be vacuous: most queries return rows, and
  // ORDER BY splits results into several runs.
  EXPECT_GT(nonempty, num_queries / 2);
  EXPECT_GT(ordered, 0);
  EXPECT_LT(rejected, num_queries / 4);
}

}  // namespace
}  // namespace silkroute::engine
