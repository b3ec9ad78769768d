// A deliberately naive SQL evaluator: the independent oracle behind
// differential_test. It shares nothing with the engine under test (no
// planner, no key codec, no columnar storage, no expression binder from
// src/engine) — only the SQL parser, Value, and Table::Row() (its exact
// round-trip is pinned by columnar_test against the inserted tuples). Every
// operator is the textbook definition, written for obviousness:
//
//  - FROM items are combined by nested loops (cross product), and each
//    WHERE conjunct filters as soon as every table it names has joined;
//  - JOIN ... ON is a nested loop; LEFT OUTER pads unmatched left rows
//    with NULLs;
//  - predicates use SQL three-valued logic over Value::Compare (a NULL
//    operand makes a comparison unknown; only true passes);
//  - DISTINCT groups rows that compare equal (NULL equals NULL);
//  - ORDER BY is a stable sort by Value::Compare, NULLs first ascending.
//
// Supported subset: one SELECT core with a FROM list (no UNION ALL, no
// derived tables, no SELECT *), column-ref and literal select items,
// comparisons, AND/OR/NOT, IS [NOT] NULL, inner and left outer joins,
// DISTINCT, ORDER BY. Anything else returns Unimplemented.
#ifndef SILKROUTE_TESTS_REFERENCE_SQL_H_
#define SILKROUTE_TESTS_REFERENCE_SQL_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/tuple.h"

namespace silkroute::reference {

/// One expected output row. Under DISTINCT a row stands for a class of
/// rows that compare equal, and SQL lets an engine keep any member of the
/// class: `forms` lists every exact representation (Int64 vs Double, -0.0
/// vs 0.0) the class took. Without DISTINCT `forms` has exactly one entry.
struct ReferenceRow {
  std::vector<Tuple> forms;
};

/// The expected result. Without ORDER BY, `runs` holds a single run: the
/// result as a multiset. With ORDER BY, each run holds the rows whose sort
/// keys compare equal, and the runs come in sort order; the order of rows
/// inside one run is left to the engine.
struct ReferenceResult {
  size_t num_columns = 0;
  std::vector<std::vector<ReferenceRow>> runs;

  size_t num_rows() const {
    size_t n = 0;
    for (const auto& run : runs) n += run.size();
    return n;
  }
};

/// Parses and evaluates `sql` against `db`.
Result<ReferenceResult> EvaluateSql(const Database& db, std::string_view sql);

/// Exact identity of two rows: same arity, and each pair of cells has the
/// same representation (Int64(3) differs from Double(3.0), -0.0 from 0.0,
/// NULL equals only NULL).
bool SameRepresentation(const Tuple& a, const Tuple& b);

}  // namespace silkroute::reference

#endif  // SILKROUTE_TESTS_REFERENCE_SQL_H_
