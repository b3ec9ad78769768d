// Tests for the columnar base storage (DESIGN.md §16):
//
//  - ColumnVector round-trips: null bitmap + exact Value identity for
//    every value type a column can hold, including int64 cells inside a
//    kDouble column, -0.0 vs 0.0 bit patterns, and the ±2^53 tiebreaker
//    magnitudes;
//  - string-pool stability under interleaved Reserve/append growth;
//  - the column store as the only copy of a row: Table::Row(pos) gives
//    back exactly the tuple inserted at `pos` (by representation), through
//    both insert paths; DataByteSize/TotalByteSize read the columns; an
//    index built after a load equals one maintained across the inserts;
//  - version()/RowsAppendedSince semantics — the result cache's freshness
//    key must go conservatively stale on every commit, never wrongly
//    fresh;
//  - both insert paths reject a malformed row (wrong arity, NULL in a
//    non-nullable column, a value outside the column's type) and leave
//    rows, columns, version, and indexes untouched;
//  - a seeded mutation-interleaved republish harness (mirror of
//    result_cache_test.cc): warm cached publishes must stay byte-identical
//    to fresh uncached ones while a writer appends rows between
//    publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/result_cache.h"
#include "relational/columnar.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute {
namespace {

/// Exact representation identity (the differential harness's notion):
/// Int64(3) != Double(3.0), -0.0 != 0.0 bitwise.
bool ValueIdentical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64() != b.is_int64() || a.is_double() != b.is_double() ||
      a.is_string() != b.is_string()) {
    return false;
  }
  if (a.is_int64()) return a.AsInt64() == b.AsInt64();
  if (a.is_double()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.AsString() == b.AsString();
}

TEST(ColumnVectorTest, NullBitmapRoundTripsEveryValueType) {
  // kInt64 column: int64s and NULLs.
  {
    ColumnVector cv(DataType::kInt64);
    const std::vector<Value> corpus = {
        Value::Int64(0), Value::Null(), Value::Int64(-1),
        Value::Int64(INT64_MIN), Value::Int64(INT64_MAX), Value::Null(),
        Value::Int64((int64_t{1} << 53) + 1),
        Value::Int64(-(int64_t{1} << 53) - 1)};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
      if (!corpus[i].is_null()) {
        EXPECT_TRUE(cv.CellIsInt64(i)) << "cell " << i;
        EXPECT_EQ(cv.Int64At(i), corpus[i].AsInt64()) << "cell " << i;
      }
    }
  }
  // kDouble column: doubles, *int64s* (legal per Table::Insert's widened
  // type check), and NULLs. The exact subtype must survive.
  {
    ColumnVector cv(DataType::kDouble);
    const std::vector<Value> corpus = {
        Value::Double(-0.0), Value::Double(0.0), Value::Null(),
        Value::Double(-1e300), Value::Double(9007199254740994.0),
        Value::Int64(3), Value::Double(3.0), Value::Null(),
        Value::Int64((int64_t{1} << 53) + 1)};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
      if (!corpus[i].is_null()) {
        EXPECT_EQ(cv.CellIsInt64(i), corpus[i].is_int64()) << "cell " << i;
      }
    }
    // -0.0 and 0.0 are distinct bit patterns in storage.
    const double neg = cv.DoubleAt(0);
    const double pos = cv.DoubleAt(1);
    EXPECT_NE(std::memcmp(&neg, &pos, sizeof(neg)), 0);
  }
  // kString column: strings (embedded NULs included) and NULLs. A NULL
  // string cell and an empty string cell must stay distinguishable.
  {
    ColumnVector cv(DataType::kString);
    const std::vector<Value> corpus = {
        Value::String(""), Value::Null(), Value::String("abc"),
        Value::String(std::string("a\0b", 3)), Value::Null(),
        Value::String(std::string(1000, 'x'))};
    for (const Value& v : corpus) cv.Append(v);
    ASSERT_EQ(cv.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(cv.IsNull(i), corpus[i].is_null()) << "cell " << i;
      EXPECT_TRUE(ValueIdentical(cv.ValueAt(i), corpus[i])) << "cell " << i;
    }
    EXPECT_FALSE(cv.IsNull(0));  // empty string is not NULL
    EXPECT_TRUE(cv.IsNull(1));
  }
}

TEST(ColumnVectorTest, StringPoolStableUnderReserveAndAppendGrowth) {
  ColumnVector cv(DataType::kString);
  std::vector<std::string> expected;
  for (int round = 0; round < 4; ++round) {
    // Interleave Reserve with appends whose sizes force repeated pool
    // reallocation; earlier cells must keep reading back exactly.
    cv.Reserve(100);
    for (int i = 0; i < 100; ++i) {
      std::string s = "r" + std::to_string(round) + ":" + std::to_string(i) +
                      std::string(static_cast<size_t>(i % 37), 'p');
      expected.push_back(s);
      cv.Append(Value::String(std::move(s)));
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(cv.StringAt(i), expected[i]) << "cell " << i << " after round "
                                             << round;
    }
  }
}

std::unique_ptr<Table> MakeMixedTable(size_t rows) {
  TableSchema schema("t", {{"k", DataType::kInt64, /*nullable=*/true},
                           {"d", DataType::kDouble, true},
                           {"s", DataType::kString, true}});
  auto table = std::make_unique<Table>(std::move(schema));
  std::mt19937 rng(8u);
  for (size_t r = 0; r < rows; ++r) {
    Tuple row{
        rng() % 5 == 0 ? Value::Null()
                       : Value::Int64(static_cast<int64_t>(rng() % 10)),
        rng() % 4 == 0
            ? Value::Null()
            : (rng() % 2 ? Value::Int64(static_cast<int64_t>(rng() % 7))
                         : Value::Double(static_cast<double>(rng() % 7) - 0.5)),
        rng() % 3 == 0 ? Value::Null()
                       : Value::String("s" + std::to_string(rng() % 9)),
    };
    EXPECT_TRUE(table->Insert(std::move(row)).ok());
  }
  return table;
}

/// Rows covering every cell representation a table can hold: int64
/// extremes and the 2^53±1 tiebreaker magnitudes, int64 cells inside a
/// kDouble column, -0.0 next to 0.0, empty strings, strings holding NUL
/// bytes, and NULL in every column type. Column corpora have coprime
/// lengths, so the rows pair each cell with many neighbours.
std::vector<Tuple> EdgeCaseRows() {
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> ints = {
      Value::Int64(INT64_MIN), Value::Int64(INT64_MAX), Value::Int64(0),
      Value::Null(),           Value::Int64(-1),        Value::Int64(two53 + 1),
      Value::Int64(two53 - 1), Value::Int64(-two53 - 1)};
  const std::vector<Value> doubles = {
      Value::Double(-0.0),  Value::Double(0.0),
      Value::Int64(3),      Value::Double(3.0),
      Value::Null(),        Value::Int64(INT64_MIN),
      Value::Int64(INT64_MAX), Value::Int64(two53 + 1),
      Value::Double(9007199254740993.0), Value::Double(-1e300),
      Value::Double(0.1)};
  const std::vector<Value> strings = {
      Value::String(""),
      Value::Null(),
      Value::String(std::string("\0", 1)),
      Value::String(std::string("a\0b", 3)),
      Value::String("abc"),
      Value::String(std::string(300, 'x')),
      Value::String(std::string("\0\0", 2)),
      Value::String(" ")};
  std::vector<Tuple> rows;
  for (size_t r = 0; r < 3 * 11 * 8; ++r) {
    rows.push_back(Tuple{Value::Int64(static_cast<int64_t>(r)),
                         ints[r % ints.size()], doubles[r % doubles.size()],
                         strings[r % strings.size()]});
  }
  return rows;
}

TableSchema EdgeCaseSchema(const std::string& name) {
  TableSchema schema(name, {{"id", DataType::kInt64, /*nullable=*/false},
                            {"k", DataType::kInt64, true},
                            {"d", DataType::kDouble, true},
                            {"s", DataType::kString, true}});
  EXPECT_TRUE(schema.SetPrimaryKey({"id"}).ok());
  return schema;
}

// The column store is the only copy of a base row, and the independent SQL
// oracle (tests/reference_sql) reads base rows through Table::Row: every
// gathered row must be the inserted tuple exactly, compared by
// representation (Int64(3) is not Double(3.0), -0.0 is not 0.0), whichever
// insert path committed it.
TEST(TableColumnsTest, PositionIsRowIdAndCellsAreExact) {
  const std::vector<Tuple> inserted = EdgeCaseRows();
  Table table(EdgeCaseSchema("t"));
  for (size_t r = 0; r < inserted.size(); ++r) {
    const Status status = r % 2 == 0 ? table.Insert(inserted[r])
                                     : table.InsertUnchecked(inserted[r]);
    ASSERT_TRUE(status.ok()) << "row " << r << ": " << status;
  }
  ASSERT_EQ(table.num_rows(), inserted.size());
  ASSERT_EQ(table.columns().size(), inserted.size());
  for (size_t r = 0; r < inserted.size(); ++r) {
    const Tuple row = table.Row(r);
    ASSERT_EQ(row.size(), inserted[r].size()) << "row " << r;
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(ValueIdentical(row[c], inserted[r][c]))
          << "row " << r << " col " << c << ": got " << row[c] << ", want "
          << inserted[r][c];
      EXPECT_TRUE(ValueIdentical(table.columns().ValueAt(c, r), inserted[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

// relational.db_bytes is Database::TotalByteSize: the sum of
// Value::ByteSize over every inserted cell, now read off the columns.
TEST(TableColumnsTest, ByteSizesEqualSumOfInsertedValueSizes) {
  const std::vector<Tuple> inserted = EdgeCaseRows();
  Database db;
  ASSERT_TRUE(db.CreateTable(EdgeCaseSchema("a")).ok());
  ASSERT_TRUE(db.CreateTable(EdgeCaseSchema("b")).ok());
  Table* a = *db.GetTable("a");
  Table* b = *db.GetTable("b");
  EXPECT_EQ(a->DataByteSize(), 0u);
  size_t a_bytes = 0;
  size_t b_bytes = 0;
  for (size_t r = 0; r < inserted.size(); ++r) {
    ASSERT_TRUE(a->Insert(inserted[r]).ok());
    a_bytes += inserted[r].ByteSize();
    if (r % 3 == 0) {
      ASSERT_TRUE(b->InsertUnchecked(inserted[r]).ok());
      b_bytes += inserted[r].ByteSize();
    }
  }
  EXPECT_EQ(a->DataByteSize(), a_bytes);
  EXPECT_EQ(b->DataByteSize(), b_bytes);
  EXPECT_EQ(db.TotalByteSize(), a_bytes + b_bytes);
}

// CreateIndex after a bulk load and IndexRow on every insert both read the
// columns; they must agree on the row ids behind every key.
TEST(TableColumnsTest, IndexBuiltAfterLoadMatchesIndexMaintainedOnInsert) {
  const std::vector<Tuple> inserted = EdgeCaseRows();
  Table maintained(EdgeCaseSchema("m"));
  Table built(EdgeCaseSchema("b"));
  for (const char* column : {"k", "d", "s"}) {
    ASSERT_TRUE(maintained.CreateIndex(column).ok());
  }
  for (const Tuple& row : inserted) {
    ASSERT_TRUE(maintained.Insert(row).ok());
    ASSERT_TRUE(built.InsertUnchecked(row).ok());
  }
  for (const char* column : {"k", "d", "s"}) {
    ASSERT_TRUE(built.CreateIndex(column).ok());
    const Table::Index& want = *maintained.GetIndex(column);
    const Table::Index& got = *built.GetIndex(column);
    ASSERT_EQ(got.size(), want.size()) << column;
    for (const auto& [key, unused] : want) {
      auto ids = [&key](const Table::Index& index) {
        std::vector<size_t> out;
        auto [begin, end] = index.equal_range(key);
        for (auto it = begin; it != end; ++it) out.push_back(it->second);
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(ids(got), ids(want)) << column << " key " << key;
    }
  }
}

TEST(TableColumnsTest, VersionAndDeltaSemantics) {
  auto table = MakeMixedTable(50);
  const uint64_t v0 = table->version();
  EXPECT_EQ(v0, 50u);  // one bump per committed row
  EXPECT_EQ(table->RowsAppendedSince(v0), 0u);

  // Every commit path (validated and unchecked) must move the version,
  // so a cache key snapshotted before the write can only go stale —
  // never wrongly fresh.
  Tuple copy = table->Row(0);
  ASSERT_TRUE(table->InsertUnchecked(std::move(copy)).ok());
  EXPECT_EQ(table->version(), v0 + 1);
  EXPECT_EQ(table->RowsAppendedSince(v0), 1u);
  ASSERT_TRUE(table
                  ->Insert(Tuple{Value::Int64(1), Value::Double(2.0),
                                 Value::String("x")})
                  .ok());
  EXPECT_EQ(table->version(), v0 + 2);
  EXPECT_EQ(table->RowsAppendedSince(v0), 2u);
  EXPECT_EQ(table->columns().size(), table->num_rows());
  // A snapshot at or past the current high-water mark reads an empty
  // delta; one from any earlier point reads every later row.
  EXPECT_EQ(table->RowsAppendedSince(table->version()), 0u);
  EXPECT_EQ(table->RowsAppendedSince(0), table->num_rows());
}

TEST(TableColumnsTest, MalformedRowIsRejectedOnBothInsertPaths) {
  TableSchema schema("t", {{"a", DataType::kInt64, /*nullable=*/true},
                           {"b", DataType::kString, /*nullable=*/false}});
  Database db;
  ASSERT_TRUE(db.CreateTable(std::move(schema)).ok());
  Table* table = *db.GetTable("t");
  ASSERT_TRUE(table->CreateIndex("a").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table
                    ->Insert(Tuple{Value::Int64(i % 5),
                                   Value::String("v" + std::to_string(i))})
                    .ok());
  }
  const uint64_t version = table->version();
  const size_t rows = table->num_rows();
  const size_t indexed = table->GetIndex("a")->size();

  const std::vector<Tuple> malformed = {
      Tuple{Value::Int64(99)},                                  // arity
      Tuple{Value::String("not an int"), Value::String("x")},  // type
      Tuple{Value::Int64(3), Value::Int64(7)},                 // type
      Tuple{Value::Int64(3), Value::Null()},                   // NOT NULL
  };
  for (size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_FALSE(table->InsertUnchecked(malformed[i]).ok()) << "row " << i;
    EXPECT_FALSE(table->Insert(malformed[i]).ok()) << "row " << i;
    EXPECT_EQ(table->version(), version) << "row " << i;
    EXPECT_EQ(table->num_rows(), rows) << "row " << i;
    EXPECT_EQ(table->columns().size(), rows) << "row " << i;
    EXPECT_EQ(table->GetIndex("a")->size(), indexed) << "row " << i;
  }

  // The table still serves queries.
  engine::QueryExecutor executor(&db);
  auto result = executor.ExecuteSql("SELECT t.b FROM t WHERE t.a = 3");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 4u);
}

}  // namespace
}  // namespace silkroute

// ---------------------------------------------------------------------------
// End to end: seeded mutation-interleaved republish (mirror of
// result_cache_test.cc's harness, storage-layout edition: every publish
// reads through the columnar scan/join paths).
// ---------------------------------------------------------------------------

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

TEST(ColumnarE2ETest, MutationInterleavedRepublishStaysByteIdentical) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());

  engine::ResultCache cache(engine::ResultCache::Options{8 << 20, 4, nullptr});
  PublishOptions base;
  base.strategy = PlanStrategy::kFullyPartitioned;
  base.document_element = "suppliers";
  PublishOptions cached = base;
  cached.result_cache = &cache;

  auto publish = [&](const PublishOptions& opt) {
    std::ostringstream out;
    auto result = publisher.Publish(Query1Rxl(), opt, &out);
    EXPECT_TRUE(result.ok()) << result.status();
    return out.str();
  };

  std::vector<std::string> tables = db->catalog().TableNames();
  ASSERT_FALSE(tables.empty());
  std::mt19937 rng(0xC01A7);
  size_t mutations = 0;
  for (int i = 0; i < 25; ++i) {
    if (rng() % 2 == 0) {
      const std::string& victim = tables[rng() % tables.size()];
      auto table = db->GetTable(victim);
      ASSERT_TRUE(table.ok());
      if ((*table)->num_rows() > 0) {
        Tuple row = (*table)->Row(rng() % (*table)->num_rows());
        ASSERT_TRUE((*table)->InsertUnchecked(std::move(row)).ok());
        ++mutations;
      }
    }
    const std::string warm = publish(cached);
    const std::string reference = publish(base);
    ASSERT_EQ(warm, reference) << "iteration " << i;
  }
  ASSERT_GT(mutations, 0u);
  auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace silkroute::core
