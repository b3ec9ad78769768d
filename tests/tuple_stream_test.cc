#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "common/random.h"
#include "engine/tuple_stream.h"

namespace silkroute::engine {
namespace {

Relation MakeRelation(std::vector<Tuple> rows) {
  Relation r;
  r.schema.Add({"", "a"});
  r.schema.Add({"", "b"});
  r.rows = std::move(rows);
  return r;
}

TEST(TupleStreamTest, RoundTripsAllValueKinds) {
  Tuple t{Value::Int64(-7), Value::Double(3.25), Value::String("héllo"),
          Value::Null()};
  std::string wire;
  SerializeTuple(t, &wire);
  size_t offset = 0;
  auto back = DeserializeTuple(wire, &offset);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(*back, t);
}

TEST(TupleStreamTest, EmptyTupleRoundTrips) {
  Tuple t;
  std::string wire;
  SerializeTuple(t, &wire);
  size_t offset = 0;
  auto back = DeserializeTuple(wire, &offset);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(TupleStreamTest, TruncatedBufferIsError) {
  Tuple t{Value::String("abcdef")};
  std::string wire;
  SerializeTuple(t, &wire);
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    std::string truncated = wire.substr(0, cut);
    size_t offset = 0;
    EXPECT_FALSE(DeserializeTuple(truncated, &offset).ok()) << cut;
  }
}

TEST(TupleStreamTest, BadTagIsError) {
  std::string wire;
  SerializeTuple(Tuple{Value::Int64(1)}, &wire);
  wire[4] = 99;  // corrupt the field tag
  size_t offset = 0;
  EXPECT_EQ(DeserializeTuple(wire, &offset).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, HostileValueCountRejectedBeforeAllocation) {
  // A forged header claiming 4 billion values must fail fast (the real
  // buffer has almost no bytes), not attempt a giant reserve.
  std::string wire("\xFF\xFF\xFF\xFF", 4);
  wire.push_back('\0');  // one stray byte after the forged count
  size_t offset = 0;
  auto result = DeserializeTuple(wire, &offset);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, HostileStringLengthRejected) {
  // A string length near UINT32_MAX must not wrap the bounds check.
  std::string wire;
  SerializeTuple(Tuple{Value::String("abc")}, &wire);
  // Value count (4 bytes) + tag (1) puts the length prefix at offset 5.
  wire[5] = '\xFC';
  wire[6] = '\xFF';
  wire[7] = '\xFF';
  wire[8] = '\xFF';
  size_t offset = 0;
  auto result = DeserializeTuple(wire, &offset);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// True when two values have the same type and the same representation
/// (Value's operator== calls 3 and 3.0 equal; the decoders must not).
bool SameRepresentation(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && a.is_int64() == b.is_int64() &&
         a.is_double() == b.is_double() && a.ToString() == b.ToString();
}

/// Walks `wire` with Next() and with NextRow() on two streams over the same
/// bytes: both must yield the same rows, with equal values, and end (at the
/// true end or at the first corrupt row) at the same point.
void ExpectNextAndNextRowAgree(const std::string& wire) {
  auto bytes = std::make_shared<const std::string>(wire);
  TupleStream by_tuple(RelSchema(), bytes, 0);
  TupleStream by_row(RelSchema(), bytes, 0);
  WireRow row;
  for (size_t i = 0;; ++i) {
    std::optional<Tuple> tuple = by_tuple.Next();
    const bool got_row = by_row.NextRow(&row);
    ASSERT_EQ(tuple.has_value(), got_row) << "row " << i;
    if (!got_row) break;
    ASSERT_EQ(row.fields.size(), tuple->size()) << "row " << i;
    for (size_t c = 0; c < row.fields.size(); ++c) {
      ASSERT_TRUE(SameRepresentation(row.fields[c].ToValue(), (*tuple)[c]))
          << "row " << i << " col " << c;
    }
  }
}

std::string ThreeRowWire() {
  std::string wire;
  SerializeTuple(Tuple{Value::Int64(-7), Value::Double(3.25),
                       Value::String("h\xC3\xA9llo"), Value::Null()},
                 &wire);
  SerializeTuple(Tuple{}, &wire);
  SerializeTuple(Tuple{Value::String(std::string("a\0b", 3)),
                       Value::Int64(std::numeric_limits<int64_t>::min())},
                 &wire);
  return wire;
}

TEST(TupleStreamTest, RowViewExposesTagsAndPayloads) {
  std::string wire = ThreeRowWire();
  size_t offset = 0;
  WireRow row;
  ASSERT_TRUE(ParseWireRow(wire, &offset, &row).ok());
  ASSERT_EQ(row.fields.size(), 4u);
  EXPECT_EQ(row.fields[0].tag, WireTag::kInt64);
  EXPECT_EQ(row.fields[0].AsInt64(), -7);
  EXPECT_EQ(row.fields[1].tag, WireTag::kDouble);
  EXPECT_EQ(row.fields[1].AsDouble(), 3.25);
  EXPECT_EQ(row.fields[2].tag, WireTag::kString);
  EXPECT_EQ(row.fields[2].bytes, "h\xC3\xA9llo");
  EXPECT_TRUE(row.fields[3].is_null());
  EXPECT_TRUE(row.fields[3].bytes.empty());
  // The row's storage is reused: a shorter row leaves no stale fields.
  ASSERT_TRUE(ParseWireRow(wire, &offset, &row).ok());
  EXPECT_TRUE(row.fields.empty());
  ASSERT_TRUE(ParseWireRow(wire, &offset, &row).ok());
  ASSERT_EQ(row.fields.size(), 2u);
  EXPECT_EQ(row.fields[0].bytes, std::string_view("a\0b", 3));
  EXPECT_EQ(offset, wire.size());
}

TEST(TupleStreamTest, RowViewAndNextAgreeOnEveryTruncation) {
  const std::string wire = ThreeRowWire();
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SCOPED_TRACE(cut);
    ExpectNextAndNextRowAgree(wire.substr(0, cut));
  }
}

TEST(TupleStreamTest, RowViewAndNextAgreeOnMutatedBuffers) {
  const std::string wire = ThreeRowWire();
  Random rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = wire;
    const int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.Next() & 0xFF);
    }
    SCOPED_TRACE(iter);
    ExpectNextAndNextRowAgree(mutated);
  }
}

TEST(TupleStreamTest, CorruptRowReadsAsEndOfStream) {
  std::string wire = ThreeRowWire();
  // Corrupt the first field tag of the first row: NextRow stops there, as
  // Next() does, instead of surfacing a half-parsed row.
  wire[4] = 42;
  auto bytes = std::make_shared<const std::string>(wire);
  TupleStream stream(RelSchema(), bytes, 3);
  WireRow row;
  EXPECT_FALSE(stream.NextRow(&row));
  size_t offset = 0;
  EXPECT_EQ(ParseWireRow(wire, &offset, &row).code(),
            StatusCode::kInvalidArgument);
}

TEST(TupleStreamTest, StreamYieldsAllTuplesInOrder) {
  TupleStream stream(MakeRelation({
      Tuple{Value::Int64(1), Value::String("x")},
      Tuple{Value::Int64(2), Value::Null()},
      Tuple{Value::Int64(3), Value::String("z")},
  }));
  EXPECT_EQ(stream.num_tuples(), 3u);
  for (int64_t i = 1; i <= 3; ++i) {
    auto t = stream.Next();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ((*t)[0].AsInt64(), i);
  }
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_FALSE(stream.Next().has_value());  // stays exhausted
}

TEST(TupleStreamTest, RewindRestarts) {
  TupleStream stream(MakeRelation({Tuple{Value::Int64(1), Value::Null()}}));
  ASSERT_TRUE(stream.Next().has_value());
  ASSERT_FALSE(stream.Next().has_value());
  stream.Rewind();
  ASSERT_TRUE(stream.Next().has_value());
}

TEST(TupleStreamTest, SchemaPreserved) {
  TupleStream stream(MakeRelation({}));
  EXPECT_EQ(stream.schema().size(), 2u);
  EXPECT_EQ(stream.schema().column(1).name, "b");
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(TupleStreamTest, WireBytesGrowWithData) {
  TupleStream small(MakeRelation({Tuple{Value::Int64(1), Value::Null()}}));
  TupleStream large(MakeRelation({
      Tuple{Value::Int64(1), Value::String(std::string(1000, 'x'))},
  }));
  EXPECT_GT(large.wire_bytes(), small.wire_bytes() + 900);
}

TEST(TupleStreamTest, RandomRoundTripProperty) {
  Random rng(42);
  for (int iter = 0; iter < 100; ++iter) {
    Tuple t;
    int n = static_cast<int>(rng.Uniform(0, 8));
    for (int i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 3)) {
        case 0:
          t.Append(Value::Null());
          break;
        case 1:
          t.Append(Value::Int64(rng.Uniform(-1000000, 1000000)));
          break;
        case 2:
          t.Append(Value::Double(rng.NextDouble() * 1e6 - 5e5));
          break;
        default:
          t.Append(Value::String(
              rng.NextString(static_cast<size_t>(rng.Uniform(0, 40)))));
      }
    }
    std::string wire;
    SerializeTuple(t, &wire);
    size_t offset = 0;
    auto back = DeserializeTuple(wire, &offset);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, t);
    ASSERT_EQ(offset, wire.size());
  }
}

}  // namespace
}  // namespace silkroute::engine
