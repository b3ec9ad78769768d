// TupleStream: the middle-ware's cursor over a query result, modelled after
// JDBC. The paper's "total time" includes binding and transferring every
// result tuple to the client; we reproduce that cost with a real wire
// round-trip: the server side serializes each row to a length-prefixed
// binary format, and Next() deserializes it on the client side. The work is
// proportional to bytes moved (NULL padding included), exactly the quantity
// that penalizes wide unified plans in the paper.
#ifndef SILKROUTE_ENGINE_TUPLE_STREAM_H_
#define SILKROUTE_ENGINE_TUPLE_STREAM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/executor.h"
#include "relational/tuple.h"

namespace silkroute::engine {

/// Wire format of one row: a u32 field count, then per field a one-byte
/// tag and its payload (8 host-order bytes for numerics, a u32 length and
/// the bytes for strings, nothing for NULL).
enum class WireTag : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// One field of a bound row, viewed in place: its tag and payload bytes
/// inside the wire buffer. No Value is built.
struct WireField {
  WireTag tag = WireTag::kNull;
  std::string_view bytes;  // empty for NULL

  bool is_null() const { return tag == WireTag::kNull; }
  /// Payload accessors; the tag must match.
  int64_t AsInt64() const;
  double AsDouble() const;
  Value ToValue() const;
};

/// A row's fields in column order. The views point into the wire buffer
/// and stay valid as long as that buffer lives.
struct WireRow {
  std::vector<WireField> fields;
};

/// Serializes one tuple to the wire format, appending to `out`.
void SerializeTuple(const Tuple& tuple, std::string* out);

/// The one wire decoder: parses the row starting at `*offset` into `row`
/// (reusing its storage) and advances `*offset`. Truncation, a field count
/// larger than the remaining bytes, an overlong string, or an unknown tag
/// is InvalidArgument.
Status ParseWireRow(std::string_view buffer, size_t* offset, WireRow* row);

/// Deserializes one tuple starting at `*offset`; advances `*offset`.
Result<Tuple> DeserializeTuple(std::string_view buffer, size_t* offset);

class TupleStream {
 public:
  /// Takes a materialized result and runs the server-side binding
  /// (serialization) immediately — the stream then owns only wire bytes.
  explicit TupleStream(Relation relation);

  /// Adopts already-bound wire bytes shared with a cache entry
  /// (engine/result_cache.h): a cache hit constructs its stream without
  /// re-executing *or* re-serializing, and without copying the buffer —
  /// the shared_ptr keeps the bytes alive past eviction.
  TupleStream(RelSchema schema, std::shared_ptr<const std::string> wire,
              size_t num_tuples)
      : schema_(std::move(schema)),
        buffer_(std::move(wire)),
        num_tuples_(num_tuples) {}

  const RelSchema& schema() const { return schema_; }

  /// Client-side fetch: deserializes and returns the next tuple, or
  /// nullopt at end of stream.
  std::optional<Tuple> Next();

  /// Client-side fetch without materializing: views the next row in place.
  /// Returns false at end of stream; a corrupt row also reads as the end,
  /// exactly as for Next(). The views live as long as this stream.
  bool NextRow(WireRow* row);

  /// Rewinds to the first tuple (used by tests).
  void Rewind() { offset_ = 0; }

  size_t wire_bytes() const { return buffer_->size(); }
  size_t num_tuples() const { return num_tuples_; }

  /// The bound wire buffer, shareable with a cache entry at no copy.
  const std::shared_ptr<const std::string>& shared_wire() const {
    return buffer_;
  }

 private:
  RelSchema schema_;
  std::shared_ptr<const std::string> buffer_;
  size_t offset_ = 0;
  size_t num_tuples_ = 0;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_TUPLE_STREAM_H_
