#include "engine/tuple_stream.h"

#include <cstring>

namespace silkroute::engine {

namespace {

constexpr auto kTagNull = static_cast<char>(WireTag::kNull);
constexpr auto kTagInt64 = static_cast<char>(WireTag::kInt64);
constexpr auto kTagDouble = static_cast<char>(WireTag::kDouble);
constexpr auto kTagString = static_cast<char>(WireTag::kString);

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

// Views the next `n` bytes. Compares against the remaining size, so a
// hostile `n` near UINT32_MAX cannot wrap the bounds check.
bool GetBytes(std::string_view buf, size_t* off, size_t n,
              std::string_view* out) {
  if (*off > buf.size() || buf.size() - *off < n) return false;
  *out = buf.substr(*off, n);
  *off += n;
  return true;
}

bool GetU32(std::string_view buf, size_t* off, uint32_t* v) {
  std::string_view bytes;
  if (!GetBytes(buf, off, 4, &bytes)) return false;
  std::memcpy(v, bytes.data(), 4);
  return true;
}

// The wire decoder behind both ParseWireRow and DeserializeTuple: validates
// one row and hands `begin(n)` its field count, then `field(f)` each field
// in order, so neither caller pays for the other's representation.
template <typename Begin, typename Field>
Status ParseRow(std::string_view buffer, size_t* offset, Begin&& begin,
                Field&& field) {
  uint32_t n;
  if (!GetU32(buffer, offset, &n)) {
    return Status::InvalidArgument("truncated tuple header");
  }
  // Hostile count check before reserve: every value costs at least its
  // 1-byte tag, so a count beyond the remaining bytes is forged — reject
  // it instead of attempting a multi-gigabyte allocation.
  if (n > buffer.size() - *offset) {
    return Status::InvalidArgument(
        "tuple claims " + std::to_string(n) + " values but only " +
        std::to_string(buffer.size() - *offset) + " byte(s) remain");
  }
  begin(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (*offset >= buffer.size()) {
      return Status::InvalidArgument("truncated tuple field tag");
    }
    const char tag = buffer[*offset];
    ++*offset;
    WireField f;
    f.tag = static_cast<WireTag>(tag);
    switch (tag) {
      case kTagNull:
        break;
      case kTagInt64:
        if (!GetBytes(buffer, offset, 8, &f.bytes)) {
          return Status::InvalidArgument("truncated int64 field");
        }
        break;
      case kTagDouble:
        if (!GetBytes(buffer, offset, 8, &f.bytes)) {
          return Status::InvalidArgument("truncated double field");
        }
        break;
      case kTagString: {
        uint32_t len;
        if (!GetU32(buffer, offset, &len)) {
          return Status::InvalidArgument("truncated string length");
        }
        if (!GetBytes(buffer, offset, len, &f.bytes)) {
          return Status::InvalidArgument("truncated string payload (wants " +
                                         std::to_string(len) + " byte(s))");
        }
        break;
      }
      default:
        return Status::InvalidArgument(
            "bad field tag " + std::to_string(static_cast<uint8_t>(tag)));
    }
    field(f);
  }
  return Status::OK();
}

}  // namespace

int64_t WireField::AsInt64() const {
  int64_t v;
  std::memcpy(&v, bytes.data(), 8);
  return v;
}

double WireField::AsDouble() const {
  double d;
  std::memcpy(&d, bytes.data(), 8);
  return d;
}

Value WireField::ToValue() const {
  switch (tag) {
    case WireTag::kInt64:
      return Value::Int64(AsInt64());
    case WireTag::kDouble:
      return Value::Double(AsDouble());
    case WireTag::kString:
      return Value::String(std::string(bytes));
    case WireTag::kNull:
      break;
  }
  return Value::Null();
}

void SerializeTuple(const Tuple& tuple, std::string* out) {
  PutU32(static_cast<uint32_t>(tuple.size()), out);
  for (const Value& v : tuple.values()) {
    if (v.is_null()) {
      out->push_back(kTagNull);
    } else if (v.is_int64()) {
      out->push_back(kTagInt64);
      PutU64(static_cast<uint64_t>(v.AsInt64()), out);
    } else if (v.is_double()) {
      out->push_back(kTagDouble);
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      PutU64(bits, out);
    } else {
      out->push_back(kTagString);
      const std::string& s = v.AsString();
      PutU32(static_cast<uint32_t>(s.size()), out);
      out->append(s);
    }
  }
}

Status ParseWireRow(std::string_view buffer, size_t* offset, WireRow* row) {
  row->fields.clear();
  return ParseRow(
      buffer, offset, [row](uint32_t n) { row->fields.reserve(n); },
      [row](const WireField& f) { row->fields.push_back(f); });
}

Result<Tuple> DeserializeTuple(std::string_view buffer, size_t* offset) {
  Tuple tuple;
  SILK_RETURN_IF_ERROR(ParseRow(
      buffer, offset,
      [&tuple](uint32_t n) { tuple.mutable_values().reserve(n); },
      [&tuple](const WireField& f) { tuple.Append(f.ToValue()); }));
  return tuple;
}

TupleStream::TupleStream(Relation relation)
    : schema_(std::move(relation.schema)), num_tuples_(relation.rows.size()) {
  // Server-side binding: serialize everything up front. Reserve using an
  // estimate to avoid repeated growth.
  auto buffer = std::make_shared<std::string>();
  size_t estimate = 0;
  for (const auto& r : relation.rows) estimate += r.ByteSize() + 8;
  buffer->reserve(estimate);
  for (const auto& r : relation.rows) SerializeTuple(r, buffer.get());
  buffer_ = std::move(buffer);
}

bool TupleStream::NextRow(WireRow* row) {
  if (offset_ >= buffer_->size()) return false;
  // A corrupt row is treated as end of stream.
  return ParseWireRow(*buffer_, &offset_, row).ok();
}

std::optional<Tuple> TupleStream::Next() {
  if (offset_ >= buffer_->size()) return std::nullopt;
  auto t = DeserializeTuple(*buffer_, &offset_);
  if (!t.ok()) return std::nullopt;  // corrupt stream treated as EOS
  return std::move(t).value();
}

}  // namespace silkroute::engine
