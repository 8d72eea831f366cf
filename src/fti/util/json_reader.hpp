// A small recursive-descent JSON parser -- the read half of util's JSON
// support (json.hpp is the write half).  Exists so the toolchain can
// consume its own reports: `fti obs` pretty-prints a --metrics snapshot,
// and the unit tests schema-check Chrome trace exports and round-trip
// JsonReport documents instead of string-matching them.
//
// Scope: full JSON per RFC 8259, including UTF-16 surrogate-pair
// decoding (a \uD800-\uDBFF escape followed by \uDC00-\uDFFF becomes
// one 4-byte UTF-8 sequence; lone or mismatched surrogates are
// rejected).  Numbers are doubles -- fine for the magnitudes reports carry, and
// callers that need exact integers use as_u64 which re-checks
// integrality.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fti/util/error.hpp"

namespace fti::util {

/// Malformed JSON text, or a lookup that contradicts the document shape.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& message) : Error("json", message) {}
};

/// One parsed JSON value.  A tagged struct rather than a class hierarchy:
/// documents are small, read once and thrown away.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  /// Object members in document order (duplicate keys are kept; find
  /// returns the first).
  std::vector<std::pair<std::string, JsonValue>> members;
  std::vector<JsonValue> items;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }

  /// First member with `key`, or nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// find() that throws JsonError when the member is missing.
  const JsonValue& at(std::string_view key) const;

  /// Typed accessors; each throws JsonError on a kind mismatch.
  const std::string& as_string() const;
  double as_number() const;
  /// as_number() plus an integrality/range check.
  std::uint64_t as_u64() const;
  bool as_bool() const;
};

/// Parses one JSON document; trailing non-whitespace is an error.
/// Throws JsonError with a line:column position on malformed input,
/// including arrays/objects nested deeper than 256 levels.
JsonValue parse_json(std::string_view text);

}  // namespace fti::util
