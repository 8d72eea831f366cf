#include "fti/util/json_reader.hpp"

#include <cmath>
#include <cstdlib>

namespace fti::util {
namespace {

/// Deepest array/object nesting accepted.  Parsing recurses once per
/// level, so an unbounded input could overflow the stack; no document
/// the toolchain writes comes near this.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError(message + " at " + std::to_string(line) + ":" +
                    std::to_string(column));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the arrays/objects enclosing the value.
  JsonValue parse_value(std::size_t depth) {
    skip_whitespace();
    char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        JsonValue value;
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      }
      case 't': {
        if (!consume_literal("true")) {
          fail("invalid literal");
        }
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      }
      case 'f': {
        if (!consume_literal("false")) {
          fail("invalid literal");
        }
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("invalid literal");
        }
        return JsonValue{};
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
          return parse_number();
        }
        fail("unexpected character");
    }
  }

  void check_depth(std::size_t depth) const {
    if (depth >= kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  JsonValue parse_object(std::size_t depth) {
    check_depth(depth);
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(std::size_t depth) {
    check_depth(depth);
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xdc00 && code <= 0xdfff) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // UTF-16 surrogate pair: a high surrogate must be followed
            // immediately by an escaped low surrogate (RFC 8259 §7).
            if (!consume_literal("\\u")) {
              fail("high surrogate not followed by \\u escape");
            }
            unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          // Encode the code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) {
        fail("unterminated \\u escape");
      }
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The lexed range is a valid JSON number, which is always a valid
    // strtod input.
    std::string lexeme(text_.substr(start, pos_ - start));
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::strtod(lexeme.c_str(), nullptr);
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw JsonError("missing member \"" + std::string(key) + "\"");
  }
  return *value;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) {
    throw JsonError("value is not a string");
  }
  return string;
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) {
    throw JsonError("value is not a number");
  }
  return number;
}

std::uint64_t JsonValue::as_u64() const {
  double value = as_number();
  if (!(value >= 0) || value != std::floor(value) ||
      value > 18446744073709549568.0) {
    throw JsonError("value is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(value);
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) {
    throw JsonError("value is not a boolean");
  }
  return boolean;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace fti::util
