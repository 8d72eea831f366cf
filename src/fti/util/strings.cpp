#include "fti/util/strings.hpp"

#include <cctype>
#include <limits>

#include "fti/util/error.hpp"

namespace fti::util {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin && is_space(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) {
      ++i;
    }
    if (i > start) {
      fields.emplace_back(text.substr(start, i - start));
    }
  }
  return fields;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::uint64_t parse_u64(std::string_view text) {
  std::string_view body = trim(text);
  if (body.empty()) {
    throw Error("parse", "empty integer literal");
  }
  std::uint64_t value = 0;
  if (starts_with(body, "0x") || starts_with(body, "0X")) {
    body.remove_prefix(2);
    if (body.empty()) {
      throw Error("parse", "bare 0x literal");
    }
    for (char c : body) {
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        throw Error("parse", "bad hex digit in '" + std::string(text) + "'");
      }
      if (value > (std::numeric_limits<std::uint64_t>::max() >> 4)) {
        throw Error("parse", "hex literal overflows 64 bits");
      }
      value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    return value;
  }
  for (char c : body) {
    if (c < '0' || c > '9') {
      throw Error("parse", "bad decimal digit in '" + std::string(text) + "'");
    }
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw Error("parse", "decimal literal overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::int64_t parse_i64(std::string_view text) {
  std::string_view body = trim(text);
  bool negative = false;
  if (!body.empty() && (body.front() == '-' || body.front() == '+')) {
    negative = body.front() == '-';
    body.remove_prefix(1);
  }
  std::uint64_t magnitude = parse_u64(body);
  if (negative) {
    if (magnitude >
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
            1) {
      throw Error("parse", "integer literal underflows 64 bits");
    }
    return static_cast<std::int64_t>(~magnitude + 1);
  }
  if (magnitude >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    throw Error("parse", "integer literal overflows int64");
  }
  return static_cast<std::int64_t>(magnitude);
}

bool is_identifier(std::string_view text) {
  if (text.empty()) {
    return false;
  }
  char first = text.front();
  if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) {
    return false;
  }
  for (char c : text.substr(1)) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.')) {
      return false;
    }
  }
  return true;
}

std::size_t count_lines(std::string_view text) {
  if (text.empty()) {
    return 0;
  }
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  if (text.back() != '\n') {
    ++lines;
  }
  return lines;
}

}  // namespace fti::util
