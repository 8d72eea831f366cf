#include "fti/xml/parser.hpp"

#include <cctype>

#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"

namespace fti::xml {
namespace {

/// Deepest element nesting accepted.  Parsing (and later freeing the
/// tree) recurses once per level, so an unbounded input could overflow
/// the stack; the fti dialects nest fewer than ten levels.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<Element> parse_document() {
    skip_misc();
    if (eof() || peek() != '<') {
      fail("expected root element");
    }
    auto root = parse_element(0);
    skip_misc();
    if (!eof()) {
      fail("content after the root element");
    }
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw util::XmlError("line " + std::to_string(line_) + ": " + message);
  }

  bool eof() const { return pos_ >= text_.size(); }

  char peek() const { return text_[pos_]; }

  char peek_at(std::size_t offset) const {
    std::size_t i = pos_ + offset;
    return i < text_.size() ? text_[i] : '\0';
  }

  char advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
    }
    return c;
  }

  bool consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    for (std::size_t i = 0; i < literal.size(); ++i) {
      advance();
    }
    return true;
  }

  void expect(std::string_view literal, const std::string& what) {
    if (!consume(literal)) {
      fail("expected " + what);
    }
  }

  void skip_whitespace() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) {
      advance();
    }
  }

  /// Skips whitespace, comments, the XML declaration, PIs and DOCTYPE --
  /// everything legal around the root element.
  void skip_misc() {
    for (;;) {
      skip_whitespace();
      if (consume("<?")) {
        skip_until("?>");
      } else if (text_.substr(pos_, 4) == "<!--") {
        consume("<!--");
        skip_until("-->");
      } else if (text_.substr(pos_, 9) == "<!DOCTYPE") {
        skip_doctype();
      } else {
        return;
      }
    }
  }

  void skip_until(std::string_view terminator) {
    for (;;) {
      if (eof()) {
        fail("unterminated construct, expected '" + std::string(terminator) +
             "'");
      }
      if (consume(terminator)) {
        return;
      }
      advance();
    }
  }

  void skip_doctype() {
    consume("<!DOCTYPE");
    int depth = 1;
    while (depth > 0) {
      if (eof()) {
        fail("unterminated DOCTYPE");
      }
      char c = advance();
      if (c == '<') {
        ++depth;
      } else if (c == '>') {
        --depth;
      }
    }
  }

  static bool is_name_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
  }

  std::string parse_name() {
    if (eof() || !is_name_start(peek())) {
      fail("expected a name");
    }
    std::string name;
    while (!eof() && is_name_char(peek())) {
      name.push_back(advance());
    }
    if (!eof() && peek() == ':') {
      fail("namespaces are not part of the fti dialects");
    }
    return name;
  }

  std::string parse_entity() {
    // Called after '&' has been consumed.
    std::string body;
    while (!eof() && peek() != ';') {
      body.push_back(advance());
      if (body.size() > 8) {
        fail("unterminated entity reference");
      }
    }
    if (eof()) {
      fail("unterminated entity reference");
    }
    advance();  // ';'
    if (body == "lt") return "<";
    if (body == "gt") return ">";
    if (body == "amp") return "&";
    if (body == "quot") return "\"";
    if (body == "apos") return "'";
    if (!body.empty() && body[0] == '#') {
      std::uint64_t code = 0;
      try {
        if (body.size() > 1 && (body[1] == 'x' || body[1] == 'X')) {
          code = util::parse_u64("0x" + body.substr(2));
        } else {
          code = util::parse_u64(body.substr(1));
        }
      } catch (const util::Error&) {
        fail("malformed character reference '&" + body + ";'");
      }
      if (code == 0 || code > 0x10FFFF) {
        fail("character reference out of range");
      }
      return encode_utf8(static_cast<std::uint32_t>(code));
    }
    fail("unknown entity '&" + body + ";'");
  }

  static std::string encode_utf8(std::uint32_t code) {
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return out;
  }

  std::string parse_attr_value() {
    if (eof() || (peek() != '"' && peek() != '\'')) {
      fail("expected a quoted attribute value");
    }
    char quote = advance();
    std::string value;
    for (;;) {
      if (eof()) {
        fail("unterminated attribute value");
      }
      char c = peek();
      if (c == quote) {
        advance();
        return value;
      }
      if (c == '<') {
        fail("'<' inside attribute value");
      }
      if (c == '&') {
        advance();
        value += parse_entity();
      } else {
        value.push_back(advance());
      }
    }
  }

  /// `depth` counts the elements enclosing this one.
  std::unique_ptr<Element> parse_element(int depth) {
    if (depth >= kMaxDepth) {
      fail("elements nested deeper than " + std::to_string(kMaxDepth) +
           " levels");
    }
    expect("<", "'<'");
    int start_line = line_;
    auto element = std::make_unique<Element>(parse_name());
    element->set_line(start_line);
    // Attributes.
    for (;;) {
      skip_whitespace();
      if (eof()) {
        fail("unterminated start tag for <" + element->name() + ">");
      }
      if (consume("/>")) {
        return element;
      }
      if (consume(">")) {
        break;
      }
      std::string key = parse_name();
      skip_whitespace();
      expect("=", "'=' after attribute name");
      skip_whitespace();
      if (element->has_attr(key)) {
        fail("duplicate attribute '" + key + "' on <" + element->name() +
             ">");
      }
      element->set_attr(key, parse_attr_value());
    }
    // Content.
    std::string text_run;
    auto flush_text = [&]() {
      std::string_view trimmed = util::trim(text_run);
      if (!trimmed.empty()) {
        element->add_text(std::string(trimmed));
      }
      text_run.clear();
    };
    for (;;) {
      if (eof()) {
        fail("unterminated element <" + element->name() + "> (line " +
             std::to_string(start_line) + ")");
      }
      char c = peek();
      if (c == '<') {
        if (text_.substr(pos_, 4) == "<!--") {
          flush_text();
          consume("<!--");
          skip_until("-->");
          continue;
        }
        if (text_.substr(pos_, 9) == "<![CDATA[") {
          consume("<![CDATA[");
          while (!consume("]]>")) {
            if (eof()) {
              fail("unterminated CDATA section");
            }
            text_run.push_back(advance());
          }
          continue;
        }
        if (peek_at(1) == '?') {
          flush_text();
          consume("<?");
          skip_until("?>");
          continue;
        }
        if (peek_at(1) == '/') {
          flush_text();
          consume("</");
          std::string closing = parse_name();
          if (closing != element->name()) {
            fail("mismatched end tag </" + closing + ">, expected </" +
                 element->name() + ">");
          }
          skip_whitespace();
          expect(">", "'>' after end tag name");
          return element;
        }
        flush_text();
        element->adopt_child(parse_element(depth + 1));
      } else if (c == '&') {
        advance();
        text_run += parse_entity();
      } else {
        text_run.push_back(advance());
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

std::unique_ptr<Element> parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::unique_ptr<Element> parse_file(const std::filesystem::path& path) {
  std::string content = util::read_file(path);
  try {
    return parse(content);
  } catch (const util::XmlError& e) {
    throw util::XmlError(path.string() + ": " + e.what());
  }
}

}  // namespace fti::xml
