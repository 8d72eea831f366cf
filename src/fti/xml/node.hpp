// In-memory XML document model.
//
// The compiler emits datapath/fsm/rtg descriptions as XML dialects
// (paper §2); every downstream stage (translators, elaborator, dot export,
// HDL emitters) consumes this DOM.  The model is deliberately simple:
// elements own an ordered attribute list and an ordered child list of
// elements and text runs.  Namespaces, PIs and DTDs are out of dialect
// scope and are skipped by the parser.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace fti::xml {

class Element;

/// One child slot: either a nested element or a run of character data.
using Node = std::variant<std::unique_ptr<Element>, std::string>;

class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;
  Element(Element&&) = default;
  Element& operator=(Element&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// 1-based source line, 0 when the element was built programmatically.
  int line() const { return line_; }
  void set_line(int line) { line_ = line; }

  // -- attributes ---------------------------------------------------------

  /// Sets (or replaces) an attribute, preserving first-set order.
  Element& set_attr(std::string_view key, std::string value);
  Element& set_attr(std::string_view key, std::int64_t value);
  Element& set_attr(std::string_view key, std::uint64_t value);

  bool has_attr(std::string_view key) const;
  std::optional<std::string> find_attr(std::string_view key) const;

  /// Returns the attribute value; throws XmlError when absent.
  const std::string& attr(std::string_view key) const;
  std::string attr_or(std::string_view key, std::string_view fallback) const;

  /// Numeric accessors; throw XmlError on absence or malformed number.
  std::uint64_t attr_u64(std::string_view key) const;
  std::uint64_t attr_u64_or(std::string_view key, std::uint64_t fallback) const;

  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  // -- children -----------------------------------------------------------

  /// Appends a new child element and returns a reference to it.
  Element& add_child(std::string name);

  /// Appends an already-built element.
  Element& adopt_child(std::unique_ptr<Element> child);

  /// Appends a run of character data.
  void add_text(std::string text);

  const std::vector<Node>& nodes() const { return nodes_; }

  /// All direct child elements, in document order.
  std::vector<const Element*> children() const;

  /// Direct child elements named `name`.
  std::vector<const Element*> children(std::string_view name) const;

  /// First direct child named `name`, or nullptr.
  const Element* find_child(std::string_view name) const;
  Element* find_child(std::string_view name);

  /// First direct child named `name`; throws XmlError when absent.
  const Element& child(std::string_view name) const;

  /// Concatenation of the element's direct text runs, whitespace-trimmed.
  std::string text() const;

  /// Number of direct child elements.
  std::size_t child_count() const;

 private:
  std::string name_;
  int line_ = 0;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<Node> nodes_;
};

/// Convenience for building a fresh tree.
std::unique_ptr<Element> make_element(std::string name);

}  // namespace fti::xml
