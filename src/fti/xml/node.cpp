#include "fti/xml/node.hpp"

#include "fti/util/error.hpp"
#include "fti/util/strings.hpp"

namespace fti::xml {

Element& Element::set_attr(std::string_view key, std::string value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  attrs_.emplace_back(std::string(key), std::move(value));
  return *this;
}

Element& Element::set_attr(std::string_view key, std::int64_t value) {
  return set_attr(key, std::to_string(value));
}

Element& Element::set_attr(std::string_view key, std::uint64_t value) {
  return set_attr(key, std::to_string(value));
}

bool Element::has_attr(std::string_view key) const {
  return find_attr(key).has_value();
}

std::optional<std::string> Element::find_attr(std::string_view key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) {
      return v;
    }
  }
  return std::nullopt;
}

const std::string& Element::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) {
      return v;
    }
  }
  throw util::XmlError("element <" + name_ + "> (line " +
                       std::to_string(line_) + ") lacks attribute '" +
                       std::string(key) + "'");
}

std::string Element::attr_or(std::string_view key,
                             std::string_view fallback) const {
  auto found = find_attr(key);
  return found ? *found : std::string(fallback);
}

std::uint64_t Element::attr_u64(std::string_view key) const {
  try {
    return util::parse_u64(attr(key));
  } catch (const util::Error& e) {
    throw util::XmlError("attribute '" + std::string(key) + "' of <" + name_ +
                         ">: " + e.what());
  }
}

std::uint64_t Element::attr_u64_or(std::string_view key,
                                   std::uint64_t fallback) const {
  if (!has_attr(key)) {
    return fallback;
  }
  return attr_u64(key);
}

Element& Element::add_child(std::string name) {
  auto child = std::make_unique<Element>(std::move(name));
  Element& ref = *child;
  nodes_.emplace_back(std::move(child));
  return ref;
}

Element& Element::adopt_child(std::unique_ptr<Element> child) {
  FTI_ASSERT(child != nullptr, "adopt_child: null element");
  Element& ref = *child;
  nodes_.emplace_back(std::move(child));
  return ref;
}

void Element::add_text(std::string text) {
  nodes_.emplace_back(std::move(text));
}

std::vector<const Element*> Element::children() const {
  std::vector<const Element*> out;
  for (const auto& node : nodes_) {
    if (const auto* child = std::get_if<std::unique_ptr<Element>>(&node)) {
      out.push_back(child->get());
    }
  }
  return out;
}

std::vector<const Element*> Element::children(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& node : nodes_) {
    if (const auto* child = std::get_if<std::unique_ptr<Element>>(&node)) {
      if ((*child)->name() == name) {
        out.push_back(child->get());
      }
    }
  }
  return out;
}

const Element* Element::find_child(std::string_view name) const {
  for (const auto& node : nodes_) {
    if (const auto* child = std::get_if<std::unique_ptr<Element>>(&node)) {
      if ((*child)->name() == name) {
        return child->get();
      }
    }
  }
  return nullptr;
}

Element* Element::find_child(std::string_view name) {
  for (auto& node : nodes_) {
    if (auto* child = std::get_if<std::unique_ptr<Element>>(&node)) {
      if ((*child)->name() == name) {
        return child->get();
      }
    }
  }
  return nullptr;
}

const Element& Element::child(std::string_view name) const {
  const Element* found = find_child(name);
  if (found == nullptr) {
    throw util::XmlError("element <" + name_ + "> (line " +
                         std::to_string(line_) + ") lacks child <" +
                         std::string(name) + ">");
  }
  return *found;
}

std::string Element::text() const {
  std::string out;
  for (const auto& node : nodes_) {
    if (const auto* run = std::get_if<std::string>(&node)) {
      out += *run;
    }
  }
  return std::string(util::trim(out));
}

std::size_t Element::child_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (std::holds_alternative<std::unique_ptr<Element>>(node)) {
      ++n;
    }
  }
  return n;
}

std::unique_ptr<Element> make_element(std::string name) {
  return std::make_unique<Element>(std::move(name));
}

}  // namespace fti::xml
