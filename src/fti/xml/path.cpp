#include "fti/xml/path.hpp"

#include <cctype>
#include <optional>
#include <string>

#include "fti/util/error.hpp"
#include "fti/util/strings.hpp"

namespace fti::xml {
namespace {

struct Predicate {
  enum class Kind { kAttrExists, kAttrEquals, kPosition };
  Kind kind;
  std::string attr;
  std::string value;
  std::size_t position = 0;  // 1-based
};

struct Step {
  bool descendant = false;
  std::string name;  // "*" for the wildcard
  std::vector<Predicate> predicates;
};

class PathParser {
 public:
  explicit PathParser(std::string_view text) : text_(text) {}

  std::vector<Step> parse() {
    std::vector<Step> steps;
    if (text_.empty()) {
      fail("empty path");
    }
    bool first_descendant = false;
    if (util::starts_with(text_, "//")) {
      first_descendant = true;
      pos_ = 2;
    }
    for (;;) {
      Step step = parse_step();
      if (steps.empty() && first_descendant) {
        step.descendant = true;
      }
      steps.push_back(std::move(step));
      if (pos_ >= text_.size()) {
        break;
      }
      expect('/');
      if (pos_ < text_.size() && text_[pos_] == '/') {
        // "a//b": descendant axis on the next step.
        ++pos_;
        descendant_pending_ = true;
      }
    }
    return steps;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw util::XmlError("path '" + std::string(text_) + "': " + message);
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  Step parse_step() {
    Step step;
    step.descendant = descendant_pending_;
    descendant_pending_ = false;
    constexpr std::string_view kAxis = "descendant::";
    if (text_.substr(pos_, kAxis.size()) == kAxis) {
      step.descendant = true;
      pos_ += kAxis.size();
    }
    if (pos_ < text_.size() && text_[pos_] == '*') {
      step.name = "*";
      ++pos_;
    } else {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '-' ||
              text_[pos_] == '.')) {
        name.push_back(text_[pos_++]);
      }
      if (name.empty()) {
        fail("expected an element name or '*'");
      }
      step.name = std::move(name);
    }
    while (pos_ < text_.size() && text_[pos_] == '[') {
      step.predicates.push_back(parse_predicate());
    }
    return step;
  }

  Predicate parse_predicate() {
    expect('[');
    Predicate pred;
    if (pos_ < text_.size() && text_[pos_] == '@') {
      ++pos_;
      std::string attr;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '-')) {
        attr.push_back(text_[pos_++]);
      }
      if (attr.empty()) {
        fail("expected an attribute name after '@'");
      }
      pred.attr = std::move(attr);
      if (pos_ < text_.size() && text_[pos_] == '=') {
        ++pos_;
        expect('\'');
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != '\'') {
          value.push_back(text_[pos_++]);
        }
        expect('\'');
        pred.kind = Predicate::Kind::kAttrEquals;
        pred.value = std::move(value);
      } else {
        pred.kind = Predicate::Kind::kAttrExists;
      }
    } else {
      std::string digits;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        digits.push_back(text_[pos_++]);
      }
      if (digits.empty()) {
        fail("expected '@name' or a position number in predicate");
      }
      pred.kind = Predicate::Kind::kPosition;
      pred.position = static_cast<std::size_t>(util::parse_u64(digits));
      if (pred.position == 0) {
        fail("positions are 1-based");
      }
    }
    expect(']');
    return pred;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool descendant_pending_ = false;
};

bool name_matches(const Step& step, const Element& element) {
  return step.name == "*" || step.name == element.name();
}

bool attr_predicates_match(const Step& step, const Element& element) {
  for (const auto& pred : step.predicates) {
    switch (pred.kind) {
      case Predicate::Kind::kAttrExists:
        if (!element.has_attr(pred.attr)) {
          return false;
        }
        break;
      case Predicate::Kind::kAttrEquals: {
        auto value = element.find_attr(pred.attr);
        if (!value || *value != pred.value) {
          return false;
        }
        break;
      }
      case Predicate::Kind::kPosition:
        break;  // applied after candidate collection
    }
  }
  return true;
}

void collect_descendants(const Element& node, const Step& step,
                         std::vector<const Element*>& out) {
  for (const Element* child : node.children()) {
    if (name_matches(step, *child) && attr_predicates_match(step, *child)) {
      out.push_back(child);
    }
    collect_descendants(*child, step, out);
  }
}

std::vector<const Element*> apply_step(
    const std::vector<const Element*>& context, const Step& step) {
  std::vector<const Element*> matched;
  for (const Element* node : context) {
    if (step.descendant) {
      collect_descendants(*node, step, matched);
    } else {
      for (const Element* child : node->children()) {
        if (name_matches(step, *child) &&
            attr_predicates_match(step, *child)) {
          matched.push_back(child);
        }
      }
    }
  }
  for (const auto& pred : step.predicates) {
    if (pred.kind == Predicate::Kind::kPosition) {
      if (pred.position > matched.size()) {
        return {};
      }
      matched = {matched[pred.position - 1]};
    }
  }
  return matched;
}

}  // namespace

std::vector<const Element*> select(const Element& context,
                                   std::string_view path) {
  std::vector<Step> steps = PathParser(path).parse();
  std::vector<const Element*> current = {&context};
  for (const Step& step : steps) {
    current = apply_step(current, step);
    if (current.empty()) {
      break;
    }
  }
  return current;
}

const Element* select_first(const Element& context, std::string_view path) {
  auto matches = select(context, path);
  return matches.empty() ? nullptr : matches.front();
}

std::size_t count(const Element& context, std::string_view path) {
  return select(context, path).size();
}

}  // namespace fti::xml
