// Tiny XPath-like query language over the DOM, used by the transform rules
// and by harness checks ("does the emitted datapath contain an <operator
// kind='mul'>?").
//
// Grammar:
//   path      := step ('/' step)*            (relative to the context node)
//   step      := ('descendant::')? name-test predicate*
//   name-test := NAME | '*'
//   predicate := '[@' NAME ']'                    attribute exists
//              | '[@' NAME '=' '\'' VALUE '\'' ']'  attribute equals
//              | '[' INTEGER ']'                    1-based position filter
//
// A leading "//" is shorthand for descendant:: on the first step.
#pragma once

#include <string_view>
#include <vector>

#include "fti/xml/node.hpp"

namespace fti::xml {

/// All elements matching `path`, evaluated with `context`'s children as the
/// first step's candidates.  Throws XmlError on a malformed path.
std::vector<const Element*> select(const Element& context,
                                   std::string_view path);

/// First match or nullptr.
const Element* select_first(const Element& context, std::string_view path);

/// Number of matches.
std::size_t count(const Element& context, std::string_view path);

}  // namespace fti::xml
