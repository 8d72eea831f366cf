// Recursive-descent XML parser for the fti dialects.
//
// Supported grammar: one root element, nested elements, attributes with
// single or double quotes, character data, comments, CDATA sections, the
// five predefined entities plus decimal/hex character references, an
// optional <?xml ...?> declaration and a skipped <!DOCTYPE ...> clause.
// Anything else (namespaces, general entities, external DTDs) raises
// XmlError -- the dialects never use them and silent acceptance would mask
// compiler-emitter bugs, which is exactly what this infrastructure exists
// to catch.
#pragma once

#include <filesystem>
#include <memory>
#include <string_view>

#include "fti/xml/node.hpp"

namespace fti::xml {

/// Parses a complete document; returns the root element.
/// Throws util::XmlError with line information on malformed input,
/// including elements nested deeper than 256 levels.
std::unique_ptr<Element> parse(std::string_view text);

/// Reads `path` and parses it.
std::unique_ptr<Element> parse_file(const std::filesystem::path& path);

}  // namespace fti::xml
