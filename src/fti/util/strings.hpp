// Small string utilities used across the XML parser, code generators and the
// report formatter.  Kept dependency-free so every subsystem can use them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fti::util {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on `separator`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> split(std::string_view text, char separator);

/// Splits on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string> split_whitespace(std::string_view text);

/// Joins `parts` with `separator` between consecutive elements.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Parses a decimal or 0x-prefixed hexadecimal unsigned integer.
/// Throws util::Error("parse", ...) on malformed input or overflow.
std::uint64_t parse_u64(std::string_view text);

/// Parses a possibly negative decimal integer (or 0x hex for non-negative).
std::int64_t parse_i64(std::string_view text);

/// True when `text` is a valid identifier: [A-Za-z_][A-Za-z0-9_.]* .
/// Dots are allowed because hierarchical instance names use them.
bool is_identifier(std::string_view text);

/// Number of newline-terminated lines; a trailing partial line counts too.
/// Used for the paper's "lines of description" metrics (Table I columns).
std::size_t count_lines(std::string_view text);

}  // namespace fti::util
