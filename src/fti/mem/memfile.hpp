// Memory/stimulus file format (".dat"): the on-disk representation the
// infrastructure shares between the simulated design and the golden model.
//
//   # comment lines start with '#'
//   @<addr>            set the load cursor (hex with 0x, or decimal)
//   <value>            store at the cursor, cursor advances
//   <addr>: <value>    random-access store
//
// Values are decimal, 0x-hex, or negative decimal (two's complement at the
// image width).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fti/mem/storage.hpp"

namespace fti::mem {

/// Parses the format into (address, value) pairs.
struct MemWord {
  std::size_t address;
  std::uint64_t value;
};
std::vector<MemWord> parse_mem_text(const std::string& text,
                                    std::uint32_t width);

/// Loads file contents into `image`; addresses must be in range.
void load_mem_file(MemoryImage& image, const std::filesystem::path& path);

/// Loads from an in-memory string (tests, generated stimulus).
void load_mem_text(MemoryImage& image, const std::string& text);

/// Serializes the full image, eight words per line with @ markers.
std::string to_mem_text(const MemoryImage& image);

void save_mem_file(const MemoryImage& image,
                   const std::filesystem::path& path);

}  // namespace fti::mem
