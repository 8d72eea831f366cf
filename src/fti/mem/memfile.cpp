#include "fti/mem/memfile.hpp"

#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/strings.hpp"

namespace fti::mem {
namespace {

std::uint64_t parse_value(std::string_view token, std::uint32_t width) {
  if (!token.empty() && token.front() == '-') {
    std::int64_t value = util::parse_i64(token);
    return static_cast<std::uint64_t>(value) & sim::Bits::mask(width);
  }
  return util::parse_u64(token) & sim::Bits::mask(width);
}

std::string_view strip_comment(std::string_view line) {
  std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  return util::trim(line);
}

}  // namespace

std::vector<MemWord> parse_mem_text(const std::string& text,
                                    std::uint32_t width) {
  std::vector<MemWord> out;
  std::size_t cursor = 0;
  int line_number = 0;
  for (const std::string& raw : util::split(text, '\n')) {
    ++line_number;
    std::string_view line = strip_comment(raw);
    if (line.empty()) {
      continue;
    }
    try {
      std::vector<std::string> tokens = util::split_whitespace(line);
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        std::string_view body = tokens[t];
        if (body.front() == '@') {
          cursor = static_cast<std::size_t>(util::parse_u64(body.substr(1)));
          continue;
        }
        std::size_t colon = body.find(':');
        if (colon != std::string_view::npos) {
          std::size_t address = static_cast<std::size_t>(
              util::parse_u64(body.substr(0, colon)));
          // The value may follow the colon directly ("4:42") or as the
          // next token ("4: 42").
          std::string_view value_text = util::trim(body.substr(colon + 1));
          if (value_text.empty()) {
            if (t + 1 >= tokens.size()) {
              throw util::Error("parse", "missing value after ':'");
            }
            value_text = tokens[++t];
          }
          out.push_back({address, parse_value(value_text, width)});
          cursor = address + 1;
          continue;
        }
        out.push_back({cursor, parse_value(body, width)});
        ++cursor;
      }
    } catch (const util::Error& e) {
      throw util::IoError("mem file line " + std::to_string(line_number) +
                          ": " + e.what());
    }
  }
  return out;
}

void load_mem_text(MemoryImage& image, const std::string& text) {
  for (const MemWord& word : parse_mem_text(text, image.width())) {
    if (word.address >= image.depth()) {
      throw util::IoError("mem file stores to address " +
                          std::to_string(word.address) +
                          " beyond depth of memory '" + image.name() + "'");
    }
    image.write(word.address, word.value);
  }
}

void load_mem_file(MemoryImage& image, const std::filesystem::path& path) {
  load_mem_text(image, util::read_file(path));
}

std::string to_mem_text(const MemoryImage& image) {
  std::string out;
  out += "# memory '" + image.name() + "' depth=" +
         std::to_string(image.depth()) + " width=" +
         std::to_string(image.width()) + "\n";
  const auto& words = image.words();
  for (std::size_t i = 0; i < words.size(); i += 8) {
    out += "@" + std::to_string(i);
    for (std::size_t j = i; j < std::min(words.size(), i + 8); ++j) {
      out += " " + std::to_string(words[j]);
    }
    out += "\n";
  }
  return out;
}

void save_mem_file(const MemoryImage& image,
                   const std::filesystem::path& path) {
  util::write_file(path, to_mem_text(image));
}

}  // namespace fti::mem
