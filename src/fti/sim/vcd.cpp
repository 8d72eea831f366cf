#include "fti/sim/vcd.hpp"

#include "fti/sim/engine.hpp"
#include "fti/sim/netlist.hpp"
#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"

namespace fti::sim {

VcdWriter::VcdWriter(std::string module_name)
    : module_name_(std::move(module_name)) {}

std::string VcdWriter::code_for(std::size_t index) {
  // Printable identifier alphabet per the VCD spec: '!' (33) .. '~' (126).
  std::string code;
  do {
    code.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index > 0);
  return code;
}

void VcdWriter::watch(const Net& net) {
  FTI_ASSERT(find_entry(net) == nullptr,
             "net '" + net.name() + "' watched twice");
  nets_.push_back({&net, net.name(), net.width(), code_for(nets_.size()),
                   Bits(), false});
}

void VcdWriter::trace(EngineRunOptions& options) {
  options.tracer = this;
  options.on_netlist = [this](const std::string&, Netlist& netlist) {
    if (!nets_.empty()) {
      return;
    }
    for (const auto& net : netlist.nets()) {
      watch(*net);
    }
  };
}

VcdWriter::Entry* VcdWriter::find_entry(const Net& net) {
  for (auto& entry : nets_) {
    if (entry.net == &net) {
      return &entry;
    }
  }
  return nullptr;
}

void VcdWriter::emit_time(Time time) {
  if (!time_emitted_ || time != last_time_) {
    body_ += "#" + std::to_string(time) + "\n";
    last_time_ = time;
    time_emitted_ = true;
  }
}

void VcdWriter::emit_value(std::string& out, const Bits& value,
                           const std::string& code) {
  if (value.width() == 1) {
    out += value.bit_at(0) ? "1" : "0";
    out += code;
    out += "\n";
    return;
  }
  out += "b";
  for (std::uint32_t i = value.width(); i-- > 0;) {
    out += value.bit_at(i) ? '1' : '0';
  }
  out += " ";
  out += code;
  out += "\n";
}

void VcdWriter::on_change(Time time, const Net& net) {
  Entry* entry = find_entry(net);
  if (entry == nullptr) {
    return;  // not watched
  }
  if (entry->has_last && entry->last == net.value()) {
    return;
  }
  emit_time(time);
  emit_value(body_, net.value(), entry->code);
  entry->last = net.value();
  entry->has_last = true;
}

void VcdWriter::on_finish(Time time) {
  if (!finished_) {
    emit_time(time);
    finished_ = true;
  }
}

std::string VcdWriter::str() const {
  std::string out;
  out += "$date fti functional test run $end\n";
  out += "$version fti vcd writer $end\n";
  out += "$timescale 1ns $end\n";
  out += "$scope module " + module_name_ + " $end\n";
  for (const auto& entry : nets_) {
    out += "$var wire " + std::to_string(entry.width) + " " + entry.code +
           " " + entry.name + " $end\n";
  }
  out += "$upscope $end\n";
  out += "$enddefinitions $end\n";
  out += "$dumpvars\n";
  for (const auto& entry : nets_) {
    // Nets power up at zero; any change (including at t=0) is in the body.
    emit_value(out, Bits(entry.width, 0), entry.code);
  }
  out += "$end\n";
  out += body_;
  return out;
}

void VcdWriter::write_file(const std::filesystem::path& path) const {
  util::write_file(path, str());
}

// ------------------------------------------------------------------ reader

namespace {

/// Whitespace-delimited token stream over the VCD text.
class TokenStream {
 public:
  explicit TokenStream(const std::string& text) : text_(text) {}

  /// Next token, "" at end of input.
  std::string next() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\t' &&
           text_[pos_] != '\n' && text_[pos_] != '\r') {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Consumes tokens until the matching $end (keyword bodies are free text).
void skip_to_end(TokenStream& tokens, const std::string& what) {
  for (std::string token = tokens.next(); token != "$end";
       token = tokens.next()) {
    if (token.empty()) {
      throw util::SimError("vcd: unterminated " + what);
    }
  }
}

VcdSample parse_vector_bits(const std::string& bits, const char* context) {
  if (bits.empty() || bits.size() > 64) {
    throw util::SimError("vcd: unsupported vector width " +
                         std::to_string(bits.size()) + " in " + context);
  }
  VcdSample sample;
  for (char c : bits) {
    sample.value <<= 1;
    sample.unknown <<= 1;
    switch (c) {
      case '0':
        break;
      case '1':
        sample.value |= 1;
        break;
      case 'x':
      case 'X':
      case 'z':
      case 'Z':
        sample.unknown |= 1;
        break;
      default:
        throw util::SimError(std::string("vcd: bad vector digit '") + c +
                             "' in " + context);
    }
  }
  return sample;
}

}  // namespace

const VcdVar* VcdDocument::find_var(const std::string& scope_suffix,
                                    const std::string& name) const {
  for (const VcdVar& var : vars) {
    if (var.name != name) {
      continue;
    }
    if (scope_suffix.empty() || var.scope == scope_suffix) {
      return &var;
    }
    // Tail-component match: "dut_p0" matches scope "tb.dut_p0".
    if (var.scope.size() > scope_suffix.size() &&
        var.scope.compare(var.scope.size() - scope_suffix.size(),
                          scope_suffix.size(), scope_suffix) == 0 &&
        var.scope[var.scope.size() - scope_suffix.size() - 1] == '.') {
      return &var;
    }
  }
  return nullptr;
}

std::vector<VcdSample> VcdDocument::settled_series(
    const std::string& code) const {
  std::vector<VcdSample> series;
  auto init = initial.find(code);
  if (init != initial.end()) {
    series.push_back(init->second);
  }
  auto it = changes.find(code);
  if (it != changes.end()) {
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      // Same-time successors supersede this sample (delta glitches).
      if (i + 1 < it->second.size() &&
          it->second[i + 1].first == it->second[i].first) {
        continue;
      }
      const VcdSample& sample = it->second[i].second;
      if (series.empty() || !(series.back() == sample)) {
        series.push_back(sample);
      }
    }
  }
  return series;
}

VcdSample VcdDocument::final_sample(const std::string& code) const {
  auto it = changes.find(code);
  if (it != changes.end() && !it->second.empty()) {
    return it->second.back().second;
  }
  auto init = initial.find(code);
  return init != initial.end() ? init->second : VcdSample{};
}

VcdDocument parse_vcd(const std::string& text) {
  VcdDocument doc;
  TokenStream tokens(text);
  std::vector<std::string> scope_stack;
  bool in_header = true;
  bool in_initial_block = false;
  std::uint64_t time = 0;
  bool saw_time = false;
  std::map<std::string, std::uint32_t> width_of;

  auto record = [&](const std::string& code, const VcdSample& sample) {
    if (in_header) {
      throw util::SimError("vcd: value change before $enddefinitions");
    }
    // The $dumpvars block (and anything before the first #time marker)
    // is the initial snapshot, not a transition.
    if (in_initial_block || !saw_time) {
      doc.initial[code] = sample;
      return;
    }
    doc.changes[code].emplace_back(time, sample);
  };

  for (std::string token = tokens.next(); !token.empty();
       token = tokens.next()) {
    if (token == "$scope") {
      std::string kind = tokens.next();
      std::string name = tokens.next();
      (void)kind;
      scope_stack.push_back(name);
      skip_to_end(tokens, "$scope");
    } else if (token == "$upscope") {
      if (!scope_stack.empty()) {
        scope_stack.pop_back();
      }
      skip_to_end(tokens, "$upscope");
    } else if (token == "$var") {
      VcdVar var;
      std::string type = tokens.next();
      if (type == "real" || type == "realtime") {
        throw util::SimError("vcd: real-valued vars are not supported");
      }
      std::string width = tokens.next();
      var.width = static_cast<std::uint32_t>(std::stoul(width));
      if (var.width == 0 || var.width > 64) {
        throw util::SimError("vcd: unsupported var width " + width);
      }
      var.code = tokens.next();
      var.name = tokens.next();
      // Optional tokens up to $end carry the bit range ("[31:0]").
      skip_to_end(tokens, "$var");
      for (std::size_t i = 0; i < scope_stack.size(); ++i) {
        var.scope += (i > 0 ? "." : "") + scope_stack[i];
      }
      width_of[var.code] = var.width;
      doc.vars.push_back(std::move(var));
    } else if (token == "$timescale") {
      for (std::string part = tokens.next(); part != "$end";
           part = tokens.next()) {
        if (part.empty()) {
          throw util::SimError("vcd: unterminated $timescale");
        }
        doc.timescale += (doc.timescale.empty() ? "" : " ") + part;
      }
    } else if (token == "$enddefinitions") {
      skip_to_end(tokens, "$enddefinitions");
      in_header = false;
    } else if (token == "$dumpvars" || token == "$dumpon" ||
               token == "$dumpall") {
      in_initial_block = !saw_time;
    } else if (token == "$dumpoff") {
      // Everything until $end is forced-x output; ignore it.
      skip_to_end(tokens, "$dumpoff");
    } else if (token == "$end") {
      in_initial_block = false;
    } else if (token[0] == '$') {
      skip_to_end(tokens, token);  // $date, $version, $comment, ...
    } else if (token[0] == '#') {
      time = std::stoull(token.substr(1));
      saw_time = true;
      in_initial_block = false;
    } else if (token[0] == '0' || token[0] == '1' || token[0] == 'x' ||
               token[0] == 'X' || token[0] == 'z' || token[0] == 'Z') {
      std::string code = token.substr(1);
      if (code.empty()) {
        throw util::SimError("vcd: scalar change without identifier");
      }
      VcdSample sample;
      if (token[0] == '1') {
        sample.value = 1;
      } else if (token[0] != '0') {
        sample.unknown = 1;
      }
      record(code, sample);
    } else if (token[0] == 'b' || token[0] == 'B') {
      std::string bits = token.substr(1);
      std::string code = tokens.next();
      if (code.empty()) {
        throw util::SimError("vcd: vector change without identifier");
      }
      record(code, parse_vector_bits(bits, "vector change"));
    } else if (token[0] == 'r' || token[0] == 'R') {
      throw util::SimError("vcd: real value changes are not supported");
    } else {
      throw util::SimError("vcd: unexpected token '" + token + "'");
    }
  }
  return doc;
}

}  // namespace fti::sim
