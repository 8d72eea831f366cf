#include "kernels.hpp"

#include <utility>

#include "fti/golden/fdct.hpp"
#include "fti/golden/fir.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/matmul.hpp"
#include "fti/golden/rng.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/mem/storage.hpp"
#include "fti/util/file_io.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using fti::golden::Rng;

/// Per-kernel stimulus stream: independent of the kernel's position in
/// the list, so adding a kernel never changes another one's inputs.
Rng stimulus_rng(std::uint64_t seed, const std::string& name) {
  std::uint64_t mix = seed * 0x9e3779b97f4a7c15ull;
  for (char c : name) {
    mix = (mix ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return Rng(mix);
}

KernelSpec fdct(std::size_t blocks, bool two_stage, std::uint64_t seed) {
  KernelSpec spec;
  spec.name = "fdct" + std::to_string(blocks) + (two_stage ? "x2" : "x1");
  spec.source = fti::golden::fdct_source(blocks, two_stage);
  spec.args = {"nblocks=" + std::to_string(blocks), "!check tmp",
               "!check out"};
  spec.inputs["in"] = stimulus_rng(seed, spec.name)
                          .sequence(blocks * fti::golden::kBlockPixels, 256);
  return spec;
}

KernelSpec fir(std::size_t samples, std::size_t taps, std::uint64_t seed) {
  KernelSpec spec;
  spec.name = "fir" + std::to_string(samples) + "t" + std::to_string(taps);
  spec.source = fti::golden::fir_source(samples, taps);
  spec.args = {"n=" + std::to_string(samples), "taps=" + std::to_string(taps),
               "!check y"};
  Rng rng = stimulus_rng(seed, spec.name);
  spec.inputs["x"] = rng.sequence(samples + taps - 1, 1 << 12);
  spec.inputs["h"] = rng.sequence(taps, 256);
  return spec;
}

KernelSpec hamming(std::size_t words, std::uint64_t seed) {
  KernelSpec spec;
  spec.name = "hamming" + std::to_string(words);
  spec.source = fti::golden::hamming_source(words);
  spec.args = {"n=" + std::to_string(words), "!check data"};
  spec.inputs["code"] = fti::golden::make_codewords(
      words, stimulus_rng(seed, spec.name).next(), 5);
  return spec;
}

KernelSpec matmul(std::size_t n, std::uint64_t seed) {
  KernelSpec spec;
  spec.name = "matmul" + std::to_string(n);
  spec.source = fti::golden::matmul_source(n);
  spec.args = {"n=" + std::to_string(n), "!check c"};
  Rng rng = stimulus_rng(seed, spec.name);
  spec.inputs["a"] = rng.sequence(n * n, 200);
  spec.inputs["b"] = rng.sequence(n * n, 200);
  return spec;
}

/// popcount with seeded words: its inner loop runs once per bit, so the
/// cycle count depends on the data (sign bit clear, so it terminates).
KernelSpec popcount(std::size_t words, std::uint64_t seed) {
  KernelSpec spec;
  spec.name = "popcount" + std::to_string(words);
  std::string n = std::to_string(words);
  spec.source =
      "kernel popcount(int w[" + n + "], int c[" + n + "], int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    int v = w[i];\n"
      "    int bits = 0;\n"
      "    while (v != 0) {\n"
      "      bits = bits + (v & 1);\n"
      "      v = v >> 1;\n"
      "    }\n"
      "    c[i] = bits;\n"
      "  }\n"
      "}\n";
  spec.args = {"n=" + n, "!check c"};
  spec.inputs["w"] = stimulus_rng(seed, spec.name).sequence(words, 1u << 31);
  return spec;
}

/// A checked-in example kernel, copied verbatim with its sidecars.
KernelSpec example(const fs::path& dir, const std::string& name) {
  KernelSpec spec;
  spec.name = name;
  spec.source = fti::util::read_file(dir / (name + ".k"));
  fs::path args = dir / (name + ".args");
  if (fs::exists(args)) {
    spec.args = {fti::util::read_file(args)};
  }
  std::string prefix = name + ".";
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string file = entry.path().filename().string();
    if (file.size() > prefix.size() + 4 && file.rfind(prefix, 0) == 0 &&
        file.compare(file.size() - 4, 4, ".dat") == 0) {
      std::string array =
          file.substr(prefix.size(), file.size() - prefix.size() - 4);
      std::vector<std::uint64_t> values;
      for (const auto& word : fti::mem::parse_mem_text(
               fti::util::read_file(entry.path()), 64)) {
        if (word.address >= values.size()) {
          values.resize(word.address + 1, 0);
        }
        values[word.address] = word.value;
      }
      spec.inputs[array] = std::move(values);
    }
  }
  return spec;
}

}  // namespace

std::vector<KernelSpec> regress_kernels(const fs::path& root,
                                        std::uint64_t seed) {
  std::vector<KernelSpec> specs = {
      fdct(1, false, seed), fdct(1, true, seed),  fdct(2, true, seed),
      fir(16, 4, seed),     fir(32, 8, seed),     fir(64, 16, seed),
      hamming(32, seed),    hamming(128, seed),   matmul(4, seed),
      matmul(6, seed),      matmul(8, seed),
  };
  fs::path examples = root / "examples" / "kernels";
  for (const char* name : {"clip", "matmul4", "popcount", "saxpy"}) {
    specs.push_back(example(examples, name));
  }
  return specs;
}

std::vector<KernelSpec> serve_kernels(std::uint64_t seed) {
  return {fdct(2, true, seed), fir(128, 16, seed), matmul(10, seed),
          hamming(512, seed), popcount(64, seed)};
}

std::vector<fs::path> write_kernels(const std::vector<KernelSpec>& specs,
                                    const fs::path& dir) {
  fs::create_directories(dir);
  std::vector<fs::path> paths;
  for (const KernelSpec& spec : specs) {
    fs::path kernel = dir / (spec.name + ".k");
    fti::util::write_file(kernel, spec.source);
    std::string args;
    for (const std::string& line : spec.args) {
      args += line + "\n";
    }
    fti::util::write_file(dir / (spec.name + ".args"), args);
    for (const auto& [array, values] : spec.inputs) {
      fti::mem::MemoryPool pool;
      fti::mem::MemoryImage& image = pool.create(array, values.size(), 64);
      for (std::size_t i = 0; i < values.size(); ++i) {
        image.write(i, values[i]);
      }
      fti::util::write_file(dir / (spec.name + "." + array + ".dat"),
                            fti::mem::to_mem_text(image));
    }
    paths.push_back(kernel);
  }
  return paths;
}

std::vector<std::size_t> stratified_order(std::size_t n, std::size_t rounds,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0x5bd1e995ull);
  std::vector<std::size_t> order;
  order.reserve(n * rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::size_t> block(n);
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  return order;
}

}  // namespace perfbench
