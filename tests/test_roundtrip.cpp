// Seeded round-trip property tests: random XML documents through the
// writer and back through the parser, random fuzz-generated designs
// through the IR serde, and test-suite sidecar files through suite_io.
// Every case derives from a fixed seed, so failures replay exactly.
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fti/compiler/hls.hpp"
#include "fti/fuzz/generate.hpp"
#include "fti/fuzz/rand.hpp"
#include "fti/golden/fdct.hpp"
#include "fti/golden/fir.hpp"
#include "fti/golden/hamming.hpp"
#include "fti/golden/matmul.hpp"
#include "fti/harness/suite_io.hpp"
#include "fti/ir/rtg.hpp"
#include "fti/ir/serde.hpp"
#include "fti/mem/memfile.hpp"
#include "fti/mem/storage.hpp"
#include "fti/util/file_io.hpp"
#include "fti/xml/node.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/writer.hpp"

namespace fti {
namespace {

// -- random XML documents --------------------------------------------------

/// Characters deliberately include everything the writer must escape.
std::string random_token(fuzz::Rng& rng) {
  static const char* kPieces[] = {"alpha", "beta",  "x<y",   "a&b",
                                  "q\"q",  "it's",  "z>w",   "plain",
                                  "0x1f",  "-42",   "under_score"};
  std::string token = kPieces[rng.index(std::size(kPieces))];
  if (rng.chance(30)) {
    token += kPieces[rng.index(std::size(kPieces))];
  }
  return token;
}

std::string random_name(fuzz::Rng& rng) {
  static const char* kNames[] = {"node", "wire", "unit", "state", "port",
                                 "cfg",  "mem",  "row"};
  return std::string(kNames[rng.index(std::size(kNames))]) +
         std::to_string(rng.index(4));
}

/// Builds a random element tree.  Elements carry either child elements or
/// one text run (the pretty-printer indents element content, so mixed
/// text-and-element content would not survive a byte round-trip).
void grow_element(fuzz::Rng& rng, xml::Element& element, int depth) {
  std::size_t attr_count = rng.index(4);
  for (std::size_t i = 0; i < attr_count; ++i) {
    element.set_attr(random_name(rng), random_token(rng));
  }
  if (depth > 0 && rng.chance(70)) {
    std::size_t child_count = 1 + rng.index(3);
    for (std::size_t i = 0; i < child_count; ++i) {
      grow_element(rng, element.add_child(random_name(rng)), depth - 1);
    }
  } else if (rng.chance(60)) {
    element.add_text(random_token(rng));
  }
}

void expect_same_tree(const xml::Element& a, const xml::Element& b,
                      const std::string& path) {
  EXPECT_EQ(a.name(), b.name()) << "at " << path;
  EXPECT_EQ(a.attrs(), b.attrs()) << "at " << path;
  EXPECT_EQ(a.text(), b.text()) << "at " << path;
  auto a_children = a.children();
  auto b_children = b.children();
  ASSERT_EQ(a_children.size(), b_children.size()) << "at " << path;
  for (std::size_t i = 0; i < a_children.size(); ++i) {
    expect_same_tree(*a_children[i], *b_children[i],
                     path + "/" + a_children[i]->name() + "[" +
                         std::to_string(i) + "]");
  }
}

TEST(XmlRoundTrip, RandomDocumentsSurviveWriterAndParser) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    fuzz::Rng rng(fuzz::Rng::derive(0xD0C5EED, seed));
    xml::Element root("doc" + std::to_string(seed));
    grow_element(rng, root, 4);
    std::string text = xml::to_string(root);
    std::unique_ptr<xml::Element> parsed = xml::parse(text);
    ASSERT_NE(parsed, nullptr) << "seed " << seed;
    expect_same_tree(root, *parsed, "seed" + std::to_string(seed));
    // Serialization is a fixpoint: writing the parsed tree reproduces
    // the exact bytes, so the corpus on disk is always canonical.
    EXPECT_EQ(text, xml::to_string(*parsed)) << "seed " << seed;
  }
}

TEST(XmlRoundTrip, CompactAndIndentedFormsParseAlike) {
  fuzz::Rng rng(99);
  xml::Element root("root");
  grow_element(rng, root, 3);
  xml::WriteOptions compact;
  compact.indent = 0;
  compact.declaration = false;
  std::unique_ptr<xml::Element> a = xml::parse(xml::to_string(root));
  std::unique_ptr<xml::Element> b = xml::parse(xml::to_string(root, compact));
  expect_same_tree(*a, *b, "root");
}

// -- fuzz-generated designs through the IR serde ---------------------------

/// The compiled designs `fti verify` round-trips: every sample kernel
/// under its .args sidecar, and the golden FDCT/FIR/Hamming/matmul
/// kernels at the sizes the regression benchmark verifies.
std::vector<std::pair<std::string, ir::Design>> compiled_designs() {
  std::vector<harness::TestCase> tests;
  const std::filesystem::path examples =
      std::filesystem::path(FTI_TEST_DATA_DIR).parent_path().parent_path() /
      "examples" / "kernels";
  for (const auto& entry : std::filesystem::directory_iterator(examples)) {
    if (entry.path().extension() == ".k") {
      tests.push_back(harness::load_test_case(entry.path()));
    }
  }
  auto golden = [&](std::string name, std::string source,
                    std::map<std::string, std::int64_t> args) {
    harness::TestCase test;
    test.name = std::move(name);
    test.source = std::move(source);
    test.scalar_args = std::move(args);
    tests.push_back(std::move(test));
  };
  for (auto [blocks, two_stage] : {std::pair<std::size_t, bool>{1, false},
                                   {1, true},
                                   {2, true}}) {
    golden("fdct", golden::fdct_source(blocks, two_stage),
           {{"nblocks", static_cast<std::int64_t>(blocks)}});
  }
  for (auto [samples, taps] : {std::pair<std::int64_t, std::int64_t>{16, 4},
                               {32, 8},
                               {64, 16}}) {
    golden("fir", golden::fir_source(samples, taps),
           {{"n", samples}, {"taps", taps}});
  }
  for (std::int64_t words : {32, 128}) {
    golden("hamming", golden::hamming_source(words), {{"n", words}});
  }
  for (std::int64_t n : {4, 6, 8}) {
    golden("matmul", golden::matmul_source(n), {{"n", n}});
  }
  std::vector<std::pair<std::string, ir::Design>> designs;
  for (const harness::TestCase& test : tests) {
    compiler::CompileOptions options;
    options.resources = test.resources;
    options.scalar_args = test.scalar_args;
    if (test.embed_inputs) {
      options.rom_contents = test.inputs;
    }
    designs.emplace_back(test.name,
                         compiler::compile_source(test.source, options).design);
  }
  return designs;
}

TEST(DesignRoundTrip, GeneratedDesignsSurviveSerde) {
  fuzz::GeneratorOptions options;
  options.max_units = 14;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ir::Design design = fuzz::generate_design_seeded(seed, options);
    ASSERT_NO_THROW(ir::validate(design)) << "seed " << seed;
    std::string first = xml::to_string(*ir::to_xml(design));
    ir::Design reloaded = ir::design_from_xml(*xml::parse(first));
    ASSERT_NO_THROW(ir::validate(reloaded)) << "seed " << seed;
    // parse-then-serialize is the identity on serialized designs.
    EXPECT_EQ(first, xml::to_string(*ir::to_xml(reloaded)))
        << "seed " << seed;
  }
  // The same identity on compiled designs: verify relies on it and no
  // longer re-checks it per run.
  std::vector<std::pair<std::string, ir::Design>> compiled =
      compiled_designs();
  EXPECT_EQ(compiled.size(), 15u);
  for (const auto& [name, design] : compiled) {
    std::string first = xml::to_string(*ir::to_xml(design));
    EXPECT_EQ(first, xml::to_string(*ir::to_xml(
                         ir::design_from_xml(*xml::parse(first)))))
        << name;
  }
}

TEST(DesignRoundTrip, FileSetMatchesEmbeddedForm) {
  ir::Design design = fuzz::generate_design_seeded(7);
  auto dir = util::scratch_dir("roundtrip") / "fileset";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> written =
      ir::save_design_files(design, dir);
  ASSERT_FALSE(written.empty());
  ir::Design reloaded = ir::load_design_files(written.front());
  EXPECT_EQ(xml::to_string(*ir::to_xml(design)),
            xml::to_string(*ir::to_xml(reloaded)));
}

// -- suite_io sidecar files ------------------------------------------------

TEST(SuiteIoRoundTrip, SeededSidecarsReload) {
  auto dir = util::scratch_dir("roundtrip") / "suite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    fuzz::Rng rng(fuzz::Rng::derive(0x5017E, seed));
    std::string name = "case" + std::to_string(seed);
    std::int64_t n = static_cast<std::int64_t>(rng.index(100));
    std::uint64_t max_cycles = 1000 + rng.index(9000);
    std::vector<std::uint64_t> input;
    std::size_t words = 1 + rng.index(16);
    for (std::size_t i = 0; i < words; ++i) {
      input.push_back(rng.u64() % 1000);
    }
    util::write_file(dir / (name + ".k"),
                     "kernel " + name + "(int a[" +
                         std::to_string(input.size()) +
                         "], int b[" + std::to_string(input.size()) +
                         "], int n) {\n  int i;\n"
                         "  for (i = 0; i < n; i = i + 1) {"
                         " b[i] = a[i]; }\n}\n");
    std::string args = "n=" + std::to_string(n) + "\n!check b\n" +
                       "!max-cycles " + std::to_string(max_cycles) + "\n";
    if (rng.chance(50)) {
      args += "!rom\n";
    }
    util::write_file(dir / (name + ".args"), args);
    std::string data;
    for (std::uint64_t word : input) {
      data += std::to_string(word) + "\n";
    }
    util::write_file(dir / (name + ".a.dat"), data);

    harness::TestCase test = harness::load_test_case(dir / (name + ".k"));
    EXPECT_EQ(test.name, name);
    EXPECT_EQ(test.scalar_args.at("n"), n) << "seed " << seed;
    EXPECT_EQ(test.max_cycles, max_cycles) << "seed " << seed;
    EXPECT_EQ(test.check_arrays, std::vector<std::string>{"b"});
    EXPECT_EQ(test.inputs.at("a"), input) << "seed " << seed;
  }
  harness::TestSuite suite = harness::load_suite_dir(dir);
  EXPECT_EQ(suite.size(), 10u);
}

TEST(MemRoundTrip, SeededImagesSurviveTextFormat) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    fuzz::Rng rng(fuzz::Rng::derive(0x3E3, seed));
    std::uint32_t width = 1 + static_cast<std::uint32_t>(rng.index(64));
    std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    mem::MemoryImage image("m", 1 + rng.index(64), width);
    for (std::size_t i = 0; i < image.depth(); ++i) {
      if (rng.chance(70)) {
        image.write(i, rng.u64() & mask);
      }
    }
    mem::MemoryImage reloaded("m", image.depth(), width);
    mem::load_mem_text(reloaded, mem::to_mem_text(image));
    EXPECT_EQ(image, reloaded) << "seed " << seed << " width " << width;
  }
}

}  // namespace
}  // namespace fti
