#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "fti/util/error.hpp"
#include "fti/util/file_io.hpp"
#include "fti/util/json.hpp"
#include "fti/util/json_reader.hpp"
#include "fti/util/strings.hpp"
#include "fti/util/table.hpp"
#include "fti/util/thread_pool.hpp"

namespace fti::util {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\r\na b\r\n"), "a b");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("x,", ',').size(), 2u);
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  auto fields = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("datapath.xml", "datapath"));
  EXPECT_FALSE(starts_with("dp", "datapath"));
  EXPECT_TRUE(ends_with("datapath.xml", ".xml"));
  EXPECT_FALSE(ends_with("x", ".xml"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("  42 "), 42u);
  EXPECT_EQ(parse_u64("0xfF"), 255u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_THROW(parse_u64(""), Error);
  EXPECT_THROW(parse_u64("12x"), Error);
  EXPECT_THROW(parse_u64("18446744073709551616"), Error);  // overflow
  EXPECT_THROW(parse_u64("0x"), Error);
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("-1"), -1);
  EXPECT_EQ(parse_i64("+7"), 7);
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(parse_i64("9223372036854775808"), Error);
  EXPECT_THROW(parse_i64("-9223372036854775809"), Error);
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc_12"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_TRUE(is_identifier("top.sub.net"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Strings, CountLines) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("one"), 1u);
  EXPECT_EQ(count_lines("one\n"), 1u);
  EXPECT_EQ(count_lines("one\ntwo"), 2u);
  EXPECT_EQ(count_lines("one\ntwo\n"), 2u);
}

TEST(Errors, KindsArePreserved) {
  try {
    throw XmlError("boom");
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), "xml");
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_THROW(throw CompileError("x"), Error);
  EXPECT_THROW(throw SimError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw IrError("x"), Error);
}

TEST(FileIo, RoundTrip) {
  auto dir = scratch_dir("util-test");
  auto path = dir / "roundtrip.txt";
  write_file(path, "hello\nworld\n");
  EXPECT_EQ(read_file(path), "hello\nworld\n");
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/missing.txt"), IoError);
}

TEST(FileIo, WriteCreatesParentDirectories) {
  auto dir = scratch_dir("util-test") / "a" / "b";
  std::filesystem::remove_all(dir);
  write_file(dir / "deep.txt", "x");
  EXPECT_EQ(read_file(dir / "deep.txt"), "x");
}

TEST(FileIo, StopwatchAdvances) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GE(watch.seconds(), 0.0);
  EXPECT_GE(watch.milliseconds(), watch.seconds());
}

TEST(Table, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "22"});
  std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.to_string().find("only"), std::string::npos);
}

TEST(Table, OversizedRowThrowsInsteadOfTruncating) {
  // add_row used to row.resize(header) and silently drop the extra cells.
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"1", "2", "dropped"}), Error);
  table.add_row({"1", "2"});
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  for (std::uint32_t jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for_indexed(hits.size(), [&](std::uint64_t index) {
      hits[index].fetch_add(1);
      return true;
    });
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }
}

TEST(ThreadPool, ZeroJobsClampsToOne) {
  EXPECT_EQ(ThreadPool(0).jobs(), 1u);
}

TEST(ThreadPool, CancellationStopsDispatch) {
  // Single worker makes the dispatch order exact: cancelling at index 3
  // must leave indices 4.. untouched.
  ThreadPool pool(1);
  std::vector<int> hits(10, 0);
  pool.parallel_for_indexed(hits.size(), [&](std::uint64_t index) {
    hits[index] = 1;
    return index != 3;
  });
  EXPECT_EQ(std::vector<int>(hits.begin(), hits.begin() + 4),
            (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(std::vector<int>(hits.begin() + 4, hits.end()),
            std::vector<int>(6, 0));
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  for (std::uint32_t jobs : {1u, 4u}) {
    try {
      parallel_for_indexed(jobs, 64, [&](std::uint64_t index) -> bool {
        if (index == 7 || index == 23) {
          throw Error("test", "boom at " + std::to_string(index));
        }
        return true;
      });
      FAIL() << "expected the body's exception to propagate";
    } catch (const Error& error) {
      // With one worker, index 7 throws first and cancels before 23 is
      // ever dispatched; with several workers both may throw, and the
      // pool must still surface the lowest index.
      EXPECT_NE(std::string(error.what()).find("boom at 7"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(JsonReport, TopLevelFieldsAndRows) {
  JsonReport json("demo", "suite", "rows");
  json.set("jobs", std::uint64_t{4});
  json.set("all_passed", true);
  JsonReport::Workload& row = json.workload("case \"a\"");
  row.set("cycles", std::uint64_t{12});
  row.set("note", "quoted \"text\"");
  std::string text = json.to_string();
  EXPECT_NE(text.find("\"suite\": \"demo\""), std::string::npos);
  EXPECT_NE(text.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"all_passed\": true"), std::string::npos);
  EXPECT_NE(text.find("\"rows\": ["), std::string::npos);
  EXPECT_NE(text.find("case \\\"a\\\""), std::string::npos);
  EXPECT_NE(text.find("\"cycles\": 12"), std::string::npos);
  EXPECT_NE(text.find("quoted \\\"text\\\""), std::string::npos);
}

TEST(JsonReport, BenchSchemaIsUnchanged) {
  // The promoted writer must keep emitting the historical BENCH_*.json
  // shape byte for byte when instantiated with the default keys.
  JsonReport json("baseline");
  json.workload("w").set("x", std::uint64_t{1});
  EXPECT_EQ(json.to_string(),
            "{\n  \"bench\": \"baseline\",\n  \"workloads\": [\n"
            "    {\"name\": \"w\", \"x\": 1}\n  ]\n}\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 1), "2.0");
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(345600), "345,600");
  EXPECT_EQ(format_count(1234567890), "1,234,567,890");
}

TEST(JsonEscape, ControlCharactersAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rlf"), "cr\\rlf");
  EXPECT_EQ(json_escape("bell\x07!"), "bell\\u0007!");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonReport, ControlCharactersSurviveARoundTrip) {
  JsonReport json("demo", "suite", "rows");
  JsonReport::Workload& row = json.workload("case\nwith\tweird \x01chars");
  row.set("message", "a\\b \"c\"\r\n");
  JsonValue doc = parse_json(json.to_string());
  const JsonValue& item = doc.at("rows").items.at(0);
  EXPECT_EQ(item.at("name").as_string(), "case\nwith\tweird \x01chars");
  EXPECT_EQ(item.at("message").as_string(), "a\\b \"c\"\r\n");
}

TEST(JsonReport, NonFiniteDoublesSerialiseAsNull) {
  JsonReport json("demo", "suite", "rows");
  JsonReport::Workload& row = json.workload("w");
  row.set("nan", std::nan(""));
  row.set("inf", std::numeric_limits<double>::infinity());
  row.set("neg_inf", -std::numeric_limits<double>::infinity());
  row.set("finite", 1.5);
  std::string text = json.to_string();
  EXPECT_NE(text.find("\"nan\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(text.find("\"neg_inf\": null"), std::string::npos);
  EXPECT_NE(text.find("\"finite\": 1.5"), std::string::npos);
  // The emitted document stays parseable.
  JsonValue doc = parse_json(text);
  EXPECT_TRUE(doc.at("rows").items.at(0).at("nan").is_null());
}

TEST(JsonReader, ParsesScalarsObjectsAndArrays) {
  JsonValue doc = parse_json(
      "{\"s\": \"text\", \"n\": -2.5e2, \"i\": 42, \"t\": true,"
      " \"f\": false, \"z\": null, \"a\": [1, \"two\", {\"k\": 3}]}");
  EXPECT_EQ(doc.at("s").as_string(), "text");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), -250.0);
  EXPECT_EQ(doc.at("i").as_u64(), 42u);
  EXPECT_TRUE(doc.at("t").as_bool());
  EXPECT_FALSE(doc.at("f").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  const JsonValue& array = doc.at("a");
  ASSERT_EQ(array.items.size(), 3u);
  EXPECT_DOUBLE_EQ(array.items[0].as_number(), 1.0);
  EXPECT_EQ(array.items[1].as_string(), "two");
  EXPECT_EQ(array.items[2].at("k").as_u64(), 3u);
}

TEST(JsonReader, DecodesStringEscapes) {
  JsonValue doc =
      parse_json("{\"s\": \"a\\n\\t\\\"\\\\\\u0041\\u00e9\"}");
  EXPECT_EQ(doc.at("s").as_string(), "a\n\t\"\\A\xc3\xa9");
}

TEST(JsonReader, DecodesSurrogatePairs) {
  // U+1F600 as the canonical \uD83D\uDE00 pair -> 4-byte UTF-8.
  JsonValue doc = parse_json("{\"s\": \"\\uD83D\\uDE00\"}");
  EXPECT_EQ(doc.at("s").as_string(), "\xf0\x9f\x98\x80");
  // First and last code points expressible as pairs.
  EXPECT_EQ(parse_json("\"\\ud800\\udc00\"").as_string(),
            "\xf0\x90\x80\x80");  // U+10000
  EXPECT_EQ(parse_json("\"\\uDBFF\\uDFFF\"").as_string(),
            "\xf4\x8f\xbf\xbf");  // U+10FFFF
  // Pairs compose with surrounding text and other escapes.
  EXPECT_EQ(parse_json("\"a\\uD83D\\uDE00\\n\"").as_string(),
            "a\xf0\x9f\x98\x80\n");
}

TEST(JsonReader, RejectsLoneAndMismatchedSurrogates) {
  EXPECT_THROW(parse_json("\"\\uD800\""), JsonError);        // lone high
  EXPECT_THROW(parse_json("\"\\uDC00\""), JsonError);        // lone low
  EXPECT_THROW(parse_json("\"\\uD800x\""), JsonError);       // high + text
  EXPECT_THROW(parse_json("\"\\uD800\\n\""), JsonError);     // high + escape
  EXPECT_THROW(parse_json("\"\\uD800\\u0041\""), JsonError); // high + BMP
  EXPECT_THROW(parse_json("\"\\uD800\\uD800\""), JsonError); // high + high
  EXPECT_THROW(parse_json("\"\\uDC00\\uD800\""), JsonError); // reversed
}

TEST(JsonReader, RoundTripsAstralCharactersThroughJsonEscape) {
  // json_escape passes non-ASCII bytes through untouched, so UTF-8 text
  // written by our reporters must come back byte-identical.
  std::string astral = "emoji \xf0\x9f\x98\x80 and \xf4\x8f\xbf\xbf end";
  JsonValue doc = parse_json("\"" + json_escape(astral) + "\"");
  EXPECT_EQ(doc.as_string(), astral);
}

TEST(JsonReader, BoundsNestingDepth) {
  // 200k levels used to overflow the parser's stack (fti obs exited
  // 139); past the limit it is now an ordinary parse error.
  std::size_t deep = 200'000;
  EXPECT_THROW(parse_json(std::string(deep, '[') + std::string(deep, ']')),
               JsonError);
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) {
    objects += "{\"k\":";
  }
  EXPECT_THROW(parse_json(objects + "1" + std::string(deep, '}')),
               JsonError);
  try {
    parse_json(std::string(deep, '['));
    FAIL() << "a 200k-deep prefix must not parse";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting deeper than"),
              std::string::npos)
        << error.what();
  }
  JsonValue shallow =
      parse_json(std::string(64, '[') + "7" + std::string(64, ']'));
  const JsonValue* inner = &shallow;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(inner->is_array());
    inner = &inner->items.at(0);
  }
  EXPECT_EQ(inner->as_u64(), 7u);
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("nulle"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  EXPECT_THROW(parse_json("\"raw\ncontrol\""), JsonError);
  EXPECT_THROW(parse_json("01"), JsonError);
  // Errors carry a line:column position.
  try {
    parse_json("{\n  \"a\": oops\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& error) {
    EXPECT_NE(std::string(error.what()).find("2:8"), std::string::npos)
        << error.what();
  }
}

TEST(JsonReader, TypedAccessorMismatchesThrow) {
  JsonValue doc = parse_json("{\"s\": \"x\", \"n\": 1.5, \"neg\": -1}");
  EXPECT_THROW(doc.at("s").as_number(), JsonError);
  EXPECT_THROW(doc.at("n").as_string(), JsonError);
  EXPECT_THROW(doc.at("n").as_u64(), JsonError);   // not integral
  EXPECT_THROW(doc.at("neg").as_u64(), JsonError); // negative
  EXPECT_THROW(doc.at("missing"), JsonError);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

}  // namespace
}  // namespace fti::util
