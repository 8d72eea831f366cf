#include <gtest/gtest.h>

#include "fti/util/error.hpp"
#include "fti/xml/parser.hpp"
#include "fti/xml/path.hpp"
#include "fti/xml/transform.hpp"
#include "fti/xml/writer.hpp"

namespace fti::xml {
namespace {

TEST(Parser, SimpleDocument) {
  auto root = parse("<design name=\"top\"><wire name=\"a\"/></design>");
  EXPECT_EQ(root->name(), "design");
  EXPECT_EQ(root->attr("name"), "top");
  ASSERT_EQ(root->child_count(), 1u);
  EXPECT_EQ(root->children()[0]->name(), "wire");
}

TEST(Parser, AttributesBothQuoteStyles) {
  auto root = parse("<a x=\"1\" y='two'/>");
  EXPECT_EQ(root->attr("x"), "1");
  EXPECT_EQ(root->attr("y"), "two");
}

TEST(Parser, TextContent) {
  auto root = parse("<msg>  hello world  </msg>");
  EXPECT_EQ(root->text(), "hello world");
}

TEST(Parser, Entities) {
  auto root = parse("<t a=\"&lt;&gt;&amp;&quot;&apos;\">&lt;x&gt; &#65;</t>");
  EXPECT_EQ(root->attr("a"), "<>&\"'");
  EXPECT_EQ(root->text(), "<x> A");
}

TEST(Parser, NumericCharacterReferences) {
  auto root = parse("<t>&#x41;&#66;</t>");
  EXPECT_EQ(root->text(), "AB");
}

TEST(Parser, CommentsAndDeclarationAndCdata) {
  auto root = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- a comment -->\n"
      "<root><!-- inner --><![CDATA[1 < 2 & 3]]></root>");
  EXPECT_EQ(root->text(), "1 < 2 & 3");
}

TEST(Parser, SkipsDoctype) {
  auto root = parse("<!DOCTYPE design SYSTEM \"d.dtd\"><design/>");
  EXPECT_EQ(root->name(), "design");
}

TEST(Parser, NestedElementsTrackLines) {
  auto root = parse("<a>\n  <b>\n    <c/>\n  </b>\n</a>");
  EXPECT_EQ(root->line(), 1);
  const Element& b = root->child("b");
  EXPECT_EQ(b.line(), 2);
  EXPECT_EQ(b.child("c").line(), 3);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse(""), util::XmlError);
  EXPECT_THROW(parse("<a>"), util::XmlError);
  EXPECT_THROW(parse("<a></b>"), util::XmlError);
  EXPECT_THROW(parse("<a x=1/>"), util::XmlError);
  EXPECT_THROW(parse("<a x=\"1\" x=\"2\"/>"), util::XmlError);
  EXPECT_THROW(parse("<a/><b/>"), util::XmlError);
  EXPECT_THROW(parse("<a>&unknown;</a>"), util::XmlError);
  EXPECT_THROW(parse("<ns:a/>"), util::XmlError);
  EXPECT_THROW(parse("<a b=\"<\"/>"), util::XmlError);
}

TEST(Writer, EscapesSpecials) {
  Element root("t");
  root.set_attr("a", "x<y&\"z\"");
  root.add_text("1 < 2 & 3");
  std::string out = to_string(root);
  EXPECT_NE(out.find("x&lt;y&amp;&quot;z&quot;"), std::string::npos);
  EXPECT_NE(out.find("1 &lt; 2 &amp; 3"), std::string::npos);
}

TEST(Writer, RoundTripIsStable) {
  const char* source =
      "<design name=\"d\">"
      "<wire name=\"a\" width=\"32\"/>"
      "<unit name=\"u\" kind=\"add\"><port name=\"a\" wire=\"a\"/></unit>"
      "<note>some text</note>"
      "</design>";
  auto first = parse(source);
  std::string serialized = to_string(*first);
  auto second = parse(serialized);
  EXPECT_EQ(to_string(*second), serialized);
}

TEST(Node, AttributeAccessors) {
  Element element("e");
  element.set_attr("n", std::uint64_t{42});
  element.set_attr("i", std::int64_t{-7});
  EXPECT_EQ(element.attr_u64("n"), 42u);
  EXPECT_EQ(element.attr_i64("i"), -7);
  EXPECT_EQ(element.attr_u64_or("missing", 9), 9u);
  EXPECT_EQ(element.attr_or("missing", "d"), "d");
  EXPECT_THROW(element.attr("missing"), util::XmlError);
  element.set_attr("n", std::uint64_t{43});  // replace keeps single entry
  EXPECT_EQ(element.attrs().size(), 2u);
  EXPECT_THROW(element.attr_u64("i"), util::XmlError);  // negative as u64
}

TEST(Node, CloneIsDeep) {
  auto root = parse("<a x=\"1\"><b><c y=\"2\"/></b>text</a>");
  auto copy = root->clone();
  EXPECT_EQ(to_string(*copy), to_string(*root));
  copy->set_attr("x", "changed");
  EXPECT_EQ(root->attr("x"), "1");
}

TEST(Node, SubtreeSize) {
  auto root = parse("<a><b/><c><d/></c></a>");
  EXPECT_EQ(root->subtree_size(), 4u);
}

TEST(Path, BasicSelection) {
  auto root = parse(
      "<dp><wire name=\"a\"/><wire name=\"b\"/>"
      "<unit kind=\"add\"><port name=\"a\"/></unit></dp>");
  EXPECT_EQ(select(*root, "wire").size(), 2u);
  EXPECT_EQ(select(*root, "unit/port").size(), 1u);
  EXPECT_EQ(count(*root, "missing"), 0u);
}

TEST(Path, AttributePredicates) {
  auto root = parse(
      "<dp><u kind=\"add\" n=\"1\"/><u kind=\"mul\"/><u kind=\"add\"/></dp>");
  EXPECT_EQ(select(*root, "u[@kind='add']").size(), 2u);
  EXPECT_EQ(select(*root, "u[@n]").size(), 1u);
  EXPECT_EQ(select(*root, "u[@kind='sub']").size(), 0u);
}

TEST(Path, PositionPredicate) {
  auto root = parse("<l><i v=\"1\"/><i v=\"2\"/><i v=\"3\"/></l>");
  auto hits = select(*root, "i[2]");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->attr("v"), "2");
  EXPECT_TRUE(select(*root, "i[9]").empty());
}

TEST(Path, DescendantAxis) {
  auto root = parse("<a><b><c k=\"x\"/></b><c k=\"y\"/></a>");
  EXPECT_EQ(select(*root, "//c").size(), 2u);
  EXPECT_EQ(select(*root, "b//c").size(), 1u);
  EXPECT_EQ(select(*root, "descendant::c[@k='y']").size(), 1u);
}

TEST(Path, Wildcard) {
  auto root = parse("<a><b/><c/><d><e/></d></a>");
  EXPECT_EQ(select(*root, "*").size(), 3u);
  EXPECT_EQ(select(*root, "*/*").size(), 1u);
}

TEST(Path, SelectOneThrowsOnMiss) {
  auto root = parse("<a><b/></a>");
  EXPECT_NO_THROW(select_one(*root, "b"));
  EXPECT_THROW(select_one(*root, "zz"), util::XmlError);
  EXPECT_EQ(select_first(*root, "zz"), nullptr);
}

TEST(Path, MalformedPathsThrow) {
  auto root = parse("<a/>");
  EXPECT_THROW(select(*root, ""), util::XmlError);
  EXPECT_THROW(select(*root, "a[b]"), util::XmlError);
  EXPECT_THROW(select(*root, "a[@]"), util::XmlError);
  EXPECT_THROW(select(*root, "a[0]"), util::XmlError);
}

TEST(Output, IndentationFollowsDepth) {
  Output out(2);
  out.writeln("a");
  out.indent();
  out.writeln("b");
  out.dedent();
  out.writeln("c");
  EXPECT_EQ(out.str(), "a\n  b\nc\n");
}

TEST(Output, MultilineWriteIndentsEachLine) {
  Output out(2);
  out.indent();
  out.write("x\ny");
  out.writeln("");
  EXPECT_EQ(out.str(), "  x\n  y\n");
}

TEST(Transform, TemplatePlaceholders) {
  auto root = parse(
      "<unit name=\"add0\" kind=\"add\">"
      "<port name=\"a\" wire=\"w1\"/><port name=\"b\" wire=\"w2\"/>"
      "</unit>");
  EXPECT_EQ(expand_template(*root, "@{name()} @{@kind}"), "unit add");
  EXPECT_EQ(expand_template(*root, "@{count(port)} ports"), "2 ports");
  EXPECT_EQ(expand_template(*root, "@{port[@name='b']@wire}"), "w2");
  EXPECT_EQ(expand_template(*root, "a@@b"), "a@b");
  EXPECT_EQ(expand_template(*root, "@{@missing}!"), "!");
  EXPECT_THROW(expand_template(*root, "@{oops"), util::XmlError);
}

TEST(Transform, StylesheetRulesAndRecursion) {
  auto root = parse("<fsm><state name=\"s0\"/><state name=\"s1\"/></fsm>");
  Stylesheet sheet;
  sheet.add_rule("fsm", [](const Element& element, Output& out,
                           const Stylesheet& inner) {
    out.writeln("fsm:");
    out.indent();
    inner.apply_templates(element, out);
    out.dedent();
  });
  sheet.add_text_rule("state", "state @{@name}");
  std::string result = sheet.apply(*root);
  EXPECT_EQ(result, "fsm:\n  state s0\n  state s1\n");
}

TEST(Transform, BuiltInRuleRecursesWithoutOutput) {
  auto root = parse("<a><b><leaf/></b></a>");
  Stylesheet sheet;
  sheet.add_text_rule("leaf", "found");
  EXPECT_EQ(sheet.apply(*root), "found\n");
}

TEST(Transform, FallbackRule) {
  auto root = parse("<a><x/><y/></a>");
  Stylesheet sheet;
  sheet.add_rule("a", [](const Element& element, Output& out,
                         const Stylesheet& inner) {
    inner.apply_templates(element, out);
  });
  sheet.add_text_rule("*", "any:@{name()}");
  EXPECT_EQ(sheet.apply(*root), "any:x\nany:y\n");
}

}  // namespace
}  // namespace fti::xml

namespace fti::xml {
namespace {

TEST(Parser, DeeplyNestedDocument) {
  std::string open_tags;
  std::string close_tags;
  for (int i = 0; i < 200; ++i) {
    open_tags += "<n" + std::to_string(i) + ">";
    close_tags = "</n" + std::to_string(i) + ">" + close_tags;
  }
  auto root = parse(open_tags + "x" + close_tags);
  EXPECT_EQ(root->name(), "n0");
  EXPECT_EQ(root->subtree_size(), 200u);
}

TEST(Parser, NestingDepthIsBounded) {
  // 200k levels used to overflow the parser's stack (fti run exited
  // 139); past the limit it is now an ordinary XmlError.
  std::string open_tags;
  for (int i = 0; i < 200'000; ++i) {
    open_tags += "<a>";
  }
  try {
    parse(open_tags);
    FAIL() << "a 200k-deep document must not parse";
  } catch (const util::XmlError& error) {
    EXPECT_NE(std::string(error.what()).find("nested deeper than"),
              std::string::npos)
        << error.what();
  }
  std::string close_tags;
  for (int i = 0; i < 200'000; ++i) {
    close_tags += "</a>";
  }
  EXPECT_THROW(parse(open_tags + close_tags), util::XmlError);
  std::string shallow;
  for (int i = 0; i < 64; ++i) {
    shallow += "<a>";
  }
  for (int i = 0; i < 64; ++i) {
    shallow += "</a>";
  }
  EXPECT_EQ(parse(shallow)->subtree_size(), 64u);
}

TEST(Parser, LargeAttributeValueRoundTrips) {
  std::string payload(10000, 'a');
  payload += "<&\"'>";
  Element element("big");
  element.set_attr("v", payload);
  auto reparsed = parse(to_string(element));
  EXPECT_EQ(reparsed->attr("v"), payload);
}

TEST(Parser, MixedContentPreservesElementOrder) {
  auto root = parse("<a>one<b/>two<c/>three</a>");
  EXPECT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->text(), "onetwothree");
  auto children = root->children();
  EXPECT_EQ(children[0]->name(), "b");
  EXPECT_EQ(children[1]->name(), "c");
}

TEST(Parser, CommentInsideAttributeListRejected) {
  EXPECT_THROW(parse("<a <!-- c --> x=\"1\"/>"), util::XmlError);
}

TEST(Path, ChainedPredicates) {
  auto root = parse(
      "<l><i k=\"a\" n=\"1\"/><i k=\"a\" n=\"2\"/><i k=\"b\" n=\"3\"/></l>");
  auto hits = select(*root, "i[@k='a'][2]");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->attr("n"), "2");
}

}  // namespace
}  // namespace fti::xml
