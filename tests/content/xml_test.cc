#include "content/xml.h"

#include <gtest/gtest.h>

namespace gamedb::content {
namespace {

std::unique_ptr<XmlNode> MustParse(std::string_view src) {
  auto r = ParseXml(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(XmlTest, SimpleElement) {
  auto root = MustParse("<Root/>");
  EXPECT_EQ(root->name, "Root");
  EXPECT_TRUE(root->children.empty());
  EXPECT_TRUE(root->attributes.empty());
}

TEST(XmlTest, AttributesBothQuoteStyles) {
  auto root = MustParse(R"(<Frame name="hp" width='200' deep="a'b"/>)");
  EXPECT_EQ(*root->FindAttribute("name"), "hp");
  EXPECT_EQ(*root->FindAttribute("width"), "200");
  EXPECT_EQ(*root->FindAttribute("deep"), "a'b");
  EXPECT_EQ(root->FindAttribute("missing"), nullptr);
  EXPECT_EQ(root->AttributeOr("missing", "dflt"), "dflt");
}

TEST(XmlTest, NestedChildrenAndText) {
  auto root = MustParse(
      "<A>\n"
      "  <B id=\"1\"><C/></B>\n"
      "  <B id=\"2\">hello world</B>\n"
      "</A>");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "B");
  EXPECT_EQ(root->children[0]->children.size(), 1u);
  EXPECT_EQ(root->children[1]->text, "hello world");
  EXPECT_EQ(root->Children("B").size(), 2u);
  EXPECT_NE(root->FirstChild("B"), nullptr);
  EXPECT_EQ(root->FirstChild("Z"), nullptr);
}

TEST(XmlTest, EntitiesDecoded) {
  auto root = MustParse(
      R"(<T msg="a &lt; b &amp;&amp; c &gt; d">&quot;quoted&quot; &apos;x&apos;</T>)");
  EXPECT_EQ(*root->FindAttribute("msg"), "a < b && c > d");
  EXPECT_EQ(root->text, "\"quoted\" 'x'");
}

TEST(XmlTest, CommentsAndPrologSkipped) {
  auto root = MustParse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- top comment -->\n"
      "<R><!-- inner --><X/><!-- after --></R>");
  EXPECT_EQ(root->name, "R");
  ASSERT_EQ(root->children.size(), 1u);
}

TEST(XmlTest, TypedAttributeAccessors) {
  auto root = MustParse(R"(<T n="3.5" i="42" b="true" bad="xyz"/>)");
  EXPECT_DOUBLE_EQ(*root->NumberAttribute("n"), 3.5);
  EXPECT_EQ(*root->IntAttribute("i"), 42);
  EXPECT_TRUE(*root->BoolAttribute("b"));
  EXPECT_TRUE(root->NumberAttribute("bad").status().IsParseError());
  EXPECT_TRUE(root->NumberAttribute("missing").status().IsNotFound());
  EXPECT_TRUE(root->IntAttribute("n").status().IsParseError());
  EXPECT_TRUE(root->BoolAttribute("i").status().IsParseError());
}

TEST(XmlTest, LineNumbersOnNodes) {
  auto root = MustParse("<A>\n<B/>\n<C/></A>");
  EXPECT_EQ(root->line, 1);
  EXPECT_EQ(root->children[0]->line, 2);
  EXPECT_EQ(root->children[1]->line, 3);
}

TEST(XmlTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<A>").ok());                     // unterminated
  EXPECT_FALSE(ParseXml("<A></B>").ok());                 // mismatched
  EXPECT_FALSE(ParseXml("<A x=1/>").ok());                // unquoted attr
  EXPECT_FALSE(ParseXml("<A x=\"1\" x=\"2\"/>").ok());    // duplicate attr
  EXPECT_FALSE(ParseXml("<A/><B/>").ok());                // two roots
  EXPECT_FALSE(ParseXml("<A>&bogus;</A>").ok());          // unknown entity
  EXPECT_FALSE(ParseXml("<A x=\"unterminated/>").ok());
}

std::string Nested(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<a>\n";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

TEST(XmlTest, DeepNestingRejectedWithLine) {
  // Element parsing recurses once per level: without a bound this input
  // overflows the stack.
  auto r = ParseXml(Nested(100000));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("line 257"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("deeper than 256"), std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(ParseXml(Nested(257)).ok());
}

TEST(XmlTest, NestingUpToTheBoundParses) {
  for (int depth : {200, 256}) {
    auto root = MustParse(Nested(depth));
    int levels = 1;
    for (const XmlNode* n = root.get(); !n->children.empty();
         n = n->children[0].get()) {
      ++levels;
    }
    EXPECT_EQ(levels, depth);
  }
}

TEST(XmlTest, ErrorsCarryLineNumbers) {
  auto r = ParseXml("<A>\n  <B>\n</A>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

}  // namespace
}  // namespace gamedb::content
