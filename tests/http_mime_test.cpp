#include "http/mime.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

namespace jsoncdn::http {
namespace {

TEST(ParseMime, BasicTypeSubtype) {
  const auto m = parse_mime("application/json");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, "application");
  EXPECT_EQ(m->subtype, "json");
  EXPECT_TRUE(m->parameters.empty());
  EXPECT_EQ(m->essence(), "application/json");
}

TEST(ParseMime, NormalizesCase) {
  const auto m = parse_mime("Application/JSON");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->essence(), "application/json");
}

TEST(ParseMime, ParsesParameters) {
  const auto m = parse_mime("text/html; charset=utf-8; boundary=x");
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->parameters.size(), 2u);
  EXPECT_EQ(m->parameters[0].first, "charset");
  EXPECT_EQ(m->parameters[0].second, "utf-8");
  EXPECT_EQ(m->parameters[1].first, "boundary");
}

TEST(ParseMime, ToleratesSloppyWhitespace) {
  const auto m = parse_mime("  application/json ;  charset=utf-8  ");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->essence(), "application/json");
  ASSERT_EQ(m->parameters.size(), 1u);
}

TEST(ParseMime, RejectsGrammarViolations) {
  EXPECT_FALSE(parse_mime("").has_value());
  EXPECT_FALSE(parse_mime("noslash").has_value());
  EXPECT_FALSE(parse_mime("/json").has_value());
  EXPECT_FALSE(parse_mime("application/").has_value());
  EXPECT_FALSE(parse_mime("a/b/c").has_value());
}

TEST(ParseMime, ValuelessParameterAllowed) {
  const auto m = parse_mime("application/json; x");
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->parameters.size(), 1u);
  EXPECT_EQ(m->parameters[0].first, "x");
  EXPECT_EQ(m->parameters[0].second, "");
}

struct ClassifyCase {
  const char* header;
  ContentClass expected;
};

// Prints a case as its text with every run of non-alphanumerics folded to
// '_' ("application/json; charset=utf-8" -> application_json_charset_utf_8).
// gtest_discover_tests builds the ctest name from this, so names are
// readable and stable across builds instead of a byte dump of the pointer.
// The 32-character cap keeps every ctest name under 100 columns.
std::string identifier(const char* text) {
  std::string out;
  for (const char* c = text; *c != '\0' && out.size() < 32; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c)) != 0) {
      out.push_back(*c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  if (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? "empty" : out;
}

void PrintTo(const ClassifyCase& c, std::ostream* os) {
  *os << identifier(c.header);
}

class ClassifyContentTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyContentTest, MapsToExpectedClass) {
  EXPECT_EQ(classify_content(GetParam().header), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Headers, ClassifyContentTest,
    ::testing::Values(
        ClassifyCase{"application/json", ContentClass::kJson},
        ClassifyCase{"application/json; charset=utf-8", ContentClass::kJson},
        ClassifyCase{"application/problem+json", ContentClass::kJson},
        ClassifyCase{"application/vnd.api+json", ContentClass::kJson},
        ClassifyCase{"text/json", ContentClass::kJson},
        ClassifyCase{"text/html", ContentClass::kHtml},
        ClassifyCase{"TEXT/HTML; charset=ISO-8859-1", ContentClass::kHtml},
        ClassifyCase{"text/css", ContentClass::kCss},
        ClassifyCase{"application/javascript", ContentClass::kJavascript},
        ClassifyCase{"text/javascript", ContentClass::kJavascript},
        ClassifyCase{"application/x-javascript", ContentClass::kJavascript},
        ClassifyCase{"image/png", ContentClass::kImage},
        ClassifyCase{"image/jpeg", ContentClass::kImage},
        ClassifyCase{"video/mp4", ContentClass::kVideo},
        ClassifyCase{"font/woff2", ContentClass::kFont},
        ClassifyCase{"application/font-woff", ContentClass::kFont},
        ClassifyCase{"text/plain", ContentClass::kPlain},
        ClassifyCase{"application/octet-stream", ContentClass::kBinary},
        ClassifyCase{"application/xml", ContentClass::kOther},
        ClassifyCase{"garbage", ContentClass::kOther},
        ClassifyCase{"", ContentClass::kOther}));

TEST(IsJson, MatchesPaperFilter) {
  EXPECT_TRUE(is_json("application/json"));
  EXPECT_TRUE(is_json("application/json; charset=utf-8"));
  EXPECT_FALSE(is_json("text/html"));
  EXPECT_FALSE(is_json("application/jsonp"));  // not json
}

TEST(ContentClassNames, AreStable) {
  EXPECT_EQ(to_string(ContentClass::kJson), "json");
  EXPECT_EQ(to_string(ContentClass::kHtml), "html");
  EXPECT_EQ(to_string(ContentClass::kOther), "other");
}

}  // namespace
}  // namespace jsoncdn::http
