#include "util/string_utils.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace apt::util {
namespace {

TEST(Split, BasicAndEmptySegments) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsAsciiWhitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("CpU-FpGa_42"), "cpu-fpga_42");
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("--policy", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_TRUE(ends_with("graph.dot", ".dot"));
  EXPECT_FALSE(ends_with("dot", ".dot"));
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(EditDistance, CountsInsertionsDeletionsAndSubstitutions) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("alpha", "alphas"), 1u);
  EXPECT_EQ(edit_distance("polcies", "policies"), 1u);
  EXPECT_EQ(edit_distance("flaw", "lawn"), 2u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

TEST(DidYouMean, SuggestsTheFirstClosestWithinTwoEdits) {
  const std::vector<std::string> options = {"--alphas", "--policies",
                                            "--rates"};
  EXPECT_EQ(did_you_mean("--alpha", options), "--alphas");
  EXPECT_EQ(did_you_mean("--polcies", options), "--policies");
  EXPECT_EQ(did_you_mean("--rate", options), "--rates");
  EXPECT_EQ(did_you_mean("--rates", options), "--rates");
  // Nothing within distance 2: no suggestion.
  EXPECT_EQ(did_you_mean("--bogus", options), "");
  EXPECT_EQ(did_you_mean("--alp", options), "");
  EXPECT_EQ(did_you_mean("x", {}), "");
  // Ties go to the first candidate.
  EXPECT_EQ(did_you_mean("ab", {"xb", "ay"}), "xb");
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
  EXPECT_EQ(format_double(318.0930001, 3), "318.093");
}

TEST(FormatDouble, RejectsBadPrecision) {
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
  EXPECT_THROW(format_double(1.0, 99), std::invalid_argument);
}

TEST(ParseDouble, StrictFullString) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("  -1e3 "), -1000.0);
  EXPECT_THROW(parse_double("2.5x"), std::invalid_argument);
  EXPECT_THROW(parse_double(""), std::invalid_argument);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
}

TEST(ParseInt, StrictFullString) {
  EXPECT_EQ(parse_int("-42"), -42);
  EXPECT_EQ(parse_int(" 7 "), 7);
  EXPECT_THROW(parse_int("7.5"), std::invalid_argument);
  EXPECT_THROW(parse_int(""), std::invalid_argument);
}

TEST(ParseUint, RejectsNegativeAndGarbage) {
  EXPECT_EQ(parse_uint("64000000"), 64000000u);
  EXPECT_THROW(parse_uint("-1"), std::invalid_argument);
  EXPECT_THROW(parse_uint("12ab"), std::invalid_argument);
}

/// The message `parse` throws for `text`, or "" when it parses.
template <typename Parse>
std::string parse_error(Parse parse, const std::string& text) {
  try {
    parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParseNumbers, OutOfRangeIsNotReportedAsGarbage) {
  for (const std::string text : {"1e400", "-1e400", "1e-308", "1e-400"}) {
    const std::string what = parse_error(parse_double, text);
    EXPECT_NE(what.find("parse_double: out of range"), std::string::npos)
        << text << ": " << what;
  }
  for (const std::string text :
       {"9223372036854775808", "-9223372036854775809"}) {
    const std::string what = parse_error(parse_int, text);
    EXPECT_NE(what.find("parse_int: out of range"), std::string::npos)
        << text << ": " << what;
  }
  for (const std::string text :
       {"18446744073709551616", "99999999999999999999"}) {
    const std::string what = parse_error(parse_uint, text);
    EXPECT_NE(what.find("parse_uint: out of range"), std::string::npos)
        << text << ": " << what;
  }
  // The extremes that fit still parse, and garbage is still garbage.
  EXPECT_EQ(parse_int("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_DOUBLE_EQ(parse_double("1e308"), 1e308);
  EXPECT_NE(parse_error(parse_double, "abc").find("not a number"),
            std::string::npos);
  EXPECT_NE(parse_error(parse_uint, "x1").find("not an integer"),
            std::string::npos);
}

}  // namespace
}  // namespace apt::util
