#include <gtest/gtest.h>

#include "common/flags.h"
#include "core/params.h"

namespace ddc {
namespace {

Flags MakeFlags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags(static_cast<int>(argv.size()),
               const_cast<char**>(argv.data()));
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = MakeFlags({"--n=500", "--rho=0.25", "--name=fig8"});
  EXPECT_EQ(f.GetInt("n", 0), 500);
  EXPECT_DOUBLE_EQ(f.GetDouble("rho", 0), 0.25);
  EXPECT_EQ(f.GetString("name", ""), "fig8");
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = MakeFlags({"--n", "42", "--verbose"});
  EXPECT_EQ(f.GetInt("n", 0), 42);
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = MakeFlags({});
  EXPECT_EQ(f.GetInt("n", 77), 77);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(f.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(f.GetBool("b", false));
  EXPECT_FALSE(f.Has("n"));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags f = MakeFlags({"--fast"});
  EXPECT_TRUE(f.Has("fast"));
  EXPECT_TRUE(f.GetBool("fast", false));
}

TEST(FlagsTest, UnknownFlagsAreKeptAndReadable) {
  // The parser is schema-free: flags nothing registered are still stored, so
  // a bench can probe experimental knobs without declaring them. Reading a
  // flag is what declares it to CheckAllRead.
  const Flags f = MakeFlags({"--totally-unknown=7"});
  EXPECT_TRUE(f.Has("totally-unknown"));
  EXPECT_EQ(f.GetInt("totally-unknown", 0), 7);
  EXPECT_FALSE(f.Has("totally_unknown"));  // No name normalization.
  f.CheckAllRead();  // Must not abort.
}

TEST(FlagsTest, NumericValuesParseWhole) {
  const Flags f = MakeFlags({"--n=-12", "--m=+7", "--x=1e-3", "--y=-2.5",
                             "--z=3"});
  EXPECT_EQ(f.GetInt("n", 0), -12);
  EXPECT_EQ(f.GetInt("m", 0), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0), 0.001);
  EXPECT_DOUBLE_EQ(f.GetDouble("y", 0), -2.5);
  EXPECT_DOUBLE_EQ(f.GetDouble("z", 0), 3.0);
}

TEST(FlagsTest, BoolIsTrueOnlyForTrueOrOne) {
  const Flags f = MakeFlags({"--b=yes", "--c=1"});
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
}

TEST(FlagsTest, EqualsAndSpaceSyntaxAreEquivalent) {
  const Flags a = MakeFlags({"--n=500", "--name=fig8"});
  const Flags b = MakeFlags({"--n", "500", "--name", "fig8"});
  EXPECT_EQ(a.GetInt("n", 0), b.GetInt("n", 0));
  EXPECT_EQ(a.GetString("name", ""), b.GetString("name", ""));
}

TEST(FlagsTest, EmptyEqualsValueIsPresentButEmpty) {
  const Flags f = MakeFlags({"--name="});
  EXPECT_TRUE(f.Has("name"));
  EXPECT_EQ(f.GetString("name", "dflt"), "");
}

TEST(FlagsTest, SpaceSyntaxDoesNotConsumeFollowingFlag) {
  // `--a --b=1`: the next token starts with '-', so `a` becomes a bare
  // boolean instead of swallowing `--b=1` as its value.
  const Flags f = MakeFlags({"--a", "--b=1"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_EQ(f.GetInt("b", 0), 1);
}

TEST(FlagsTest, LastOccurrenceWins) {
  const Flags f = MakeFlags({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

// A present numeric value that does not parse whole aborts naming the flag
// and its value, rather than reading as 0 (`--budget=abc`) or as its
// numeric prefix (`--n=2k` ran N=2): either would run another experiment
// than the one asked for.
TEST(FlagsDeathTest, MalformedNumericValuesAbortNamingTheFlag) {
  const Flags f = MakeFlags({"--n=abc", "--x=fast"});
  EXPECT_DEATH(f.GetInt("n", 42), "flag --n=abc is not an integer");
  EXPECT_DEATH(f.GetDouble("x", 1.5), "flag --x=fast is not a finite number");
}

TEST(FlagsDeathTest, PartiallyNumericValuesAbort) {
  const Flags f = MakeFlags({"--n=2k", "--m=12abc", "--x=2.5km"});
  EXPECT_DEATH(f.GetInt("n", 0), "flag --n=2k is not an integer");
  EXPECT_DEATH(f.GetInt("m", 0), "flag --m=12abc is not an integer");
  EXPECT_DEATH(f.GetDouble("x", 0), "flag --x=2.5km is not a finite number");
}

TEST(FlagsDeathTest, EmptyOrOutOfRangeNumericValuesAbort) {
  const Flags f = MakeFlags({"--name=", "--big=99999999999999999999",
                             "--inf=inf", "--nan=nan", "--huge=1e999"});
  EXPECT_DEATH(f.GetInt("name", 42), "flag --name= is not an integer");
  EXPECT_DEATH(f.GetDouble("name", 1.5), "flag --name= is not a finite");
  EXPECT_DEATH(f.GetInt("big", 0), "flag --big=9+ is not an integer");
  EXPECT_DEATH(f.GetDouble("inf", 0), "flag --inf=inf is not a finite");
  EXPECT_DEATH(f.GetDouble("nan", 0), "flag --nan=nan is not a finite");
  EXPECT_DEATH(f.GetDouble("huge", 0), "flag --huge=1e999 is not a finite");
}

// A flag no getter asked for would otherwise leave the experiment at its
// default: `ddc_driver --budegt=5` would run with the 30 s budget.
// Every unread flag is named; reading a flag, or asking whether it is
// present, accepts it.
TEST(FlagsDeathTest, UnreadFlagAbortsNamingIt) {
  const Flags f = MakeFlags({"--n=2000", "--budegt=5", "--verbose"});
  EXPECT_EQ(f.GetInt("n", 0), 2000);
  EXPECT_DOUBLE_EQ(f.GetDouble("budget", 15.0), 15.0);
  EXPECT_DEATH(f.CheckAllRead(), "unknown flag --budegt=5");
  EXPECT_DEATH(f.CheckAllRead(), "unknown flag --verbose=true");
  EXPECT_FALSE(f.GetBool("budegt", false));
  EXPECT_TRUE(f.Has("verbose"));
  f.CheckAllRead();  // Must not abort.
}

TEST(FlagsDeathTest, SingleDashArgumentAborts) {
  EXPECT_DEATH(MakeFlags({"-n", "5"}), "DDC_CHECK failed");
}

TEST(FlagsDeathTest, BarePositionalArgumentAborts) {
  EXPECT_DEATH(MakeFlags({"value"}), "DDC_CHECK failed");
}

TEST(FlagsDeathTest, NegativeNumberAsSpaceSeparatedValueAborts) {
  // Known sharp edge: `--n -5` does not parse as n = -5. The leading '-'
  // makes `-5` look like the next flag, `n` becomes bare-true, and `-5`
  // itself fails the `--`-prefix check. Negative values need `--n=-5`.
  EXPECT_DEATH(MakeFlags({"--n", "-5"}), "DDC_CHECK failed");
  const Flags f = MakeFlags({"--n=-5"});
  EXPECT_EQ(f.GetInt("n", 0), -5);
}

TEST(ParseKeyValueListTest, EmptyStringYieldsEmptyList) {
  EXPECT_TRUE(ParseKeyValueList("").empty());
}

TEST(ParseKeyValueListTest, SingleAndMultipleEntries) {
  const auto one = ParseKeyValueList("n=200000");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, "n");
  EXPECT_EQ(one[0].second, "200000");

  const auto many = ParseKeyValueList("n=200000,dup=0.3,name=burst");
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(many[1].first, "dup");
  EXPECT_EQ(many[1].second, "0.3");
  EXPECT_EQ(many[2].second, "burst");
}

TEST(ParseKeyValueListTest, EmptyValueAndDocumentOrderKept) {
  const auto entries = ParseKeyValueList("b=,a=1,b=2");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "b");
  EXPECT_EQ(entries[0].second, "");  // Empty value is legal.
  EXPECT_EQ(entries[1].first, "a");
  EXPECT_EQ(entries[2].second, "2");  // Duplicates preserved, not merged.
}

TEST(ParseKeyValueListTest, ValueMayContainEquals) {
  // Only the first '=' splits, so values like base64 payloads survive.
  const auto entries = ParseKeyValueList("expr=a=b");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "expr");
  EXPECT_EQ(entries[0].second, "a=b");
}

TEST(ParseKeyValueListDeathTest, MalformedSpecsAbort) {
  EXPECT_DEATH(ParseKeyValueList("novalue"), "missing '='");
  EXPECT_DEATH(ParseKeyValueList("n=1,novalue"), "missing '='");
  EXPECT_DEATH(ParseKeyValueList("=5"), "empty key");
  EXPECT_DEATH(ParseKeyValueList(","), "empty item");
  EXPECT_DEATH(ParseKeyValueList("n=1,"), "empty item");
  EXPECT_DEATH(ParseKeyValueList(",n=1"), "empty item");
  EXPECT_DEATH(ParseKeyValueList("n=1,,m=2"), "empty item");
}

TEST(ParamsTest, ValidateAcceptsPaperDefaults) {
  DbscanParams p{.dim = 3, .eps = 300, .min_pts = 10, .rho = 0.001};
  p.Validate();  // Must not abort.
  EXPECT_DOUBLE_EQ(p.eps_outer(), 300 * 1.001);
  EXPECT_NE(p.ToString().find("eps=300"), std::string::npos);
}

TEST(ParamsDeathTest, RejectsBadValues) {
  EXPECT_DEATH(DbscanParams({.dim = 0}).Validate(), "dim");
  EXPECT_DEATH(DbscanParams({.dim = 2, .eps = -1}).Validate(), "eps");
  EXPECT_DEATH(DbscanParams({.dim = 2, .eps = 1, .min_pts = 0}).Validate(),
               "min_pts");
  EXPECT_DEATH(
      DbscanParams({.dim = 2, .eps = 1, .min_pts = 1, .rho = 1.5}).Validate(),
      "rho");
}

}  // namespace
}  // namespace ddc
