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

/// Parses `text`, failing the test when Spec::Parse refuses it.
Spec MustParse(const std::string& text) {
  Spec spec;
  std::string why;
  EXPECT_TRUE(Spec::Parse(text, &spec, &why)) << text << ": " << why;
  return spec;
}

/// Why Spec::Parse refuses `text`; empty when it accepts it.
std::string ParseError(const std::string& text) {
  Spec spec;
  std::string why;
  return Spec::Parse(text, &spec, &why) ? "" : why;
}

/// What Problem reports; empty when it reports nothing.
std::string ProblemOf(const Spec& spec) {
  std::string why;
  return spec.Problem(&why) ? why : "";
}

TEST(SpecTest, NameAloneOrWithAColonHasNoKeys) {
  for (const char* text : {"burst", "burst:"}) {
    const Spec spec = MustParse(text);
    EXPECT_EQ(spec.name(), "burst");
    EXPECT_EQ(spec.text(), text);
    EXPECT_EQ(spec.GetInt("n", 123), 123);
    EXPECT_EQ(ProblemOf(spec), "");
  }
}

TEST(SpecTest, TypedParameterAccess) {
  const Spec spec = MustParse("burst:n=200000,dup=0.3");
  EXPECT_EQ(spec.name(), "burst");
  EXPECT_EQ(spec.text(), "burst:n=200000,dup=0.3");
  EXPECT_EQ(spec.GetInt("n", 0), 200000);
  EXPECT_DOUBLE_EQ(spec.GetDouble("dup", 0), 0.3);
  EXPECT_DOUBLE_EQ(spec.GetDouble("absent", 2.5), 2.5);
  EXPECT_EQ(ProblemOf(spec), "");
}

TEST(SpecTest, SingleAndMultipleEntries) {
  EXPECT_EQ(MustParse("s:n=200000").GetInt("n", 0), 200000);

  const Spec many = MustParse("s:n=200000,dup=0.3,name=burst");
  EXPECT_EQ(many.GetInt("n", 0), 200000);
  EXPECT_DOUBLE_EQ(many.GetDouble("dup", 0), 0.3);
  EXPECT_EQ(ProblemOf(many), "unknown key 'name'");
  EXPECT_EQ(many.GetInt("name", 7), 7);  // Refused, so it reads the default.
  EXPECT_EQ(ProblemOf(many), "key name=burst is not an integer");
}

TEST(SpecTest, EmptyValueDocumentOrderAndLastOccurrence) {
  const Spec spec = MustParse("s:b=,a=1,b=2");
  EXPECT_EQ(ProblemOf(spec), "unknown key 'b'");  // First in document order.
  EXPECT_EQ(spec.GetInt("b", 0), 2);  // Duplicates kept; the last one wins.
  EXPECT_EQ(ProblemOf(spec), "unknown key 'a'");
  EXPECT_EQ(spec.GetInt("a", 0), 1);
  EXPECT_EQ(ProblemOf(spec), "");

  const Spec empty = MustParse("s:b=");  // An empty value parses...
  EXPECT_EQ(empty.GetInt("b", 5), 5);    // ...but is not a number.
  EXPECT_EQ(ProblemOf(empty), "key b= is not an integer");
}

TEST(SpecTest, ValueMayContainEquals) {
  // Only the first '=' splits, so values like base64 payloads survive.
  const Spec spec = MustParse("s:expr=a=b");
  spec.GetDouble("expr", 0);
  EXPECT_EQ(ProblemOf(spec), "key expr=a=b is not a finite number");
}

TEST(SpecTest, MalformedSpecsAreRefusedNamingTheItem) {
  EXPECT_EQ(ParseError(""), "empty name");
  EXPECT_EQ(ParseError(":n=1"), "empty name");
  EXPECT_EQ(ParseError("s:novalue"),
            "malformed item 'novalue' (missing '=', expected key=value)");
  EXPECT_NE(ParseError("s:n=1,novalue").find("missing '='"),
            std::string::npos);
  EXPECT_NE(ParseError("burst:n").find("missing '='"), std::string::npos);
  EXPECT_EQ(ParseError("s:=5"), "malformed item '=5' (empty key)");
  EXPECT_EQ(ParseError("s:,"), "malformed item '' (empty item)");
  EXPECT_NE(ParseError("s:n=1,").find("empty item"), std::string::npos);
  EXPECT_NE(ParseError("s:,n=1").find("empty item"), std::string::npos);
  EXPECT_NE(ParseError("s:n=1,,m=2").find("empty item"), std::string::npos);
}

// A spec value follows the flags' number rules: it parses whole, an integer
// fits int64_t and lies in the getter's range, and a double is finite. A
// refused value reads as the default and is the first thing Problem names,
// ahead of any unread key.
TEST(SpecTest, NumbersFollowTheFlagRules) {
  const Spec spec =
      MustParse("s:typo=1,neg=-12,plus=+7,small=1e-3,n=2k,dup=inf");
  EXPECT_EQ(spec.GetInt("neg", 0), -12);
  EXPECT_EQ(spec.GetInt("plus", 0), 7);
  EXPECT_DOUBLE_EQ(spec.GetDouble("small", 0), 0.001);
  EXPECT_EQ(ProblemOf(spec), "unknown key 'typo'");
  EXPECT_EQ(spec.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(spec.GetDouble("dup", 1.5), 1.5);
  EXPECT_EQ(ProblemOf(spec), "key n=2k is not an integer");

  const auto refusal = [](const std::string& item, bool as_int) {
    const Spec one = MustParse("s:" + item);
    const std::string key = item.substr(0, item.find('='));
    if (as_int) {
      one.GetInt(key, 0, 0, 64);
    } else {
      one.GetDouble(key, 0);
    }
    return ProblemOf(one);
  };
  EXPECT_EQ(refusal("m=12abc", true), "key m=12abc is not an integer");
  EXPECT_EQ(refusal("big=99999999999999999999", true),
            "key big=99999999999999999999 is not an integer");
  EXPECT_EQ(refusal("x=2.5km", false), "key x=2.5km is not a finite number");
  EXPECT_EQ(refusal("inf=inf", false), "key inf=inf is not a finite number");
  EXPECT_EQ(refusal("nan=nan", false), "key nan=nan is not a finite number");
  EXPECT_EQ(refusal("huge=1e999", false),
            "key huge=1e999 is not a finite number");
  EXPECT_EQ(refusal("shards=65", true),
            "key shards=65 is out of range [0, 64]");
  EXPECT_EQ(refusal("seed=-1", true), "key seed=-1 is out of range [0, 64]");
  EXPECT_EQ(refusal("ok=64", true), "");
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
