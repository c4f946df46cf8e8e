#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tracon {
namespace {

TEST(ArgParser, FlagForms) {
  // A flag followed by a non-flag token consumes it as a value, so
  // positionals must precede value-less flags.
  ArgParser args({"pos1", "pos2", "--alpha", "3", "--beta=xyz", "--gamma"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_EQ(args.get("alpha"), "3");
  EXPECT_EQ(args.get("beta"), "xyz");
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_EQ(args.get("gamma"), "");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(ArgParser, FlagFollowedByFlagIsBoolean) {
  ArgParser args({"--a", "--b", "7"});
  EXPECT_EQ(args.get("a"), "");
  EXPECT_EQ(args.get("b"), "7");
}

TEST(ArgParser, Fallbacks) {
  ArgParser args({"--x", "1.5"});
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_int("missing", 9), 9);
}

TEST(ArgParser, NumericValidation) {
  ArgParser args({"--n", "abc", "--m", "3x"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("m", 0.0), std::invalid_argument);
}

TEST(ArgParser, CountsRejectNegativesAndValuesBelowTheMinimum) {
  ArgParser args({"--machines", "-5", "--threads", "-1", "--queue", "0",
                  "--shards", "0", "--n", "7", "--x", "2.5"});
  EXPECT_THROW(args.get_count("machines", 64, 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("threads", 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("queue", 8, 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("x", 0), std::invalid_argument);
  EXPECT_EQ(args.get_count("shards", 3), 0u);  // 0 is a valid count
  EXPECT_EQ(args.get_count("n", 0, 1), 7u);
  EXPECT_EQ(args.get_count("missing", 64, 1), 64u);
}

TEST(ArgParser, CountErrorNamesTheFlagAndTheValue) {
  ArgParser args({"--machines", "-5"});
  try {
    args.get_count("machines", 64, 1);
    FAIL() << "--machines -5 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--machines"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'-5'"), std::string::npos) << what;
  }
}

TEST(ArgParser, PositiveRejectsZeroNegativeAndNonFinite) {
  ArgParser args({"--hours", "0.001", "--lambda", "0", "--a", "-2", "--b",
                  "nan", "--c", "inf", "--d", "x"});
  EXPECT_DOUBLE_EQ(args.get_positive("hours", 10.0), 0.001);
  EXPECT_DOUBLE_EQ(args.get_positive("missing", 10.0), 10.0);
  for (const char* flag : {"lambda", "a", "b", "c", "d"})
    EXPECT_THROW(args.get_positive(flag, 1.0), std::invalid_argument) << flag;
}

TEST(ArgParser, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "cmd", "--k", "5"};
  ArgParser args(4, argv);
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "cmd");
  EXPECT_EQ(args.get_int("k", 0), 5);
}

TEST(ArgParser, UnknownFlags) {
  ArgParser args({"--good", "1", "--oops", "2"});
  auto unknown = args.unknown_flags({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
  EXPECT_TRUE(args.unknown_flags({"good", "oops"}).empty());
}

TEST(ArgParser, BareDashesRejected) {
  EXPECT_THROW(ArgParser({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace tracon
