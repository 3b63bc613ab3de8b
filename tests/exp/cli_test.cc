#include "pob/exp/cli.h"

#include <gtest/gtest.h>

namespace pob {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const Args args = make_args({"prog", "--n=100", "--k", "50", "--quick"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_int("k", 0), 50);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  const Args args = make_args({"prog", "--full", "--runs=3"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_EQ(args.get_int("runs", 0), 3);
  EXPECT_EQ(args.get_int("full", 9), 9);  // bare flag has no value
}

TEST(Cli, DoubleAndStringValues) {
  const Args args = make_args({"prog", "--rate=2.5", "--policy=rarest"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("policy", "random"), "rarest");
  EXPECT_EQ(args.get_string("other", "fallback"), "fallback");
}

TEST(Cli, IntListParsing) {
  const Args args = make_args({"prog", "--degrees=10,20,40"});
  EXPECT_EQ(args.get_int_list("degrees", {}), (std::vector<std::int64_t>{10, 20, 40}));
  EXPECT_EQ(args.get_int_list("none", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Cli, NumericFlagErrorsNameTheFlagAndTheText) {
  struct Case {
    const char* arg;
    const char* error;
  };
  const Case cases[] = {
      {"--n=abc", "--n: expected an integer, got \"abc\""},
      {"--n=12abc", "--n: expected an integer, got \"12abc\""},
      {"--n=1.5", "--n: expected an integer, got \"1.5\""},
      {"--n=99999999999999999999", "--n: expected an integer, got \"99999999999999999999\""},
      {"--n=-3", "--n: expected a non-negative integer, got \"-3\""},
      {"--n=4294967296", "--n: expected an integer below 2^32, got \"4294967296\""},
  };
  for (const Case& c : cases) {
    const Args args = make_args({"prog", c.arg});
    try {
      args.get_uint("n", 0);
      ADD_FAILURE() << c.arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.error) << c.arg;
    }
  }
  // The signed accessor shares the integer errors and accepts negatives.
  EXPECT_THROW(make_args({"prog", "--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_EQ(make_args({"prog", "--n=-3"}).get_int("n", 0), -3);
  EXPECT_EQ(make_args({"prog", "--n=4294967295"}).get_uint("n", 0), 4294967295u);
  EXPECT_EQ(make_args({"prog", "--n=0"}).get_uint("n", 7), 0u);
  EXPECT_EQ(make_args({"prog"}).get_uint("n", 7), 7u);
  try {
    make_args({"prog", "--sweep=1,x,4"}).get_int_list("sweep", {});
    ADD_FAILURE() << "--sweep=1,x,4 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--sweep: expected an integer, got \"x\"");
  }
  // Floating-point flags parse the whole text too, and only finite values.
  const Case double_cases[] = {
      {"--leave-pct=abc", "--leave-pct: expected a number, got \"abc\""},
      {"--leave-pct=1.5x", "--leave-pct: expected a number, got \"1.5x\""},
      {"--leave-pct= 2", "--leave-pct: expected a number, got \" 2\""},
      {"--leave-pct=1e999", "--leave-pct: expected a number, got \"1e999\""},
      {"--leave-pct=inf", "--leave-pct: expected a number, got \"inf\""},
      {"--leave-pct=nan", "--leave-pct: expected a number, got \"nan\""},
  };
  for (const Case& c : double_cases) {
    const Args args = make_args({"prog", c.arg});
    try {
      args.get_double("leave-pct", 0.0);
      ADD_FAILURE() << c.arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.error) << c.arg;
    }
  }
  EXPECT_DOUBLE_EQ(make_args({"prog", "--leave-pct=-2.5e1"}).get_double("leave-pct", 0.0),
                   -25.0);
  EXPECT_DOUBLE_EQ(make_args({"prog", "--leave-pct=20"}).get_double("leave-pct", 0.0), 20.0);
  EXPECT_DOUBLE_EQ(make_args({"prog"}).get_double("leave-pct", 7.5), 7.5);
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(make_args({"prog", "oops"}), std::invalid_argument);
}

}  // namespace
}  // namespace pob
