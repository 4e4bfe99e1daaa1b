// rcs::cli::parse_flag: the whole value must parse and land in range, and a
// rejected value leaves the destination untouched. rcs::cli::Flags: every
// entry kind binds its variable, and a missing value, a rejected value or an
// unknown argument stops the tool with status 2. rcs::cli::write_file: a
// failed write is reported, including one that fails only at close.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rcs::cli {
namespace {

TEST(CliParseFlag, AcceptsWholeValuesInRange) {
  int seeds = -1;
  EXPECT_TRUE(parse_flag("--seeds", "25", 0, 100, seeds));
  EXPECT_EQ(seeds, 25);
  EXPECT_TRUE(parse_flag("--seeds", "0", 0, 100, seeds));
  EXPECT_EQ(seeds, 0);

  std::uint64_t seed = 0;
  EXPECT_TRUE(parse_flag("--seed", "18446744073709551615", 0, UINT64_MAX,
                         seed));
  EXPECT_EQ(seed, UINT64_MAX);

  double bandwidth = 0.0;
  EXPECT_TRUE(parse_flag("--bandwidth", "1e6", 1.0, 1e12, bandwidth));
  EXPECT_EQ(bandwidth, 1e6);
  EXPECT_TRUE(parse_flag("--bandwidth", "2.5", 1.0, 1e12, bandwidth));
  EXPECT_EQ(bandwidth, 2.5);
}

TEST(CliParseFlag, RejectsMalformedValues) {
  int n = 7;
  for (const char* bad : {"", "abc", "10x", " 10", "10 ", "+10", "1.5",
                          "0x10", "99999999999999999999"}) {
    EXPECT_FALSE(parse_flag("--steps", bad, 0, 1'000'000, n)) << bad;
  }
  EXPECT_FALSE(parse_flag("--steps", nullptr, 0, 10, n));
  EXPECT_EQ(n, 7);

  std::size_t clients = 40;
  EXPECT_FALSE(parse_flag("--clients", "-3", 1, 100, clients));
  EXPECT_EQ(clients, 40u);

  double rate = 1.0;
  for (const char* bad : {"nan", "inf", "1e", "fast", "1.0.0"}) {
    EXPECT_FALSE(parse_flag("--rps", bad, 1e-3, 1e6, rate)) << bad;
  }
  EXPECT_EQ(rate, 1.0);
}

TEST(CliParseFlag, RejectsValuesOutOfRange) {
  int transitions = 2;
  EXPECT_FALSE(parse_flag("--transitions", "-3", 0, 100, transitions));
  EXPECT_FALSE(parse_flag("--transitions", "101", 0, 100, transitions));
  EXPECT_EQ(transitions, 2);

  int steps = 8;
  EXPECT_FALSE(parse_flag("--steps", "0", 1, 10'000, steps));
  EXPECT_EQ(steps, 8);

  double window = 6.0;
  EXPECT_FALSE(parse_flag("--window", "0", 1e-3, 86'400.0, window));
  EXPECT_FALSE(parse_flag("--window", "1e9", 1e-3, 86'400.0, window));
  EXPECT_EQ(window, 6.0);
}

/// Runs `flags` over `args` (argv[0] is supplied).
std::optional<int> parse(Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

struct Sample {
  int steps{8};
  std::string ftm{"PBR"};
  std::string delta{"both"};
  bool verbose{false};

  Flags table() {
    Flags flags("usage: tool [--steps N] [--ftm NAME] [--delta on|off|both]");
    flags.number("--steps", 1, 100, steps)
        .text("--ftm", ftm,
              [](const std::string& name) {
                if (name != "PBR" && name != "LFR") {
                  throw std::invalid_argument("unknown FTM '" + name + "'");
                }
              })
        .choice("--delta", {"on", "off", "both"}, delta)
        .toggle("--verbose", verbose);
    return flags;
  }
};

TEST(CliFlags, EveryEntryKindBindsItsVariable) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(parse(flags, {"--steps", "12", "--ftm", "LFR", "--delta", "off",
                          "--verbose"}),
            std::nullopt);
  EXPECT_EQ(s.steps, 12);
  EXPECT_EQ(s.ftm, "LFR");
  EXPECT_EQ(s.delta, "off");
  EXPECT_TRUE(s.verbose);
  EXPECT_TRUE(flags.given("--ftm"));
  EXPECT_TRUE(flags.given("--verbose"));
}

TEST(CliFlags, OmittedFlagsKeepTheirDefaults) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(parse(flags, {"--delta", "on"}), std::nullopt);
  EXPECT_EQ(s.steps, 8);
  EXPECT_EQ(s.ftm, "PBR");
  EXPECT_EQ(s.delta, "on");
  EXPECT_FALSE(s.verbose);
  EXPECT_TRUE(flags.given("--delta"));
  EXPECT_FALSE(flags.given("--steps"));
  EXPECT_FALSE(flags.given("--no-such-flag"));
}

TEST(CliFlags, ChoiceAcceptsOnlyItsListedValues) {
  for (const char* bad : {"of", "ON", "", "on ", "both,on"}) {
    Sample s;
    auto flags = s.table();
    EXPECT_EQ(parse(flags, {"--delta", bad}), 2) << bad;
    EXPECT_EQ(s.delta, "both") << bad;
    EXPECT_FALSE(flags.given("--delta")) << bad;
  }
}

TEST(CliFlags, TextCheckRejectsByThrowing) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(parse(flags, {"--ftm", "XYZ"}), 2);
  EXPECT_EQ(s.ftm, "PBR");

  Flags plain("usage: tool --out FILE");
  std::string out;
  plain.text("--out", out);
  EXPECT_EQ(parse(plain, {"--out", ""}), std::nullopt);
  EXPECT_EQ(out, "");
  EXPECT_TRUE(plain.given("--out"));
}

TEST(CliFlags, RejectsUnknownArgumentsAndMissingValues) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(parse(flags, {"--stepz", "3"}), 2);
  EXPECT_EQ(parse(flags, {"12"}), 2);
  EXPECT_EQ(parse(flags, {"-v"}), 2);
  // A value is consumed only when the entry takes one.
  EXPECT_EQ(parse(flags, {"--verbose", "yes"}), 2);
  for (const char* flag : {"--steps", "--ftm", "--delta"}) {
    EXPECT_EQ(parse(flags, {flag}), 2) << flag;
  }
  EXPECT_EQ(parse(flags, {"--steps", "0"}), 2);
  EXPECT_EQ(s.steps, 8);
  EXPECT_EQ(s.ftm, "PBR");
  EXPECT_EQ(s.delta, "both");
}

TEST(CliFlags, HelpStopsWithStatusZero) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(parse(flags, {"--help"}), 0);
  EXPECT_EQ(parse(flags, {"--steps", "3", "-h", "--bogus"}), 0);
  // As a value, "--help" is just text.
  EXPECT_EQ(parse(flags, {"--delta", "--help"}), 2);
}

TEST(CliFlags, FailPrintsUsageAndReturnsTwo) {
  Sample s;
  auto flags = s.table();
  EXPECT_EQ(flags.fail("bad --rps-to value: 1 is below --rps-from 2"), 2);
}

TEST(CliWriteFile, WritesTheBytesAndReportsAFailedFlush) {
  const std::string path = ::testing::TempDir() + "cli_write_file.txt";
  ASSERT_TRUE(write_file(path, "trace bytes\n", "trace"));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "trace bytes\n");
  std::remove(path.c_str());

  // /dev/full accepts the buffered fwrite; the write fails at fclose.
  EXPECT_FALSE(write_file("/dev/full", "trace bytes\n", "trace"));
  EXPECT_FALSE(write_file("/nonexistent-dir/out.json", "x", "metrics"));
}

}  // namespace
}  // namespace rcs::cli
