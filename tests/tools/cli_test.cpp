// rcs::cli::parse_flag: the whole value must parse and land in range, and a
// rejected value leaves the destination untouched. rcs::cli::write_file:
// a failed write is reported, including one that fails only at close.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

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
