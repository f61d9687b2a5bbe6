// Command-line parsing shared by the benchmark binaries (bench/bench_util.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace alpa {
namespace bench {
namespace {

BenchFlags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlags, ParsesThreadsInBothForms) {
  EXPECT_EQ(Parse({}).threads, 1);
  EXPECT_EQ(Parse({"--threads", "4"}).threads, 4);
  EXPECT_EQ(Parse({"--threads=0"}).threads, 0);
  EXPECT_EQ(Parse({"--threads=12", "--json", "out.json"}).json_path, "out.json");
}

TEST(BenchFlagsDeathTest, RejectsNonNumericThreads) {
  // atoi would have read each of these as 0, i.e. hardware concurrency.
  EXPECT_EXIT(Parse({"--threads", "four"}), ::testing::ExitedWithCode(2),
              "invalid --threads value 'four'.*\n.*usage: ");
  EXPECT_EXIT(Parse({"--threads=4x"}), ::testing::ExitedWithCode(2),
              "invalid --threads value '4x'");
  EXPECT_EXIT(Parse({"--threads="}), ::testing::ExitedWithCode(2), "invalid --threads value ''");
  EXPECT_EXIT(Parse({"--threads", "-1"}), ::testing::ExitedWithCode(2),
              "invalid --threads value '-1'");
  EXPECT_EXIT(Parse({"--threads", "99999999999"}), ::testing::ExitedWithCode(2),
              "invalid --threads value");
}

}  // namespace
}  // namespace bench
}  // namespace alpa
