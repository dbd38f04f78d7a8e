// Tests for the bench front-end scaffolding: Flags strict parsing, the
// unknown-flag rejection, and PreflightOutputPaths — the fail-fast probe
// that keeps a long sweep from dying on its artifact write or persisting
// nothing into an unwritable cache dir. The death expectations pin the
// usage-error contract the bench binaries share: exit code 2, message
// naming the offending flag or variable.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "test_util.h"

namespace ppfr::bench {
namespace {

// Builds a Flags object as if the strings had been passed on a command line.
Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_under_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, StrictNumericParsingDiesNamingTheFlag) {
  const Flags flags = MakeFlags({"--epochs=12abc", "--seed=-1", "--lr=fast"});
  EXPECT_EXIT(flags.GetInt("epochs", 1), ::testing::ExitedWithCode(2),
              "epochs");
  EXPECT_EXIT(flags.GetUint64("seed", 1), ::testing::ExitedWithCode(2),
              "seed");
  EXPECT_EXIT(flags.GetDouble("lr", 0.1), ::testing::ExitedWithCode(2), "lr");

  // Well-formed values parse exactly; absent flags yield the default.
  const Flags ok = MakeFlags({"--epochs=7", "--fanout=5"});
  EXPECT_EQ(ok.GetInt("epochs", 1), 7);
  EXPECT_EQ(ok.GetInt("fanout", 1), 5);
  EXPECT_EQ(ok.GetInt("batch_nodes", 256), 256);
}

TEST(FlagsTest, UnknownFlagRejectionListsTheTypo) {
  const Flags flags = MakeFlags({"--epoch=10", "--fanout=5"});
  const std::vector<std::string> unknown =
      flags.UnknownFlags({"epochs", "fanout"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "epoch");
  EXPECT_EXIT(RejectUnknownFlags(flags, {"epochs", "fanout"}),
              ::testing::ExitedWithCode(kExitUsage), "unknown flag --epoch");
}

// The preflight probe for the scale artifact path: a fresh --json_dir is
// created up front (the same create_directories the real write performs) and
// the probe file is cleaned up, so the later BENCH_scale.json write cannot
// be the first thing to discover a bad path.
TEST(PreflightOutputPathsTest, CreatesTheArtifactDirAndRemovesTheProbe) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ppfr_scale_artifacts";
  std::filesystem::remove_all(dir);
  const Flags flags = MakeFlags({"--json_dir=" + dir.string()});
  PreflightOutputPaths(flags);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_FALSE(std::filesystem::exists(dir / ".ppfr_preflight"));
  std::filesystem::remove_all(dir);
}

TEST(PreflightOutputPathsTest, DiesNamingJsonDirWhenThePathCannotBeADir) {
  // A regular file where a path component should be a directory makes the
  // probe's create_directories/write fail for any user, root included.
  const std::filesystem::path blocker =
      std::filesystem::path(::testing::TempDir()) / "ppfr_preflight_blocker";
  std::filesystem::remove_all(blocker);
  std::ofstream(blocker.string()) << "not a directory";
  const std::string bad = (blocker / "nested").string();
  const Flags flags = MakeFlags({"--json_dir=" + bad});
  EXPECT_EXIT(PreflightOutputPaths(flags),
              ::testing::ExitedWithCode(kExitUsage), "--json_dir");
  std::filesystem::remove_all(blocker);
}

// /proc/self is an existing directory where nobody, root included, can
// create a file. A cache dir there must die before any cell trains, naming
// where the dir came from: the flag, or the environment variable.
TEST(PreflightOutputPathsTest, DiesNamingAnUnwritableRunCacheDir) {
  const std::string json_dir = ::testing::TempDir();
  const Flags flagged =
      MakeFlags({"--json_dir=" + json_dir, "--run_cache_dir=/proc/self"});
  EXPECT_EXIT(PreflightOutputPaths(flagged),
              ::testing::ExitedWithCode(kExitUsage),
              "--run_cache_dir '/proc/self' is not writable");

  ppfr::testing::ScopedEnvVar env("PPFR_RUN_CACHE_DIR", "/proc/self");
  const Flags from_env = MakeFlags({"--json_dir=" + json_dir});
  EXPECT_EXIT(PreflightOutputPaths(from_env),
              ::testing::ExitedWithCode(kExitUsage),
              "PPFR_RUN_CACHE_DIR '/proc/self' is not writable");
}

}  // namespace
}  // namespace ppfr::bench
