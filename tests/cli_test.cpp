// The example CLIs' input contract: a malformed count or a config no run can
// use ends with one `error:` line and exit 2 before any simulation starts —
// never a wrapped-around count running unbounded, nor an uncaught-exception
// abort.  Runs the built binaries (paths passed in by tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <sys/wait.h>

namespace rmacsim {
namespace {

struct CliRun {
  int exit_code{-1};  // -1: killed by a signal
  std::string output;  // stdout and stderr, merged
};

CliRun run_cli(const std::string& command) {
  CliRun r;
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void expect_rejected(const char* binary, const std::string& args) {
  const CliRun r = run_cli(std::string(binary) + " " + args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << args << "\n" << r.output;
}

TEST(CliTest, RunExperimentRejectsMalformedCounts) {
  for (const char* args : {"--packets -1", "--nodes abc", "--shards 2x", "--shard-threads -2",
                           "--seed -3", "--payload 1.5", "--queue-limit ''",
                           "--lookahead-us -200", "--packets 99999999999"}) {
    expect_rejected(RMAC_RUN_EXPERIMENT_BIN, args);
  }
}

TEST(CliTest, RunCampaignRejectsBadInlineFlagsUpFront) {
  // The same base-config check a spec file gets: no cell is run, so the
  // store is never created.
  const std::filesystem::path store =
      std::filesystem::path(::testing::TempDir()) / "cli_test_campaign_store";
  std::filesystem::remove_all(store);
  for (const char* args : {"--packets 0", "--nodes 1", "--seeds 1,-2", "--seeds x",
                           "--payload -5"}) {
    expect_rejected(RMAC_RUN_CAMPAIGN_BIN,
                    std::string(args) + " --workers 0 --store " + store.string());
  }
  EXPECT_FALSE(std::filesystem::exists(store));
}

TEST(CliTest, ScenarioExamplesReportRejectedConfigs) {
  expect_rejected(RMAC_RESCUE_MOBILITY_BIN, "0");
  expect_rejected(RMAC_RESCUE_MOBILITY_BIN, "-1");
  expect_rejected(RMAC_BATTLEFIELD_MULTICAST_BIN, "0");
  expect_rejected(RMAC_BATTLEFIELD_MULTICAST_BIN, "10 20 -7");
}

}  // namespace
}  // namespace rmacsim
