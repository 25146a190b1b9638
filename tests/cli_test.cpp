// The example CLIs' input contract: a malformed count or a config no run can
// use ends with one `error:` line and exit 2 before any simulation starts —
// never a wrapped-around count running unbounded, nor an uncaught-exception
// abort.  Likewise a campaign whose artifacts cannot be written fails with
// `error:` rather than exiting 0.  Runs the built binaries (paths passed in
// by tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
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

TEST(CliTest, RunCampaignCreatesOutDirOrFailsLoudly) {
  // A missing --out directory is created, nested levels included; one that
  // cannot be created, or an artifact that cannot be written, ends with an
  // `error:` line and exit 2 — never exit 0 with the files absent.
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "cli_test_campaign_out";
  std::filesystem::remove_all(root);
  const std::string args =
      "--protocols rmac --mobilities stationary --rates 20 --seeds 1 --nodes 10"
      " --area 150x150 --packets 5 --workers 0 --prefix t --store " +
      (root / "store").string() + " --out ";
  const auto run_campaign_into = [&](const std::filesystem::path& out) {
    return run_cli(std::string(RMAC_RUN_CAMPAIGN_BIN) + " " + args + out.string());
  };

  const std::filesystem::path nested = root / "a" / "b" / "c";
  const CliRun ran = run_campaign_into(nested);
  EXPECT_EQ(ran.exit_code, 0) << ran.output;
  for (const char* artifact : {"t_manifest.json", "t_aggregate_metrics.json", "t_status.json"}) {
    EXPECT_TRUE(std::filesystem::exists(nested / artifact)) << artifact;
  }

  // --out below a regular file cannot be created.
  std::ofstream{root / "file"};
  expect_rejected(RMAC_RUN_CAMPAIGN_BIN, args + (root / "file" / "sub").string());

  // The manifest's path is taken by a directory: the write fails.
  std::filesystem::create_directories(root / "taken" / "t_manifest.json");
  const CliRun taken = run_campaign_into(root / "taken");
  EXPECT_EQ(taken.exit_code, 2) << taken.output;
  EXPECT_NE(taken.output.find("error: campaign: cannot write"), std::string::npos)
      << taken.output;
  std::filesystem::remove_all(root);
}

TEST(CliTest, ScenarioExamplesReportRejectedConfigs) {
  expect_rejected(RMAC_RESCUE_MOBILITY_BIN, "0");
  expect_rejected(RMAC_RESCUE_MOBILITY_BIN, "-1");
  expect_rejected(RMAC_BATTLEFIELD_MULTICAST_BIN, "0");
  expect_rejected(RMAC_BATTLEFIELD_MULTICAST_BIN, "10 20 -7");
}

}  // namespace
}  // namespace rmacsim
