// End-to-end experiment harness tests: metric sanity, determinism, input
// validation and result averaging.
#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace rmacsim {
namespace {

ExperimentConfig small_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig c;
  c.protocol = proto;
  c.mobility = MobilityScenario::kStationary;
  c.rate_pps = 10.0;
  c.num_packets = 40;
  c.num_nodes = 20;
  c.area = Rect{250.0, 250.0};
  c.seed = seed;
  c.warmup = SimTime::sec(12);
  c.drain = SimTime::sec(5);
  return c;
}

TEST(Experiment, RmacStationaryProducesSaneMetrics) {
  const ExperimentResult r = run_experiment(small_config(Protocol::kRmac, 1));
  EXPECT_EQ(r.generated, 40u);
  EXPECT_EQ(r.expected, 40u * 19u);
  EXPECT_GT(r.delivery_ratio, 0.95);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.avg_delay_s, 0.0);
  EXPECT_LT(r.avg_delay_s, 1.0);
  EXPECT_LT(r.avg_drop_ratio, 0.05);
  EXPECT_GE(r.avg_retx_ratio, 0.0);
  EXPECT_GT(r.events_executed, 1000u);
  // Tree formed during warm-up.
  EXPECT_GT(r.tree_hops_avg, 0.0);
  EXPECT_GT(r.tree_children_avg, 0.0);
  // MRTS lengths within Fig. 3 bounds.
  EXPECT_GE(r.mrts_len_avg, 18.0);
  EXPECT_LE(r.mrts_len_max, 12.0 + 6.0 * 20.0);
}

TEST(Experiment, RejectsConfigsNoEngineCanRun) {
  // Validation happens once, at the driver's entry, for both engines; the
  // message names the offending field.
  const auto expect_rejected = [](const ExperimentConfig& c, const std::string& field) {
    EXPECT_THROW(
        {
          try {
            (void)run_experiment(c);
          } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
            throw;
          }
        },
        std::invalid_argument)
        << field;
  };
  for (const unsigned shards : {1u, 2u}) {
    for (const unsigned nodes : {0u, 1u}) {
      ExperimentConfig c = small_config(Protocol::kRmac, 1);
      c.shards = shards;
      c.num_nodes = nodes;
      expect_rejected(c, "num_nodes");
    }
  }
  for (const double rate : {0.0, -5.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig c = small_config(Protocol::kRmac, 1);
    c.rate_pps = rate;
    expect_rejected(c, "rate_pps");
  }
  for (const unsigned shards : {1u, 2u}) {
    ExperimentConfig c = small_config(Protocol::kRmac, 1);
    c.shards = shards;
    c.num_packets = 0;
    expect_rejected(c, "num_packets");
  }
  ExperimentConfig c = small_config(Protocol::kRmac, 1);
  c.shards = 0;
  expect_rejected(c, "shards");
}

TEST(Experiment, BmmmStationaryRuns) {
  const ExperimentResult r = run_experiment(small_config(Protocol::kBmmm, 1));
  EXPECT_GT(r.delivery_ratio, 0.8);
  EXPECT_EQ(r.mrts_len_avg, 0.0);  // BMMM has no MRTS
  EXPECT_GT(r.avg_txoh_ratio, 0.5);  // 2n control pairs are expensive
}

TEST(Experiment, SameSeedIsBitwiseDeterministic) {
  const ExperimentResult a = run_experiment(small_config(Protocol::kRmac, 7));
  const ExperimentResult b = run_experiment(small_config(Protocol::kRmac, 7));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_DOUBLE_EQ(a.avg_delay_s, b.avg_delay_s);
  EXPECT_DOUBLE_EQ(a.avg_retx_ratio, b.avg_retx_ratio);
  EXPECT_DOUBLE_EQ(a.mrts_len_avg, b.mrts_len_avg);
}

TEST(Experiment, DifferentSeedsDiffer) {
  const ExperimentResult a = run_experiment(small_config(Protocol::kRmac, 1));
  const ExperimentResult b = run_experiment(small_config(Protocol::kRmac, 2));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Experiment, MobileScenarioRunsAndDeliversSomething) {
  ExperimentConfig c = small_config(Protocol::kRmac, 1);
  c.mobility = MobilityScenario::kSpeed2;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.delivery_ratio, 0.3);  // mobility hurts, but traffic flows
  EXPECT_LE(r.delivery_ratio, 1.0);
}

TEST(Experiment, LabelIsHumanReadable) {
  const ExperimentConfig c = small_config(Protocol::kRmac, 9);
  const std::string label = c.label();
  EXPECT_NE(label.find("RMAC"), std::string::npos);
  EXPECT_NE(label.find("stationary"), std::string::npos);
  EXPECT_NE(label.find("seed9"), std::string::npos);
}

TEST(Experiment, AverageResultsAveragesAndMaxes) {
  ExperimentResult a;
  a.delivery_ratio = 0.8;
  a.mrts_len_max = 30.0;
  a.abort_max = 0.01;
  ExperimentResult b;
  b.delivery_ratio = 1.0;
  b.mrts_len_max = 60.0;
  b.abort_max = 0.002;
  const ExperimentResult avg = average_results({a, b});
  EXPECT_DOUBLE_EQ(avg.delivery_ratio, 0.9);
  EXPECT_DOUBLE_EQ(avg.mrts_len_max, 60.0);
  EXPECT_DOUBLE_EQ(avg.abort_max, 0.01);
}

// Regression: percentiles must come from the pooled per-reception samples,
// not from averaging each seed's percentile.  With skewed seeds (one seed
// contributing 9 fast receptions, another a single 1 s straggler) the two
// computations differ by design: the pooled p99 is the straggler itself,
// and the pooled mean weights every sample equally instead of every seed.
TEST(Experiment, AverageResultsPoolsDelaySamplesBeforePercentiles) {
  ExperimentResult a;
  a.delay_samples_s.assign(9, 0.1);
  a.avg_delay_s = 0.1;  // per-seed summaries, deliberately misleading
  a.p99_delay_s = 0.1;
  ExperimentResult b;
  b.delay_samples_s = {1.0};
  b.avg_delay_s = 1.0;
  b.p99_delay_s = 1.0;
  const ExperimentResult avg = average_results({a, b});
  ASSERT_EQ(avg.delay_samples_s.size(), 10u);
  EXPECT_NEAR(avg.avg_delay_s, (9 * 0.1 + 1.0) / 10.0, 1e-12);  // 0.19, not 0.55
  EXPECT_DOUBLE_EQ(avg.p99_delay_s, 1.0);  // pooled nearest-rank p99, not 0.55
}

// Regression: the averaged result's ledger is the across-seed sum, so the
// conservation identity survives averaging.
TEST(Experiment, AverageResultsSumsLedgers) {
  ExperimentResult a;
  a.ledger.journeys = 2;
  a.ledger.expected = 10;
  a.ledger.delivered = 9;
  a.ledger.dropped[static_cast<std::size_t>(DropReason::kRetryExhausted)] = 1;
  ExperimentResult b;
  b.ledger.journeys = 3;
  b.ledger.expected = 15;
  b.ledger.delivered = 12;
  b.ledger.dropped[static_cast<std::size_t>(DropReason::kQueueOverflow)] = 3;
  const ExperimentResult avg = average_results({a, b});
  EXPECT_EQ(avg.ledger.journeys, 5u);
  EXPECT_EQ(avg.ledger.expected, 25u);
  EXPECT_EQ(avg.ledger.delivered, 21u);
  EXPECT_EQ(avg.ledger.total_dropped(), 4u);
  EXPECT_TRUE(avg.ledger.conservation_ok());
}

TEST(NetworkBuilder, ConnectivityChecker) {
  EXPECT_TRUE(Network::placement_connected({{0, 0}, {50, 0}, {100, 0}}, 75.0));
  EXPECT_FALSE(Network::placement_connected({{0, 0}, {50, 0}, {300, 0}}, 75.0));
  EXPECT_TRUE(Network::placement_connected({}, 75.0));
  EXPECT_TRUE(Network::placement_connected({{5, 5}}, 75.0));
}

TEST(NetworkBuilder, EnsureConnectedPlacementIsConnected) {
  NetworkConfig c;
  c.num_nodes = 30;
  c.area = Rect{300.0, 300.0};
  c.seed = 11;
  Network net{c};
  EXPECT_TRUE(net.connected_now());
}

TEST(NetworkBuilder, ScenarioNames) {
  EXPECT_STREQ(to_string(MobilityScenario::kStationary), "stationary");
  EXPECT_STREQ(to_string(MobilityScenario::kSpeed1), "speed1");
  EXPECT_STREQ(to_string(MobilityScenario::kSpeed2), "speed2");
  EXPECT_STREQ(to_string(Protocol::kRmac), "RMAC");
  EXPECT_STREQ(to_string(Protocol::kBmmm), "BMMM");
  EXPECT_STREQ(to_string(Protocol::kBmw), "BMW");
  EXPECT_STREQ(to_string(Protocol::kDcf), "802.11-DCF");
}

}  // namespace
}  // namespace rmacsim
