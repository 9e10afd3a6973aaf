// Observability under sharding: the metric registry and decision trace the
// campaign/production engines assemble must export byte-identical for every
// shard count — the same guarantee the analysis CSVs already carry.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiment/campaign.hpp"
#include "experiment/production.hpp"
#include "obs/decision_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace recwild::experiment {
namespace {

TestbedConfig small_config(std::uint64_t seed = 77, std::size_t probes = 90) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = probes;
  cfg.test_sites = {"DUB", "FRA", "GRU"};
  return cfg;
}

struct ObsRun {
  std::string metrics_json;  // MergeSafe export of the merged registry
  std::string trace_tsv;     // canonical trace export
  obs::MetricsSnapshot metrics;
};

ObsRun run_with_shards(std::size_t shards) {
  auto cfg = small_config();
  cfg.trace_decisions = true;
  Testbed tb{cfg};
  CampaignConfig cc;
  cc.interval = net::Duration::minutes(2);
  cc.queries_per_vp = 5;
  cc.shards = shards;
  const auto result = run_campaign(tb, cc);

  ObsRun run;
  run.metrics_json = result.metrics.to_json(obs::SnapshotStyle::MergeSafe);
  std::ostringstream trace_out;
  obs::write_trace(trace_out, tb.trace().canonical());
  run.trace_tsv = trace_out.str();
  run.metrics = result.metrics;
  return run;
}

TEST(ObsCampaign, MergeSafeJsonByteIdenticalAcrossShardCounts) {
  const auto serial = run_with_shards(1);
  const auto two = run_with_shards(2);
  const auto four = run_with_shards(4);
  EXPECT_EQ(serial.metrics_json, two.metrics_json);
  EXPECT_EQ(serial.metrics_json, four.metrics_json);
}

TEST(ObsCampaign, CanonicalTraceByteIdenticalAcrossShardCounts) {
  const auto serial = run_with_shards(1);
  const auto two = run_with_shards(2);
  const auto four = run_with_shards(4);
  EXPECT_FALSE(serial.trace_tsv.empty());
  EXPECT_EQ(serial.trace_tsv, two.trace_tsv);
  EXPECT_EQ(serial.trace_tsv, four.trace_tsv);
}

TEST(ObsCampaign, CountersReflectTheCampaign) {
  const auto run = run_with_shards(2);
  const auto& m = run.metrics;
  // 90 VPs x 5 queries each were scheduled; every VP was placed.
  EXPECT_EQ(m.counter_value(obs::names::kCampaignVps), 90u);
  EXPECT_EQ(m.counter_value(obs::names::kCampaignQueriesSent), 450u);
  EXPECT_EQ(m.counter_value(obs::names::kCampaignQueriesAnswered) +
                m.counter_value(obs::names::kCampaignQueriesUnanswered),
            450u);
  // The campaign exercised the whole stack underneath.
  EXPECT_GT(m.counter_value(obs::names::kResolverClientQueries), 0u);
  EXPECT_GT(m.counter_value(obs::names::kResolverUpstreamSent), 0u);
  EXPECT_GT(m.counter_value(obs::names::kRrcacheHits), 0u);
  EXPECT_GT(m.counter_value(obs::names::kAuthnsQueries), 0u);
  EXPECT_GT(m.counter_value(obs::names::kNetPacketsDelivered), 0u);
  EXPECT_GT(m.counter_value(obs::names::kSimEventsProcessed), 0u);
}

TEST(ObsCampaign, MergeSafeExcludesGaugesFullIncludesThem) {
  const auto run = run_with_shards(1);
  EXPECT_EQ(run.metrics_json.find("sim.queue.peak_pending"),
            std::string::npos);
  const std::string full = run.metrics.to_json(obs::SnapshotStyle::Full);
  EXPECT_NE(full.find("sim.queue.peak_pending"), std::string::npos);
}

TEST(ObsCampaign, IdleDefensesLeaveMergeSafeBytesUnchanged) {
  // Arming RRL at a rate no client reaches and a referral cap no referral
  // hits registers their counters but never touches them: the MergeSafe
  // export must equal the plain world's, byte for byte.
  const auto metrics_json = [](bool armed) {
    auto cfg = small_config();
    if (armed) {
      cfg.rrl.rate = 1'000'000;
      cfg.referral_fanout_cap = 1000;
    }
    Testbed tb{cfg};
    CampaignConfig cc;
    cc.interval = net::Duration::minutes(2);
    cc.queries_per_vp = 5;
    return run_campaign(tb, cc).metrics.to_json(obs::SnapshotStyle::MergeSafe);
  };
  const std::string plain = metrics_json(false);
  EXPECT_EQ(plain.find(obs::names::kRrlDropped), std::string::npos);
  EXPECT_EQ(plain, metrics_json(true));
}

TEST(ObsCampaign, TraceRoundTripsThroughTheTsvFormat) {
  const auto run = run_with_shards(1);
  std::istringstream in{run.trace_tsv};
  const auto parsed = obs::read_trace(in);
  std::ostringstream out;
  obs::write_trace(out, parsed);
  EXPECT_EQ(out.str(), run.trace_tsv);
}

TEST(ObsProduction, MergeSafeJsonByteIdenticalAcrossShardCounts) {
  const auto run = [](std::size_t shards) {
    TestbedConfig cfg;
    cfg.seed = 5;
    cfg.population.probes = 0;
    Testbed tb{cfg};
    ProductionConfig pc;
    pc.recursives = 60;
    pc.duration_hours = 0.1;
    pc.min_queries = 5;
    pc.shards = shards;
    const auto result = run_production(tb, pc);
    return result.metrics.to_json(obs::SnapshotStyle::MergeSafe);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(3));
  std::istringstream in{serial};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{");  // sanity: the export is the JSON object
  EXPECT_NE(serial.find("production.lookups"), std::string::npos);
}

}  // namespace
}  // namespace recwild::experiment
