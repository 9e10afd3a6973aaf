// Shard invariance of every engine built on run_sharded: for campaign,
// production and scan, the merged MergeSafe metrics JSON and the
// canonical decision trace are byte-identical to the one-shard run, and
// the run's per-shard accounting covers every unit exactly once.
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "experiment/campaign.hpp"
#include "experiment/production.hpp"
#include "experiment/scan.hpp"
#include "obs/decision_trace.hpp"

namespace recwild::experiment {
namespace {

enum class Engine { Campaign, Production, Scan };

const char* engine_name(Engine engine) {
  static const char* const kNames[] = {"campaign", "production", "scan"};
  return kNames[static_cast<int>(engine)];
}

// gtest prints parameters with this (readable ctest names).
void PrintTo(Engine engine, std::ostream* os) { *os << engine_name(engine); }

struct EngineRun {
  std::string metrics_json;      // MergeSafe export of the merged registry
  std::string trace_tsv;         // canonical trace export
  std::size_t trace_events = 0;  // events in that export
  std::size_t units = 0;         // VPs or sources the engine ran
  std::size_t shard_units = 0;   // sum of RunStats::shards[].units
};

std::size_t sum_units(const RunStats& stats) {
  std::size_t n = 0;
  for (const auto& s : stats.shards) n += s.units;
  return n;
}

EngineRun run_engine(Engine engine, std::size_t shards) {
  TestbedConfig cfg;
  cfg.trace_decisions = true;
  cfg.test_sites = {"DUB", "FRA", "GRU"};
  switch (engine) {
    case Engine::Campaign:
      cfg.seed = 77;
      cfg.population.probes = 90;
      break;
    case Engine::Production:
      cfg.seed = 5;
      cfg.population.probes = 0;
      break;
    case Engine::Scan:
      cfg.seed = 2026;
      cfg.population.probes = 60;
      cfg.population.resolver_template.max_inflight_resolutions = 16;
      cfg.population.resolver_template.max_queued_resolutions = 256;
      break;
  }
  Testbed tb{cfg};

  EngineRun run;
  obs::MetricsSnapshot metrics;
  RunStats stats;
  switch (engine) {
    case Engine::Campaign: {
      CampaignConfig cc;
      cc.queries_per_vp = 4;
      cc.shards = shards;
      cc.run_stats = &stats;
      metrics = run_campaign(tb, cc).metrics;
      run.units = cfg.population.probes;
      break;
    }
    case Engine::Production: {
      ProductionConfig pc;
      pc.recursives = 60;
      pc.duration_hours = 0.1;
      pc.min_queries = 5;
      pc.shards = shards;
      auto result = run_production(tb, pc);
      metrics = std::move(result.metrics);
      stats = std::move(result.run_stats);
      run.units = pc.recursives;
      break;
    }
    case Engine::Scan: {
      ScanConfig sc;
      sc.names = 400;
      sc.shards = shards;
      sc.run_stats = &stats;
      metrics = run_scan(tb, sc).metrics;
      run.units = cfg.population.probes;
      break;
    }
  }
  run.metrics_json = metrics.to_json(obs::SnapshotStyle::MergeSafe);
  const auto events = tb.trace().canonical();
  std::ostringstream trace_out;
  obs::write_trace(trace_out, events);
  run.trace_tsv = trace_out.str();
  run.trace_events = events.size();
  run.shard_units = sum_units(stats);
  return run;
}

/// The one-shard reference, computed once per engine per process.
const EngineRun& reference(Engine engine) {
  static std::map<Engine, EngineRun> cache;
  auto it = cache.find(engine);
  if (it == cache.end()) {
    it = cache.emplace(engine, run_engine(engine, 1)).first;
  }
  return it->second;
}

class ShardedEngine
    : public ::testing::TestWithParam<std::tuple<Engine, std::size_t>> {};

TEST_P(ShardedEngine, MatchesOneShardRun) {
  const auto [engine, shards] = GetParam();
  const EngineRun& serial = reference(engine);
  const EngineRun run = run_engine(engine, shards);

  EXPECT_EQ(serial.metrics_json, run.metrics_json);
  EXPECT_EQ(serial.trace_tsv, run.trace_tsv);
  // The trace must carry something, or the comparison above is vacuous.
  EXPECT_GT(run.trace_events, 0u);
  EXPECT_EQ(run.shard_units, run.units);
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Engine, std::size_t>>& info) {
  return std::string{engine_name(std::get<0>(info.param))} + "_shards" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ShardedEngine,
    ::testing::Combine(::testing::Values(Engine::Campaign, Engine::Production,
                                         Engine::Scan),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4})),
    param_name);

}  // namespace
}  // namespace recwild::experiment
