// Shard-count scaling of the campaign engine.
//
// Builds the immutable WorldSnapshot ONCE (timed as the world-build phase),
// then runs the paper's 1-hour campaign once per shard count on replicas
// materialized from that shared world. Reports per-phase wall-clock
// (world build / materialize / partition / shard run / merge), per-shard
// VP counts and resident-set samples, and cross-checks that every shard
// count exports byte-identical results (the engine's determinism
// guarantee).
//
//   ./build/bench/bench_parallel_campaign --probes 10000 --seed 42
//   ./build/bench/bench_parallel_campaign --shards 1,2,4,8 --queries 31
//   ./build/bench/bench_parallel_campaign --json BENCH_campaign.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "experiment/export.hpp"
#include "obs/process.hpp"

using namespace recwild;
using namespace recwild::experiment;

namespace {

// Pre-fastpath wall-clock for the canonical configuration (10k probes,
// 31 queries/VP, seed 42, shards=1), measured on the seed revision of this
// repo on the same class of machine. The speedup gate in BENCH_campaign.json
// is computed against this constant.
constexpr double kBaselineWallS = 11.32;
constexpr std::size_t kBaselineProbes = 10'000;
constexpr std::size_t kBaselineQueries = 31;

std::string export_bytes(const CampaignResult& result) {
  std::ostringstream out;
  write_campaign_csv(out, result);
  write_preferences_csv(out, result);
  write_shares_csv(out, result);
  // The observability export is under the same determinism guarantee as
  // the analysis CSVs, so it joins the byte-identity cross-check.
  result.metrics.write_json(out, obs::SnapshotStyle::MergeSafe);
  return out.str();
}

double secs_between(std::chrono::steady_clock::time_point a,
                    std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunRecord {
  std::size_t shards = 0;
  double wall_s = 0.0;         // run_campaign() alone (comparable to baseline)
  double materialize_s = 0.0;  // Testbed replica construction from the world
  CampaignRunStats stats;
  bool byte_identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  auto opt = benchutil::Options::parse(argc, argv);
  if (opt.probes == 2'000) opt.probes = 10'000;  // bigger default here
  std::vector<std::size_t> shard_counts{1, 2, 4};
  std::size_t queries = 31;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts.clear();
      for (const char* p = argv[i + 1]; *p != '\0'; ++p) {
        if (*p >= '0' && *p <= '9') {
          std::size_t n = 0;
          while (*p >= '0' && *p <= '9') n = n * 10 + std::size_t(*p++ - '0');
          shard_counts.push_back(n);
          if (*p == '\0') break;
        }
      }
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  report::header("Parallel campaign scaling (combination 2C)");
  std::printf("%zu probes, %zu queries/VP, seed %llu, %u cores\n", opt.probes,
              queries, static_cast<unsigned long long>(opt.seed), cores);

  // One immutable world shared by every run below.
  const auto tw0 = std::chrono::steady_clock::now();
  const auto world = WorldSnapshot::build(benchutil::make_config(opt, "2C"));
  const auto tw1 = std::chrono::steady_clock::now();
  const double world_build_s = secs_between(tw0, tw1);
  {
    std::size_t largest = 0;
    for (const auto& g : world->vp_groups) largest = std::max(largest, g.size());
    std::printf(
        "world built in %.2fs; %zu independent VP groups; largest "
        "(public-resolver cluster) has %zu VPs (%.1f%% of load)\n",
        world_build_s, world->vp_groups.size(), largest,
        100.0 * double(largest) / double(opt.probes));
  }

  std::printf("\n%8s %12s %9s %10s %11s %s\n", "shards", "wall-clock",
              "speedup", "merge", "max-rss/sh", "result");
  double serial_s = 0.0;
  std::string reference;
  std::vector<RunRecord> runs;
  for (const std::size_t shards : shard_counts) {
    RunRecord rec;
    rec.shards = shards;

    const auto tm0 = std::chrono::steady_clock::now();
    Testbed tb{world};
    const auto tm1 = std::chrono::steady_clock::now();
    rec.materialize_s = secs_between(tm0, tm1);

    CampaignConfig cc;
    cc.interval = net::Duration::minutes(2);
    cc.queries_per_vp = queries;
    cc.shards = shards;
    cc.run_stats = &rec.stats;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = run_campaign(tb, cc);
    const auto t1 = std::chrono::steady_clock::now();
    rec.wall_s = secs_between(t0, t1);

    const std::string bytes = export_bytes(result);
    const char* verdict;
    if (reference.empty()) {
      reference = bytes;
      serial_s = rec.wall_s;
      verdict = "reference";
    } else {
      verdict = bytes == reference ? "byte-identical" : "MISMATCH vs shards=1";
    }
    rec.byte_identical = bytes == reference;
    std::size_t max_rss = 0;
    for (const auto& s : rec.stats.shards) max_rss = std::max(max_rss, s.rss_kb);
    std::printf("%8zu %10.2fs %8.2fx %9.3fs %9zuMB %s\n", shards, rec.wall_s,
                serial_s > 0 ? serial_s / rec.wall_s : 1.0, rec.stats.merge_s,
                max_rss / 1024, verdict);
    runs.push_back(std::move(rec));
    if (shards == shard_counts.front()) {
      benchutil::export_obs(opt, result.metrics);
    }
  }

  if (!json_path.empty()) {
    // The speedup-vs-baseline field is only meaningful on the canonical
    // configuration the baseline was measured with.
    const bool canonical =
        opt.probes == kBaselineProbes && queries == kBaselineQueries;
    const std::size_t total_queries = opt.probes * queries;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"parallel_campaign\",\n"
                 "  \"combination\": \"2C\",\n"
                 "  \"probes\": %zu,\n"
                 "  \"queries_per_vp\": %zu,\n"
                 "  \"total_queries\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"cores\": %u,\n"
                 "  \"world_build_s\": %.2f,\n"
                 "  \"peak_rss_kb\": %zu,\n"
                 "  \"baseline\": {\"wall_s\": %.2f, \"note\": "
                 "\"seed revision, shards=1, canonical config\"},\n"
                 "  \"runs\": [\n",
                 opt.probes, queries, total_queries,
                 static_cast<unsigned long long>(opt.seed), cores,
                 world_build_s, obs::peak_rss_kb(), kBaselineWallS);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(f,
                   "    {\"shards\": %zu, \"wall_s\": %.2f, "
                   "\"queries_per_s\": %.0f, ",
                   r.shards, r.wall_s, double(total_queries) / r.wall_s);
      if (canonical) {
        std::fprintf(f, "\"speedup_vs_baseline\": %.2f, ",
                     kBaselineWallS / r.wall_s);
      }
      std::fprintf(f,
                   "\"materialize_s\": %.2f, \"partition_s\": %.3f, "
                   "\"run_s\": %.2f, \"merge_s\": %.3f,\n"
                   "     \"shard_detail\": [",
                   r.materialize_s, r.stats.partition_s, r.stats.run_s,
                   r.stats.merge_s);
      for (std::size_t j = 0; j < r.stats.shards.size(); ++j) {
        const auto& s = r.stats.shards[j];
        std::fprintf(f, "%s{\"vps\": %zu, \"wall_s\": %.2f, \"rss_kb\": %zu}",
                     j > 0 ? ", " : "", s.units, s.wall_s, s.rss_kb);
      }
      std::fprintf(f, "],\n     \"byte_identical\": %s}%s\n",
                   r.byte_identical ? "true" : "false",
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json -> %s\n", json_path.c_str());
  }
  return 0;
}
