// Measurement campaign: the simulated equivalent of the paper's RIPE Atlas
// runs (§3.1). Every vantage point queries a unique cache-busting TXT label
// under the test domain at a fixed interval; the TXT payload identifies
// which authoritative answered. Client-side observations are collected per
// VP, exactly as the paper collects per-probe results from Atlas.
//
// The campaign can run sharded: vantage points are partitioned into groups
// that share no recursive resolver, groups are packed onto `shards` worker
// threads, and each worker replays its share of the schedule on a private
// replica of the testbed. Because every random stream in the simulation is
// keyed by identity (per VP, per resolver, per network flow) rather than by
// draw order, a VP's observations do not depend on which other VPs run
// beside it — so the merged result is byte-identical for every shard count,
// including the single-threaded shards=1 run.
#pragma once

#include <string>
#include <vector>

#include "experiment/sharding.hpp"
#include "experiment/testbed.hpp"

namespace recwild::experiment {

/// Timing/memory breakdown of one campaign run; shard units are VPs.
using CampaignRunStats = RunStats;

struct CampaignConfig {
  /// Probing interval (paper: 2 minutes; §4.4 sweeps 5..30).
  net::Duration interval = net::Duration::minutes(2);
  /// Queries per VP including the first (paper: 1 hour at 2 min = 31).
  std::size_t queries_per_vp = 31;
  /// Random start phase within the first interval, to de-synchronize VPs.
  bool phase_jitter = true;
  /// Worker threads to run the campaign on. 1 = serial on the caller's
  /// testbed; 0 = one per hardware thread. Any value yields byte-identical
  /// results when the testbed is freshly built (shards > 1 materializes
  /// partition-scoped replicas of Testbed::world(), so a testbed that
  /// already ran traffic can only be reproduced by shards = 1).
  std::size_t shards = 1;
  /// When non-null, filled with the run's timing/memory breakdown.
  CampaignRunStats* run_stats = nullptr;
};

/// Per-VP campaign observations.
struct VpObservation {
  std::size_t probe_id = 0;
  net::Continent continent = net::Continent::Europe;
  /// The recursive that served most of this VP's queries (ties broken by
  /// lowest address so the choice is stable across platforms).
  net::IpAddress recursive_addr;
  /// Per query: index into Testbed::test_services(), or -1 on timeout.
  std::vector<int> sequence;
  /// Stable RTT from the VP's primary recursive to each test authoritative
  /// (ms) — the latency the recursive's selection policy experiences.
  std::vector<double> rtt_ms;
};

struct CampaignResult {
  std::vector<std::string> service_codes;
  std::vector<VpObservation> vps;
  /// Snapshot of the caller testbed's registry after the run, replica-shard
  /// contributions merged in. Its MergeSafe JSON export is byte-identical
  /// for every shard count (the obs_campaign tests pin this).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::size_t service_count() const noexcept {
    return service_codes.size();
  }
};

/// Runs the campaign to completion on the testbed's simulation (and, for
/// config.shards > 1, on replica simulations in worker threads).
CampaignResult run_campaign(Testbed& testbed, const CampaignConfig& config);

/// The VP partition the sharded engine uses: vantage points that share a
/// recursive resolver (directly or through a chain of shared upstreams,
/// forwarders included) always land in the same group, because a shared
/// recursive's cache and SRTT state couple their observations. Groups are
/// listed in first-seen VP order; each group lists VP indices ascending.
/// Precomputed on the world snapshot and restricted to the VPs `testbed`
/// materializes (all of them unless it is a partition-scoped replica);
/// exposed for tests and planning.
std::vector<std::vector<std::size_t>> campaign_vp_groups(Testbed& testbed);

/// Estimated query volume per VP group under `config` — campaign probes
/// plus the attack-bot traffic of the testbed's schedule (bots are the
/// lowest-index VPs, so attack-heavy groups weigh more). This is the load
/// model the shard packer balances on, instead of raw VP counts.
std::vector<double> campaign_group_weights(
    const std::vector<std::vector<std::size_t>>& groups,
    const CampaignConfig& config, const attack::AttackSchedule& schedule);

}  // namespace recwild::experiment
