// Production traffic synthesis — the stand-in for the paper's passive
// datasets: a DITL-style hour at the Root DNS letters and an ENTRADA-style
// hour at the .nl authoritatives (§3.2, §5, Figure 7).
//
// A population of busy recursives (no Atlas probes involved) issues
// cache-defeating lookups at heavy-tailed per-recursive rates for an hour;
// the analysis then reads the *authoritative-side* query logs, mirrors the
// paper's ">= 250 queries" filter, and computes the per-recursive
// distribution of queries across the observed services.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiment/sharding.hpp"
#include "experiment/testbed.hpp"
#include "stats/summary.hpp"

namespace recwild::experiment {

enum class ProductionTarget : unsigned char {
  Root,  // junk TLD lookups -> root letters (Figure 7 top)
  Nl,    // junk .nl lookups -> .nl services (Figure 7 bottom)
};

struct ProductionConfig {
  ProductionTarget target = ProductionTarget::Root;
  std::size_t recursives = 400;
  double duration_hours = 1.0;
  /// Per-recursive hourly volume ~ LogNormal(mu, sigma).
  double volume_mu = 6.2;     // median ~ 490 queries/hour
  double volume_sigma = 0.9;
  /// The paper's filter: recursives with at least this many queries.
  std::size_t min_queries = 250;
  /// Production traffic skews differently from the Atlas population: the
  /// heavy hitters include many forwarders and appliances. The paper sees
  /// ~20% of busy recursives sticking to a single root letter, so the
  /// default mixture carries more sticky/static behaviour than wild().
  resolver::PolicyMixture mixture{{
      {resolver::PolicyKind::BindSrtt, 0.50},
      {resolver::PolicyKind::UnboundBand, 0.05},
      {resolver::PolicyKind::PowerDnsFactor, 0.10},
      {resolver::PolicyKind::UniformRandom, 0.04},
      {resolver::PolicyKind::RoundRobin, 0.03},
      {resolver::PolicyKind::StickyFirst, 0.28},
  }};
  /// Production recursives have been running for a long time: their
  /// infrastructure caches are warm at the start of the measured hour (the
  /// paper: "we cannot clear the client caches, and most recursives have
  /// prior queries to root letters", §5).
  bool warm_start = true;
  /// BIND ages unchosen servers slowly in steady state; the faster the
  /// decay, the more often distant letters get re-probed.
  double bind_decay = 0.998;
  /// Fraction of (recursive, letter) pairs that are unreachable — routing
  /// problems, filtering, v6-only — so some recursives can never reach
  /// certain letters within the hour.
  double unreachable_fraction = 0.15;
  /// Traffic-weighted source continents (not the Atlas skew).
  double weight_af = 0.03;
  double weight_as = 0.20;
  double weight_eu = 0.34;
  double weight_na = 0.31;
  double weight_oc = 0.05;
  double weight_sa = 0.07;
  /// Worker threads. 1 = serial on the caller's testbed; 0 = one per
  /// hardware thread. Sources are independent recursives with per-source
  /// random streams, so the merged server-side logs — and everything the
  /// analysis derives from them — are identical for every shard count
  /// (the testbed must be freshly built for shards > 1, which replays on
  /// replicas built from Testbed::config()).
  std::size_t shards = 1;
};

/// One qualifying recursive, as reconstructed from server-side logs.
struct RecursiveTraffic {
  net::IpAddress address;
  net::Continent continent = net::Continent::Europe;
  net::NodeId node = net::kInvalidNode;
  resolver::PolicyKind policy = resolver::PolicyKind::BindSrtt;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> per_service;  // aligned with service_labels
};

struct ProductionResult {
  std::vector<std::string> service_labels;  // observed services only
  std::vector<RecursiveTraffic> recursives; // >= min_queries only
  std::size_t sources_total = 0;            // all simulated recursives
  /// Caller-registry snapshot after the run, replica-shard deltas merged;
  /// MergeSafe JSON is byte-identical for every shard count.
  obs::MetricsSnapshot metrics;
  /// Timing/memory breakdown of the run; shard units are sources.
  RunStats run_stats;

  /// Figure 7 aggregates.
  std::vector<double> mean_rank_share;   // mean share of 1st/2nd/... choice
  std::vector<double> fraction_querying; // [n-1] = frac querying exactly n
  [[nodiscard]] double fraction_single() const {
    return fraction_querying.empty() ? 0.0 : fraction_querying.front();
  }
  [[nodiscard]] double fraction_at_least(std::size_t n) const;
  [[nodiscard]] double fraction_all() const {
    return fraction_querying.empty() ? 0.0 : fraction_querying.back();
  }
};

/// Runs the synthetic production hour on `testbed` (which must have been
/// built without a VP population) and analyzes the authoritative logs.
///
/// For Root, the observed services are the 10 letters of DITL-2017
/// (B, G and L were missing from the dataset); for Nl, 4 of the 8 services
/// (the paper captures 4 .nl authoritatives).
ProductionResult run_production(Testbed& testbed,
                                const ProductionConfig& config);

/// §7 deployment-latency experiment: per-continent query-weighted RTT from
/// qualifying recursives to the .nl service that actually answered them
/// (anycast catchments included).
struct LatencyByContinent {
  net::Continent continent;
  std::size_t queries = 0;
  double median_ms = 0.0;
  double p90_ms = 0.0;
  double worst_ms = 0.0;
};
struct DeploymentLatency {
  std::vector<LatencyByContinent> continents;
  double overall_median_ms = 0.0;
  double overall_p90_ms = 0.0;
  double overall_worst_ms = 0.0;
};
DeploymentLatency analyze_nl_latency(Testbed& testbed,
                                     const ProductionResult& result);

}  // namespace recwild::experiment
