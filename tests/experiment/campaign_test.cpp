#include "experiment/campaign.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "experiment/analysis.hpp"
#include "experiment/deployments.hpp"
#include "obs/names.hpp"

namespace recwild::experiment {
namespace {

Testbed small_testbed(std::vector<std::string> sites, std::uint64_t seed = 21,
                      std::size_t probes = 120) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = probes;
  cfg.test_sites = std::move(sites);
  return Testbed{cfg};
}

TEST(Campaign, PendingEventsStayNearTheVpCount) {
  // Each VP holds one pending probe at a time (probe k queues probe k+1
  // when it fires), so the queue's high-water mark is the VP count plus
  // the few resolutions in flight — not VPs × probes.
  auto tb = small_testbed(combination("2C").sites, 21, 300);
  CampaignConfig cc;
  cc.queries_per_vp = 31;
  const auto result = run_campaign(tb, cc);
  const auto& gauges = result.metrics.gauges;
  const auto peak = std::find_if(gauges.begin(), gauges.end(),
                                 [](const obs::MetricsSnapshot::GaugeValue& g) {
                                   return g.name ==
                                          obs::names::kSimQueuePeakPending;
                                 });
  ASSERT_NE(peak, gauges.end());
  EXPECT_GE(peak->value, 300.0);
  EXPECT_LE(peak->value, 300.0 + 64.0);
  EXPECT_EQ(result.metrics.counter_value(obs::names::kCampaignQueriesSent),
            300u * 31u);
}

TEST(Campaign, CollectsOneObservationPerVp) {
  auto tb = small_testbed({"DUB", "FRA"});
  CampaignConfig cc;
  cc.queries_per_vp = 8;
  const auto result = run_campaign(tb, cc);
  EXPECT_EQ(result.service_codes,
            (std::vector<std::string>{"DUB", "FRA"}));
  ASSERT_EQ(result.vps.size(), 120u);
  for (const auto& vp : result.vps) {
    EXPECT_EQ(vp.sequence.size(), 8u);
    EXPECT_EQ(vp.rtt_ms.size(), 2u);
  }
}

TEST(Campaign, AnswersIdentifyRealServices) {
  auto tb = small_testbed({"GRU", "NRT"});
  CampaignConfig cc;
  cc.queries_per_vp = 6;
  const auto result = run_campaign(tb, cc);
  std::size_t answered = 0;
  for (const auto& vp : result.vps) {
    for (const int s : vp.sequence) {
      if (s >= 0) {
        ++answered;
        EXPECT_LT(s, 2);
      }
    }
  }
  // Nearly everything answers in a healthy world.
  EXPECT_GT(answered, 120u * 6u * 9 / 10);
}

TEST(Campaign, RttsArePositiveAndOrdered) {
  auto tb = small_testbed({"DUB", "FRA"});
  CampaignConfig cc;
  cc.queries_per_vp = 4;
  const auto result = run_campaign(tb, cc);
  for (const auto& vp : result.vps) {
    for (const double r : vp.rtt_ms) EXPECT_GT(r, 0.0);
  }
}

TEST(Campaign, PrimaryRecursiveRecorded) {
  auto tb = small_testbed({"DUB", "FRA"});
  CampaignConfig cc;
  cc.queries_per_vp = 4;
  const auto result = run_campaign(tb, cc);
  std::size_t with_recursive = 0;
  for (const auto& vp : result.vps) {
    if (!vp.recursive_addr.is_unspecified() &&
        tb.recursive_node(vp.recursive_addr) != net::kInvalidNode) {
      ++with_recursive;
    }
  }
  EXPECT_GT(with_recursive, 110u);
}

TEST(Campaign, MostVpsCoverBothAuthoritatives) {
  auto tb = small_testbed({"DUB", "FRA"});
  CampaignConfig cc;
  cc.queries_per_vp = 31;  // the paper's 1-hour setup
  const auto result = run_campaign(tb, cc);
  const auto cov = analyze_coverage(result);
  // Paper Figure 2: 75-96% of recursives probe all authoritatives.
  EXPECT_GT(cov.covering_fraction, 0.70);
}

TEST(Campaign, DeterministicForSameSeed) {
  auto tb1 = small_testbed({"DUB", "FRA"}, 77, 40);
  auto tb2 = small_testbed({"DUB", "FRA"}, 77, 40);
  CampaignConfig cc;
  cc.queries_per_vp = 5;
  const auto r1 = run_campaign(tb1, cc);
  const auto r2 = run_campaign(tb2, cc);
  ASSERT_EQ(r1.vps.size(), r2.vps.size());
  for (std::size_t i = 0; i < r1.vps.size(); ++i) {
    EXPECT_EQ(r1.vps[i].sequence, r2.vps[i].sequence) << "vp " << i;
  }
}

TEST(Campaign, DifferentSeedsDiffer) {
  auto tb1 = small_testbed({"DUB", "FRA"}, 1, 40);
  auto tb2 = small_testbed({"DUB", "FRA"}, 2, 40);
  CampaignConfig cc;
  cc.queries_per_vp = 5;
  const auto r1 = run_campaign(tb1, cc);
  const auto r2 = run_campaign(tb2, cc);
  bool any_diff = false;
  for (std::size_t i = 0; i < r1.vps.size(); ++i) {
    if (r1.vps[i].sequence != r2.vps[i].sequence) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Campaign, FourAuthoritativesTakeLongerToCover) {
  auto tb2 = small_testbed({"DUB", "FRA"}, 5, 150);
  auto tb4 = small_testbed({"DUB", "FRA", "IAD", "SFO"}, 5, 150);
  CampaignConfig cc;
  cc.queries_per_vp = 31;
  const auto cov2 = analyze_coverage(run_campaign(tb2, cc));
  const auto cov4 = analyze_coverage(run_campaign(tb4, cc));
  ASSERT_TRUE(cov2.queries_to_cover.has_value());
  ASSERT_TRUE(cov4.queries_to_cover.has_value());
  // Paper §4.1: 2 NSes covered by the ~2nd query; 4 NSes need a median of
  // up to ~7.
  EXPECT_LT(cov2.queries_to_cover->p50, cov4.queries_to_cover->p50);
}

}  // namespace
}  // namespace recwild::experiment
