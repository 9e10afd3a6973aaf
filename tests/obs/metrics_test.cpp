// MetricRegistry: handle semantics, snapshots, deltas, the shard-merge
// fold, and the determinism of the JSON export.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace recwild::obs {
namespace {

net::SimTime at_ms(std::int64_t ms) {
  return net::SimTime::from_micros(ms * 1000);
}

TEST(Metrics, CounterAccumulatesAndStampsLastChange) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3, at_ms(10));
  c.add(2, at_ms(5));  // out-of-order stamp must not move time backwards
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(c.last_change(), at_ms(10));
}

TEST(Metrics, GaugeMaxOfKeepsHighWater) {
  Gauge g;
  g.max_of(4.0, at_ms(1));
  g.max_of(9.0, at_ms(2));
  g.max_of(7.0, at_ms(3));
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  EXPECT_EQ(g.last_change(), at_ms(2));
}

TEST(Metrics, HistogramClampsOutOfRangeIntoEdgeBins) {
  Histogram h{0.0, 100.0, 10};
  h.observe(-5.0, at_ms(1));   // below lo -> first bin
  h.observe(55.0, at_ms(2));   // bin 5
  h.observe(250.0, at_ms(3));  // above hi -> last bin
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.last_sample(), at_ms(3));
}

TEST(Metrics, HistogramRejectsDegenerateLayouts) {
  EXPECT_THROW((Histogram{0.0, 10.0, 0}), std::runtime_error);
  EXPECT_THROW((Histogram{10.0, 10.0, 4}), std::runtime_error);
}

TEST(Metrics, RegistryHandlesAreStable) {
  MetricRegistry reg;
  Counter* a = &reg.counter("test.a");
  // Registering many more metrics must not invalidate the handle.
  for (int i = 0; i < 100; ++i) {
    reg.counter("test.filler" + std::to_string(i));
  }
  EXPECT_EQ(a, &reg.counter("test.a"));
  a->add(1, at_ms(1));
  EXPECT_EQ(reg.counter("test.a").value(), 1u);
}

TEST(Metrics, RegistryRejectsHistogramLayoutMismatch) {
  MetricRegistry reg;
  reg.histogram("test.h", 0.0, 10.0, 5);
  EXPECT_THROW(reg.histogram("test.h", 0.0, 20.0, 5), std::runtime_error);
  EXPECT_THROW(reg.histogram("test.h", 0.0, 10.0, 6), std::runtime_error);
  EXPECT_NO_THROW(reg.histogram("test.h", 0.0, 10.0, 5));
}

TEST(Metrics, SnapshotSortsByName) {
  MetricRegistry reg;
  reg.counter("test.z").add(1, at_ms(1));
  reg.counter("test.a").add(2, at_ms(2));
  reg.counter("test.m").add(3, at_ms(3));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "test.a");
  EXPECT_EQ(snap.counters[1].name, "test.m");
  EXPECT_EQ(snap.counters[2].name, "test.z");
  EXPECT_EQ(snap.counter_value("test.m"), 3u);
  EXPECT_EQ(snap.counter_value("test.absent"), 0u);
}

TEST(Metrics, DeltaSinceSubtractsCountsAndKeepsTimestamps) {
  MetricRegistry reg;
  reg.counter("test.c").add(5, at_ms(1));
  auto& h = reg.histogram("test.h", 0.0, 10.0, 2);
  h.observe(1.0, at_ms(1));
  const auto baseline = reg.snapshot();

  reg.counter("test.c").add(7, at_ms(9));
  h.observe(8.0, at_ms(9));
  const auto delta = reg.snapshot().delta_since(baseline);

  EXPECT_EQ(delta.counter_value("test.c"), 7u);
  EXPECT_EQ(delta.find_counter("test.c")->last_change_us, 9000);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].total, 1u);
  EXPECT_EQ(delta.histograms[0].counts[0], 0u);
  EXPECT_EQ(delta.histograms[0].counts[1], 1u);
}

template <class Values>
bool sorted_by_name(const Values& values) {
  return std::is_sorted(values.begin(), values.end(),
                        [](const auto& a, const auto& b) {
                          return a.name < b.name;
                        });
}

bool sorted_by_name(const MetricsSnapshot& snap) {
  return sorted_by_name(snap.counters) && sorted_by_name(snap.gauges) &&
         sorted_by_name(snap.histograms);
}

TEST(Metrics, EverySnapshotProducerKeepsNameOrder) {
  // delta_since merge-walks and find_counter binary-searches, both relying
  // on name order: snapshot() sorts, merge_sum feeds a registry whose next
  // snapshot() sorts again, and delta_since/compact only subtract or drop
  // entries of an already sorted snapshot.
  MetricRegistry reg;
  for (const char* name : {"test.z", "test.b", "test.m", "test.a"}) {
    reg.counter(name).add(1, at_ms(1));
    reg.gauge(name).set(1.0, at_ms(1));
    reg.histogram(name, 0.0, 1.0, 1).observe(0.5, at_ms(1));
  }
  reg.counter("test.zero");
  const MetricsSnapshot base = reg.snapshot();
  EXPECT_TRUE(sorted_by_name(base));

  MetricRegistry other;
  other.counter("test.y").add(2, at_ms(2));
  other.counter("test.c").add(2, at_ms(2));
  other.histogram("test.k", 0.0, 1.0, 1).observe(0.5, at_ms(2));
  reg.merge_sum(other.snapshot());
  const MetricsSnapshot merged = reg.snapshot();
  EXPECT_TRUE(sorted_by_name(merged));

  MetricsSnapshot delta = merged.delta_since(base);
  EXPECT_TRUE(sorted_by_name(delta));
  delta.compact();
  EXPECT_TRUE(sorted_by_name(delta));
  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters[0].name, "test.c");
  EXPECT_EQ(delta.counters[1].name, "test.y");
  EXPECT_EQ(delta.find_counter("test.y")->value, 2u);
  EXPECT_EQ(delta.find_counter("test.a"), nullptr);
  EXPECT_EQ(merged.counter_value("test.m"), 1u);
  EXPECT_EQ(merged.counter_value("test.zz"), 0u);
}

/// delta_since as it was written before the merge walk: a linear scan of
/// the baseline per entry. The reference the merge walk must reproduce.
MetricsSnapshot delta_by_scan(const MetricsSnapshot& current,
                              const MetricsSnapshot& baseline) {
  MetricsSnapshot out = current;
  for (auto& c : out.counters) {
    for (const auto& b : baseline.counters) {
      if (b.name == c.name) {
        c.value -= b.value;
        break;
      }
    }
  }
  for (auto& h : out.histograms) {
    for (const auto& b : baseline.histograms) {
      if (b.name != h.name) continue;
      for (std::size_t i = 0; i < h.counts.size() && i < b.counts.size();
           ++i) {
        h.counts[i] -= b.counts[i];
      }
      h.total -= b.total;
      break;
    }
  }
  return out;
}

TEST(Metrics, DeltaSinceHandlesMissingAndExtraNames) {
  // The baseline lacks test.new/test.hnew and holds test.gone/test.hgone,
  // which the current snapshot lacks: entries without a partner pass
  // through (current side) or are ignored (baseline side).
  MetricRegistry before;
  before.counter("test.a").add(2, at_ms(1));
  before.counter("test.gone").add(9, at_ms(1));
  before.counter("test.m").add(1, at_ms(1));
  before.histogram("test.h", 0.0, 10.0, 2).observe(1.0, at_ms(1));
  before.histogram("test.hgone", 0.0, 10.0, 2).observe(1.0, at_ms(1));
  MetricRegistry now;
  now.counter("test.a").add(5, at_ms(7));
  now.counter("test.m").add(4, at_ms(7));
  now.counter("test.new").add(3, at_ms(7));
  now.histogram("test.h", 0.0, 10.0, 2).observe(1.0, at_ms(1));
  now.histogram("test.h", 0.0, 10.0, 2).observe(9.0, at_ms(7));
  now.histogram("test.hnew", 0.0, 10.0, 2).observe(9.0, at_ms(7));
  const MetricsSnapshot baseline = before.snapshot();
  const MetricsSnapshot current = now.snapshot();

  const MetricsSnapshot delta = current.delta_since(baseline);
  EXPECT_EQ(delta.to_json(SnapshotStyle::Full),
            delta_by_scan(current, baseline).to_json(SnapshotStyle::Full));
  EXPECT_EQ(delta.counter_value("test.a"), 3u);
  EXPECT_EQ(delta.counter_value("test.m"), 3u);
  EXPECT_EQ(delta.counter_value("test.new"), 3u);
  EXPECT_EQ(delta.find_counter("test.gone"), nullptr);
  ASSERT_EQ(delta.histograms.size(), 2u);
  EXPECT_EQ(delta.histograms[0].name, "test.h");
  EXPECT_EQ(delta.histograms[0].total, 1u);
  EXPECT_EQ(delta.histograms[0].counts[1], 1u);
  EXPECT_EQ(delta.histograms[1].name, "test.hnew");
  EXPECT_EQ(delta.histograms[1].total, 1u);
}

TEST(Metrics, MergeSumAddsCountsAndMaxesTimestampsButSkipsGauges) {
  // "Serial" world: all traffic on one registry.
  MetricRegistry serial;
  serial.counter("test.c").add(4, at_ms(20));
  serial.counter("test.c").add(6, at_ms(35));
  serial.histogram("test.h", 0.0, 10.0, 2).observe(1.0, at_ms(20));
  serial.histogram("test.h", 0.0, 10.0, 2).observe(9.0, at_ms(35));
  serial.gauge("test.peak").max_of(12.0, at_ms(20));

  // "Sharded": the same traffic split over a main and a replica registry.
  MetricRegistry main;
  main.counter("test.c").add(4, at_ms(20));
  main.histogram("test.h", 0.0, 10.0, 2).observe(1.0, at_ms(20));
  main.gauge("test.peak").max_of(12.0, at_ms(20));
  MetricRegistry replica;
  replica.counter("test.c").add(6, at_ms(35));
  replica.histogram("test.h", 0.0, 10.0, 2).observe(9.0, at_ms(35));
  replica.gauge("test.peak").max_of(99.0, at_ms(35));  // replica-local level
  main.merge_sum(replica.snapshot());

  EXPECT_EQ(main.snapshot().to_json(SnapshotStyle::MergeSafe),
            serial.snapshot().to_json(SnapshotStyle::MergeSafe));
  // The gauge stayed the main world's own value.
  EXPECT_DOUBLE_EQ(main.gauge("test.peak").value(), 12.0);
}

TEST(Metrics, MergeSumCreatesMetricsAbsentInTheTarget) {
  MetricRegistry main;
  MetricRegistry replica;
  replica.counter("test.only_replica").add(3, at_ms(1));
  replica.histogram("test.h", 0.0, 1.0, 1).observe(0.5, at_ms(1));
  main.merge_sum(replica.snapshot());
  EXPECT_EQ(main.counter("test.only_replica").value(), 3u);
  EXPECT_EQ(main.histogram("test.h", 0.0, 1.0, 1).total(), 1u);
}

TEST(Metrics, JsonIsDeterministicAndStyleAware) {
  MetricRegistry reg;
  reg.counter("test.c").add(2, at_ms(3));
  reg.gauge("test.g").set(1.5, at_ms(4));
  reg.histogram("test.h", 0.0, 10.0, 2).observe(3.0, at_ms(5));

  const std::string full = reg.snapshot().to_json(SnapshotStyle::Full);
  const std::string safe = reg.snapshot().to_json(SnapshotStyle::MergeSafe);
  EXPECT_EQ(full, reg.snapshot().to_json(SnapshotStyle::Full));  // stable
  EXPECT_NE(full.find("\"test.g\""), std::string::npos);
  EXPECT_EQ(safe.find("\"test.g\""), std::string::npos);  // no gauges
  EXPECT_NE(safe.find("\"test.c\""), std::string::npos);
  EXPECT_NE(safe.find("\"test.h\""), std::string::npos);
  EXPECT_NE(full.find("\"last_change_us\": 3000"), std::string::npos);
}

TEST(Metrics, MergeSafeOmitsZeroCountersAndEmptyHistograms) {
  MetricRegistry reg;
  reg.counter("test.zero");
  reg.counter("test.one").add(1, at_ms(2));
  reg.histogram("test.empty", 0.0, 10.0, 2);
  reg.histogram("test.full", 0.0, 10.0, 2).observe(1.0, at_ms(3));
  const MetricsSnapshot snap = reg.snapshot();

  const std::string safe = snap.to_json(SnapshotStyle::MergeSafe);
  EXPECT_EQ(safe.find("\"test.zero\""), std::string::npos);
  EXPECT_EQ(safe.find("\"test.empty\""), std::string::npos);
  EXPECT_NE(safe.find("\"test.one\""), std::string::npos);
  EXPECT_NE(safe.find("\"test.full\""), std::string::npos);
  // MergeSafe shows exactly what compact() keeps.
  MetricsSnapshot kept = snap;
  kept.compact();
  EXPECT_EQ(safe, kept.to_json(SnapshotStyle::MergeSafe));

  // Full keeps the zero rows.
  const std::string full = snap.to_json(SnapshotStyle::Full);
  EXPECT_NE(full.find("\"test.zero\": {\"value\": 0"), std::string::npos);
  EXPECT_NE(full.find("\"test.empty\""), std::string::npos);

  // An untouched registry exports empty MergeSafe sections.
  MetricRegistry untouched;
  untouched.counter("test.zero");
  EXPECT_EQ(untouched.snapshot().to_json(SnapshotStyle::MergeSafe),
            MetricRegistry{}.snapshot().to_json(SnapshotStyle::MergeSafe));
}

TEST(Metrics, NamesHeaderConstantsAreWellFormed) {
  // Spot-check the canonical-name convention: dotted, lower-case.
  for (const auto name :
       {names::kSimEventsScheduled, names::kResolverUpstreamRttMs,
        names::kCampaignQueriesSent, names::kProductionLookups}) {
    EXPECT_NE(name.find('.'), std::string_view::npos) << name;
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                  ch == '.' || ch == '_')
          << name;
    }
  }
}

}  // namespace
}  // namespace recwild::obs
