#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace recwild::obs {

namespace {

/// Deterministic rendering for histogram bounds: up to six significant
/// digits, no locale, no trailing-zero drift across platforms.
std::string format_bound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return std::string{buf};
}

/// The one filter of compact() and the MergeSafe export.
bool kept(const MetricsSnapshot::CounterValue& c) { return c.value != 0; }
bool kept(const MetricsSnapshot::HistogramValue& h) { return h.total != 0; }

template <class Value>
void sort_by_name(std::vector<Value>& values) {
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.name < b.name; });
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c; break;
    }
  }
  out << '"';
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi) {
  if (bins == 0 || !(hi > lo)) {
    throw std::runtime_error{"obs::Histogram: invalid bin layout"};
  }
  counts_.assign(bins, 0);
}

void Histogram::observe(double x, net::SimTime at) noexcept {
  const double span = hi_ - lo_;
  double pos = (x - lo_) / span * static_cast<double>(counts_.size());
  if (pos < 0.0) pos = 0.0;
  std::size_t bin = static_cast<std::size_t>(pos);
  if (bin >= counts_.size()) bin = counts_.size() - 1;
  ++counts_[bin];
  ++total_;
  if (last_ < at) last_ = at;
}

Counter& MetricRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string{name}, Counter{}).first->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string{name}, Gauge{}).first->second;
}

Histogram& MetricRegistry::histogram(std::string_view name, double lo,
                                     double hi, std::size_t bins) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    Histogram& h = it->second;
    if (h.lo() != lo || h.hi() != hi || h.bin_count() != bins) {
      throw std::runtime_error{"obs::MetricRegistry: histogram '" +
                               std::string{name} +
                               "' re-registered with a different layout"};
    }
    return h;
  }
  return histograms_.emplace(std::string{name}, Histogram{lo, hi, bins})
      .first->second;
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back(
        {name, c.value(), c.last_change().count_micros()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g.value(), g.last_change().count_micros()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.name = name;
    v.lo = h.lo();
    v.hi = h.hi();
    v.counts = h.counts_;
    v.total = h.total();
    v.last_sample_us = h.last_sample().count_micros();
    snap.histograms.push_back(std::move(v));
  }
  sort_by_name(snap.counters);
  sort_by_name(snap.gauges);
  sort_by_name(snap.histograms);
  return snap;
}

void MetricRegistry::merge_sum(const MetricsSnapshot& delta) {
  for (const auto& cv : delta.counters) {
    Counter& c = counter(cv.name);
    c.add(cv.value, net::SimTime::from_micros(cv.last_change_us));
  }
  for (const auto& hv : delta.histograms) {
    Histogram& h = histogram(hv.name, hv.lo, hv.hi, hv.counts.size());
    if (h.counts_.size() != hv.counts.size()) {
      throw std::runtime_error{
          "obs::MetricRegistry: histogram merge layout mismatch for '" +
          hv.name + "'"};
    }
    for (std::size_t i = 0; i < hv.counts.size(); ++i) {
      h.counts_[i] += hv.counts[i];
    }
    h.total_ += hv.total;
    const auto at = net::SimTime::from_micros(hv.last_sample_us);
    if (h.last_ < at) h.last_ = at;
  }
  // Gauges: levels of one world do not sum across shards; keep ours.
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& baseline) const {
  // Both snapshots are sorted by name (every producer keeps that order),
  // so one merge walk pairs each entry with its baseline in linear time.
  MetricsSnapshot out = *this;
  auto b = baseline.counters.begin();
  for (auto& c : out.counters) {
    while (b != baseline.counters.end() && b->name < c.name) ++b;
    if (b != baseline.counters.end() && b->name == c.name) c.value -= b->value;
  }
  auto bh = baseline.histograms.begin();
  for (auto& h : out.histograms) {
    while (bh != baseline.histograms.end() && bh->name < h.name) ++bh;
    if (bh == baseline.histograms.end() || bh->name != h.name) continue;
    for (std::size_t i = 0; i < h.counts.size() && i < bh->counts.size();
         ++i) {
      h.counts[i] -= bh->counts[i];
    }
    h.total -= bh->total;
  }
  return out;
}

MetricsSnapshot& MetricsSnapshot::compact() {
  std::erase_if(counters, [](const CounterValue& c) { return !kept(c); });
  std::erase_if(histograms,
                [](const HistogramValue& h) { return !kept(h); });
  gauges.clear();
  return *this;
}

void MetricsSnapshot::write_json(std::ostream& out,
                                 SnapshotStyle style) const {
  const bool all = style == SnapshotStyle::Full;
  const char* sep = "\n";
  out << "{\n  \"counters\": {";
  for (const auto& c : counters) {
    if (!all && !kept(c)) continue;
    out << std::exchange(sep, ",\n") << "    ";
    write_json_string(out, c.name);
    out << ": {\"value\": " << c.value
        << ", \"last_change_us\": " << c.last_change_us << "}";
  }
  sep = "\n";
  out << "\n  },\n  \"histograms\": {";
  for (const auto& h : histograms) {
    if (!all && !kept(h)) continue;
    out << std::exchange(sep, ",\n") << "    ";
    write_json_string(out, h.name);
    out << ": {\"lo\": " << format_bound(h.lo)
        << ", \"hi\": " << format_bound(h.hi) << ", \"total\": " << h.total
        << ", \"last_sample_us\": " << h.last_sample_us << ", \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) out << ", ";
      out << h.counts[b];
    }
    out << "]}";
  }
  out << "\n  }";
  if (all) {
    sep = "\n";
    out << ",\n  \"gauges\": {";
    for (const auto& g : gauges) {
      out << std::exchange(sep, ",\n") << "    ";
      write_json_string(out, g.name);
      out << ": {\"value\": " << format_bound(g.value)
          << ", \"last_change_us\": " << g.last_change_us << "}";
    }
    out << "\n  }";
  }
  out << "\n}\n";
}

std::string MetricsSnapshot::to_json(SnapshotStyle style) const {
  std::ostringstream out;
  write_json(out, style);
  return out.str();
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const CounterValue& c, std::string_view n) { return c.name < n; });
  return it != counters.end() && it->name == name ? &*it : nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterValue* c = find_counter(name);
  return c != nullptr ? c->value : 0;
}

}  // namespace recwild::obs
