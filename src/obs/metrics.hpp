/// \file
/// \brief Deterministic metrics: counters, gauges and sim-time histograms.
///
/// A MetricRegistry collects named metrics for one simulation. Everything is
/// stamped with SimTime — wall clock never appears — so a metric snapshot is
/// as reproducible as the simulation itself: same seed, same bytes.
///
/// Shard determinism. The sharded experiment engines (campaign/production)
/// run disjoint traffic on replica worlds and merge the per-shard registries
/// back into the caller's. Counters and histograms merge by summation and
/// their timestamps by max, which reproduces the serial run exactly because
/// every random stream is keyed by identity (see DESIGN.md / campaign.hpp).
/// Gauges are point-in-time levels of ONE world (e.g. peak queue depth) and
/// cannot be reconstructed from shard pieces, so merges leave them alone.
/// `SnapshotStyle::MergeSafe` exports show exactly what `compact()` keeps —
/// non-zero counters and non-empty histograms, no gauges — so that style is
/// byte-identical for every shard count, and a registered but untouched
/// metric is invisible in it: owners register every metric they own in
/// their constructor.
///
/// Cost. Recording is a pointer-indirected integer add; instrumentation
/// sites cache `Counter*` handles once and pay no name lookup afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/time.hpp"

namespace recwild::obs {

/// Monotonically increasing event count, stamped with the sim time of the
/// most recent increment.
class Counter {
 public:
  /// Adds `n` occurrences observed at sim time `at`.
  void add(std::uint64_t n, net::SimTime at) noexcept {
    value_ += n;
    if (last_change_ < at) last_change_ = at;
  }
  /// Total count so far.
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  /// Sim time of the most recent add (origin if never incremented).
  [[nodiscard]] net::SimTime last_change() const noexcept {
    return last_change_;
  }

 private:
  std::uint64_t value_ = 0;
  net::SimTime last_change_;
};

/// Point-in-time level of one simulation world (queue depth, cache size).
/// Excluded from shard merges — see the file comment.
class Gauge {
 public:
  /// Sets the current level.
  void set(double v, net::SimTime at) noexcept {
    value_ = v;
    if (last_change_ < at) last_change_ = at;
  }
  /// High-water update: keeps the maximum of the current and new level.
  void max_of(double v, net::SimTime at) noexcept {
    if (v > value_) set(v, at);
  }
  /// Current level.
  [[nodiscard]] double value() const noexcept { return value_; }
  /// Sim time of the most recent change (origin if never set).
  [[nodiscard]] net::SimTime last_change() const noexcept {
    return last_change_;
  }

 private:
  double value_ = 0.0;
  net::SimTime last_change_;
};

/// Fixed-bin histogram over [lo, hi) with equal-width bins; out-of-range
/// samples are clamped into the edge bins so nothing is silently dropped
/// (same policy as stats::Histogram). Bin layout is part of the metric's
/// identity: merging requires identical (lo, hi, bins).
class Histogram {
 public:
  /// Creates `bins` equal-width bins over [lo, hi); requires bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  /// Records one sample observed at sim time `at`.
  void observe(double x, net::SimTime at) noexcept;

  /// Lower bound of the range.
  [[nodiscard]] double lo() const noexcept { return lo_; }
  /// Upper bound of the range.
  [[nodiscard]] double hi() const noexcept { return hi_; }
  /// Number of bins.
  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  /// Count in one bin.
  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  /// Total samples recorded.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Sim time of the most recent sample (origin if none).
  [[nodiscard]] net::SimTime last_sample() const noexcept { return last_; }

 private:
  friend class MetricRegistry;

  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  net::SimTime last_;
};

/// Controls which metrics a snapshot export includes.
enum class SnapshotStyle {
  /// Everything, gauges included. Deterministic for a fixed seed AND shard
  /// count, but gauges differ between serial and sharded runs.
  Full,
  /// What compact() keeps: non-zero counters and non-empty histograms,
  /// no gauges — byte-identical for every shard count.
  MergeSafe,
};

/// Value copy of a registry at one instant: the unit of export, diffing and
/// cross-shard merging. All lists are sorted by metric name.
struct MetricsSnapshot {
  /// Counter state at snapshot time.
  struct CounterValue {
    std::string name;                ///< Registry name (obs::names).
    std::uint64_t value = 0;         ///< Total count.
    std::int64_t last_change_us = 0; ///< Sim time of last add, microseconds.
  };
  /// Gauge state at snapshot time.
  struct GaugeValue {
    std::string name;                ///< Registry name (obs::names).
    double value = 0.0;              ///< Current level.
    std::int64_t last_change_us = 0; ///< Sim time of last change, micros.
  };
  /// Histogram state at snapshot time.
  struct HistogramValue {
    std::string name;                  ///< Registry name (obs::names).
    double lo = 0.0;                   ///< Range lower bound.
    double hi = 0.0;                   ///< Range upper bound.
    std::vector<std::uint64_t> counts; ///< Per-bin sample counts.
    std::uint64_t total = 0;           ///< Total samples.
    std::int64_t last_sample_us = 0;   ///< Sim time of last sample, micros.
  };

  std::vector<CounterValue> counters;     ///< Sorted by name.
  std::vector<GaugeValue> gauges;         ///< Sorted by name.
  std::vector<HistogramValue> histograms; ///< Sorted by name.

  /// The increments accumulated since `baseline` (an earlier snapshot of
  /// the same registry): counter values and histogram bins subtract;
  /// timestamps and gauges keep their current values. This is what a shard
  /// contributes to the cross-shard merge.
  [[nodiscard]] MetricsSnapshot delta_since(
      const MetricsSnapshot& baseline) const;

  /// Drops zero-valued counters, empty histograms and all gauges in place
  /// and returns *this. Applied to a shard's delta before it is streamed
  /// into the cross-shard accumulator; the MergeSafe export applies the
  /// same filter, so a zero entry can never reach the merged bytes.
  MetricsSnapshot& compact();

  /// Writes the snapshot as deterministic JSON: keys sorted, integers
  /// verbatim, bounds with up to six significant digits. MergeSafe writes
  /// only the entries compact() keeps.
  void write_json(std::ostream& out,
                  SnapshotStyle style = SnapshotStyle::Full) const;
  /// write_json into a string.
  [[nodiscard]] std::string to_json(
      SnapshotStyle style = SnapshotStyle::Full) const;

  /// The named counter's state, or nullptr when absent.
  [[nodiscard]] const CounterValue* find_counter(std::string_view name) const;
  /// The named counter's value, or 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

/// Owner of all metrics of one simulation. Handles returned by counter() /
/// gauge() / histogram() stay valid for the registry's lifetime (storage is
/// node-based), so instrumentation sites resolve each name exactly once, in
/// their owner's constructor.
class MetricRegistry {
 public:
  /// The counter registered under `name`, created on first use.
  Counter& counter(std::string_view name);
  /// The gauge registered under `name`, created on first use.
  Gauge& gauge(std::string_view name);
  /// The histogram registered under `name`, created on first use with the
  /// given bin layout. Throws std::runtime_error if the name is already
  /// registered with a different (lo, hi, bins).
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins);

  /// Value copy of every metric, sorted by name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Folds a shard's delta into this registry: counters and histogram bins
  /// add (metrics absent here are created), timestamps take the max.
  /// Gauges are NOT merged — see the file comment. Throws
  /// std::runtime_error on histogram bin-layout mismatch.
  void merge_sum(const MetricsSnapshot& delta);

 private:
  /// Transparent hash: string_view lookups build no std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <class T>
  using Table = std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

  // Hashed for cheap registration (every owner constructor resolves its
  // handles); node-based, so handles survive rehashing. snapshot() sorts.
  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
};

}  // namespace recwild::obs
