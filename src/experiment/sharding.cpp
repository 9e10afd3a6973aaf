#include "experiment/sharding.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "obs/process.hpp"

namespace recwild::experiment {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

}  // namespace

Parts pack_groups(const std::vector<std::vector<std::size_t>>& groups,
                  const std::vector<double>& weights, std::size_t shards) {
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (weights[a] != weights[b]) return weights[a] > weights[b];
              return groups[a].front() < groups[b].front();
            });

  Parts bins(shards);
  std::vector<double> load(shards, 0.0);
  for (const std::size_t g : order) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[lightest] += weights[g];
    auto& bin = bins[lightest];
    bin.insert(bin.end(), groups[g].begin(), groups[g].end());
  }
  std::erase_if(bins, [](const auto& b) { return b.empty(); });
  for (auto& bin : bins) std::sort(bin.begin(), bin.end());
  return bins;
}

namespace detail {

void run_parts(
    Testbed& testbed, std::size_t shards, std::size_t units,
    const std::function<const Parts&(std::size_t shards)>& partition,
    const std::function<std::unique_ptr<Testbed>(std::size_t i)>& setup,
    const std::function<void(Testbed& world, std::size_t i)>& body,
    const std::function<void()>& merge, RunStats& stats) {
  stats = RunStats{};
  if (shards == 0) {
    shards = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shards = std::min(shards, std::max<std::size_t>(1, units));

  const auto t_partition = WallClock::now();
  const Parts& parts = partition(shards);
  stats.partition_s = seconds_since(t_partition);
  stats.shards.resize(parts.size());

  // Replica parts stream their metric deltas (relative to a post-setup
  // baseline: the caller already carries one copy of the build-phase
  // contribution, and identically-built worlds give identical baselines)
  // into one accumulator as they finish, compacted so untouched metrics
  // ship nothing. Trace tails stay per part: they are appended to the
  // caller's trace in part order, which streaming must not scramble.
  obs::MetricRegistry accumulator;
  std::mutex accumulator_mu;
  std::vector<std::vector<obs::TraceEvent>> tails(parts.size());
  std::exception_ptr error;
  std::mutex error_mu;
  const auto run_part = [&](std::size_t i) {
    try {
      const auto t0 = WallClock::now();
      if (i == 0) {
        body(testbed, 0);
      } else {
        const std::unique_ptr<Testbed> replica = setup(i);
        net::Simulation& sim = replica->sim();
        sim.sync_obs();  // fold build-time event tallies in
        const obs::MetricsSnapshot baseline = sim.metrics().snapshot();
        const std::size_t trace_base = sim.trace().size();
        body(*replica, i);
        obs::MetricsSnapshot delta =
            sim.metrics().snapshot().delta_since(baseline);
        delta.compact();
        {
          const std::scoped_lock lock{accumulator_mu};
          accumulator.merge_sum(delta);
        }
        const auto& events = sim.trace().events();
        tails[i].assign(events.begin() + trace_base, events.end());
      }
      stats.shards[i] = {parts[i].size(), seconds_since(t0),
                         obs::current_rss_kb()};
    } catch (...) {
      const std::scoped_lock lock{error_mu};
      if (!error) error = std::current_exception();
    }
  };

  const auto t_run = WallClock::now();
  std::vector<std::thread> workers;
  workers.reserve(parts.size() - 1);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    workers.emplace_back(run_part, i);
  }
  run_part(0);
  for (auto& w : workers) w.join();
  stats.run_s = seconds_since(t_run);
  if (error) std::rethrow_exception(error);

  // Counters and histogram bins sum and timestamps take the max — both
  // commutative, so the streamed accumulator equals a part-by-part merge
  // and the caller's registry matches a one-part run exactly; the trace
  // multiset likewise (export DecisionTrace::canonical() for byte-stable
  // ordering).
  const auto t_merge = WallClock::now();
  testbed.sim().metrics().merge_sum(accumulator.snapshot());
  for (const auto& tail : tails) {
    for (const auto& event : tail) testbed.sim().trace().record(event);
  }
  merge();
  stats.merge_s = seconds_since(t_merge);
}

}  // namespace detail

}  // namespace recwild::experiment
