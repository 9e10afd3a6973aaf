// The one shard/merge engine behind every parallel experiment (campaign,
// production, scan). An engine splits its units (vantage points, source
// recursives) into parts; part 0 runs on the caller's testbed, every other
// part on a private replica of the caller's world in a worker thread.
// Replica metric deltas and trace tails are folded back into the caller's
// world, so the caller ends up with exactly the metrics and trace multiset
// a single-part run would have produced — as long as each unit's results
// depend only on its own identity-keyed random streams, which is the
// contract every engine's body keeps.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "experiment/testbed.hpp"

namespace recwild::experiment {

/// One part of a sharded run: ascending unit indices.
using Part = std::vector<std::size_t>;
/// A run's parts, disjoint; part 0 runs on the caller's testbed.
using Parts = std::vector<Part>;

/// Wall-clock and memory accounting of one sharded run, for benchmarks
/// and capacity planning. All times are host wall seconds (never sim
/// time); rss_kb is the process RSS sampled as each part finishes — with
/// threaded parts this is process-wide, so the per-part samples bound the
/// run's footprint rather than attribute it exactly.
struct RunStats {
  struct Shard {
    std::size_t units = 0;   ///< Units (VPs, sources) simulated by this part.
    double wall_s = 0.0;     ///< Replica setup + event-loop wall time.
    std::size_t rss_kb = 0;  ///< Process RSS when the part finished.
  };
  double partition_s = 0.0;  ///< Unit grouping + weighted packing.
  double run_s = 0.0;        ///< Parallel section (spawn to last join).
  double merge_s = 0.0;      ///< Metrics/trace/result fold-back.
  std::vector<Shard> shards; ///< Per part; part 0 = the caller's world.
};

/// Deterministic LPT (longest-processing-time) bin-packing of unit groups
/// onto `shards` bins, weighted by estimated work per group. Ties break on
/// the group's first unit index, so the packing is a pure function of its
/// inputs. Returns per-bin ascending unit lists; empty bins are dropped.
Parts pack_groups(const std::vector<std::vector<std::size_t>>& groups,
                  const std::vector<double>& weights, std::size_t shards);

/// What one engine brings to run_sharded. `Out` is one part's result.
template <class Out>
struct ShardJob {
  /// Requested worker count: 0 = one per hardware thread.
  std::size_t shards = 1;
  /// Units (VPs, sources) the engine runs; caps the worker count.
  std::size_t units = 0;
  /// Splits the units into at most `shards` parts.
  std::function<Parts(std::size_t shards)> partition;
  /// Materializes the replica world a part other than part 0 runs on,
  /// plus any per-part state the body needs beside it (a subclass of
  /// Testbed carries it). Runs in the part's worker, before its baseline
  /// snapshot, so build-time metrics are not counted twice.
  std::function<std::unique_ptr<Testbed>(const Part& part)> setup;
  /// Simulates `part` on `world` — the caller's testbed for part 0, the
  /// setup's replica otherwise. Runs concurrently across parts.
  std::function<Out(Testbed& world, const Part& part)> body;
  /// Folds the parts' outputs (in part order) into the engine's result,
  /// after the replicas' metrics and traces are merged into the caller's
  /// world.
  std::function<void(std::vector<Out>& outputs)> merge;
};

namespace detail {

/// The engine-independent core of run_sharded: resolves the shard count,
/// partitions, runs every part, merges metrics and traces, then calls
/// `merge`. Parts are addressed by index.
void run_parts(
    Testbed& testbed, std::size_t shards, std::size_t units,
    const std::function<const Parts&(std::size_t shards)>& partition,
    const std::function<std::unique_ptr<Testbed>(std::size_t i)>& setup,
    const std::function<void(Testbed& world, std::size_t i)>& body,
    const std::function<void()>& merge, RunStats& stats);

}  // namespace detail

/// Runs `job` on `testbed` and fills `stats`. With one part this is the
/// serial run: no thread, no replica, no baseline snapshot. Exceptions thrown by
/// any part are rethrown (the first one) after every worker has joined.
///
/// Byte-identity across shard counts holds when `testbed` is freshly
/// built: replicas are materialized from Testbed::world(), so a testbed
/// that already ran traffic can only be reproduced by one part.
template <class Out>
void run_sharded(Testbed& testbed, const ShardJob<Out>& job,
                 RunStats& stats) {
  Parts parts;
  std::vector<Out> outputs;
  detail::run_parts(
      testbed, job.shards, job.units,
      [&](std::size_t shards) -> const Parts& {
        parts = job.partition(shards);
        // No units still means one (empty) run on the caller's world.
        if (parts.empty()) parts.emplace_back();
        outputs.resize(parts.size());
        return parts;
      },
      [&](std::size_t i) { return job.setup(parts[i]); },
      [&](Testbed& world, std::size_t i) {
        outputs[i] = job.body(world, parts[i]);
      },
      [&] { job.merge(outputs); }, stats);
}

}  // namespace recwild::experiment
