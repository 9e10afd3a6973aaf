#include "experiment/scan.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "experiment/campaign.hpp"
#include "obs/names.hpp"

namespace recwild::experiment {

namespace {

/// The name scanned at global index `i`: generated cache-busting label
/// under the test domain, or the explicit list entry.
dns::Name name_of(const ScanConfig& config, const dns::Name& test_domain,
                  std::uint64_t i) {
  if (!config.name_list.empty()) {
    return dns::Name::parse(config.name_list[static_cast<std::size_t>(i)]);
  }
  return test_domain.prefixed("s" + std::to_string(i));
}

std::uint64_t total_names(const ScanConfig& config) {
  return config.name_list.empty()
             ? static_cast<std::uint64_t>(config.names)
             : static_cast<std::uint64_t>(config.name_list.size());
}

/// Names owned by vantage point `v` under the identity assignment
/// i -> VP (i mod vp_count): count without enumerating.
std::uint64_t names_owned(std::uint64_t total, std::size_t vp_count,
                          std::size_t v) {
  const std::uint64_t base = total / vp_count;
  return base + (static_cast<std::uint64_t>(v) < total % vp_count ? 1 : 0);
}

/// What one shard accumulates; folded into ScanResult by the caller.
struct ShardOutput {
  std::vector<obs::ScanRow> rows;  // tagged with global indices, any order
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  net::SimTime last_completion = net::SimTime::origin();
};

/// Per-VP pipeline state. Raw pointers into the world are stable for the
/// run; the struct itself lives in a vector sized before scheduling.
struct VpScan {
  resolver::RecursiveResolver* resolver = nullptr;
  std::size_t vp_index = 0;   ///< probe id (identity, not rank)
  std::uint64_t next = 0;     ///< next owned-name ordinal to issue
  std::uint64_t owned = 0;    ///< total names this VP owns
};

/// Schedules and runs the scan for the VPs in `vp_indices` (ascending) on
/// `world`. Every name is assigned by identity (global index mod total VP
/// count), every start phase is keyed by probe id, and each VP's pipeline
/// advances only on its own completions — so the rows a VP produces depend
/// only on the seed and the VPs sharing its recursive, never on the
/// partition.
ShardOutput run_scan_shard(Testbed& world, const ScanConfig& config,
                           const std::vector<std::size_t>& vp_indices) {
  auto& sim = world.sim();
  auto& pop = world.population();
  const std::size_t vp_count = world.world()->population.vp_count();
  const std::uint64_t total = total_names(config);
  const dns::Name domain = world.test_domain();

  obs::MetricRegistry& m = sim.metrics();
  obs::Counter* issued_ctr = &m.counter(obs::names::kScanNamesIssued);
  obs::Counter* completed_ctr = &m.counter(obs::names::kScanNamesCompleted);

  ShardOutput out;
  if (config.collect_rows) {
    std::uint64_t owned_total = 0;
    for (const std::size_t v : vp_indices) {
      owned_total += names_owned(total, vp_count, v);
    }
    out.rows.reserve(static_cast<std::size_t>(owned_total));
  }

  std::vector<VpScan> states;
  states.reserve(vp_indices.size());
  for (const std::size_t v : vp_indices) {
    client::VantagePoint* vp = pop.by_probe(v);
    if (vp == nullptr) {
      throw std::logic_error{
          "run_scan_shard: VP not materialized on this world"};
    }
    if (vp->stub->recursives().empty()) continue;
    const client::RecursiveInfo* info =
        pop.recursive_by_address(vp->stub->recursives().front());
    if (info == nullptr || info->resolver == nullptr) continue;
    VpScan st;
    st.resolver = info->resolver;
    st.vp_index = v;
    st.owned = names_owned(total, vp_count, v);
    if (st.owned > 0) states.push_back(st);
  }

  // issue_next recurses through the resolver callback. Everything the
  // callbacks touch lives in this frame, which outlives them: sim.run()
  // drains every completion before it returns.
  const std::size_t window = std::max<std::size_t>(1, config.per_vp_window);
  std::function<void(VpScan*)> issue_next;
  issue_next = [&world, &config, &out, &domain, &issue_next, issued_ctr,
                completed_ctr, vp_count](VpScan* st) {
    if (st->next >= st->owned) return;
    // Owned-name ordinal k -> global index: k * vp_count + vp_index.
    const std::uint64_t index =
        st->next * static_cast<std::uint64_t>(vp_count) +
        static_cast<std::uint64_t>(st->vp_index);
    ++st->next;
    const dns::Name qname = name_of(config, domain, index);
    issued_ctr->add(1, world.sim().now());
    ++out.issued;
    const bool collect = config.collect_rows;
    st->resolver->resolve(
        dns::Question{qname, config.qtype, dns::RRClass::IN},
        [&world, &out, &issue_next, completed_ctr, st, index, qname,
         collect](const resolver::ResolveOutcome& outcome) {
          const net::SimTime now = world.sim().now();
          completed_ctr->add(1, now);
          ++out.completed;
          if (out.last_completion < now) out.last_completion = now;
          if (collect) {
            obs::ScanRow row;
            row.index = index;
            row.qname = qname.to_string();
            row.rcode = std::string{dns::to_string(outcome.rcode)};
            for (const auto& rr : outcome.answers) {
              if (rr.type() == dns::RRType::TXT) {
                const auto& txt = std::get<dns::TxtRdata>(rr.rdata);
                row.answers.insert(row.answers.end(), txt.strings.begin(),
                                   txt.strings.end());
              } else {
                row.answers.push_back(dns::rdata_to_string(rr.rdata));
              }
            }
            row.chain = static_cast<std::uint32_t>(outcome.answers.size());
            row.sim_ms = outcome.elapsed.ms();
            row.upstream =
                static_cast<std::uint32_t>(outcome.upstream_queries);
            row.cache_hit = outcome.upstream_queries == 0;
            out.rows.push_back(std::move(row));
          }
          issue_next(st);
        });
  };

  // Prime each VP's window at an identity-keyed start phase. The initial
  // issues happen inside one scheduled event per VP; afterwards the
  // pipeline is completion-driven.
  const stats::Rng scan_rng = sim.rng().fork("scan");
  for (VpScan& st : states) {
    const net::Duration phase =
        config.phase_jitter
            ? net::Duration::millis(
                  scan_rng.fork(st.vp_index).uniform(0.0, 1000.0))
            : net::Duration::zero();
    VpScan* stp = &st;
    sim.at(net::SimTime::origin() + phase, [stp, window, &issue_next] {
      for (std::size_t k = 0; k < window && stp->next < stp->owned; ++k) {
        issue_next(stp);
      }
    });
  }

  sim.run();
  return out;
}

}  // namespace

ScanResult run_scan(Testbed& testbed, const ScanConfig& config) {
  const std::size_t vp_count = testbed.world()->population.vp_count();
  if (vp_count == 0) {
    throw std::invalid_argument{"run_scan: testbed has no population"};
  }
  if (config.name_list.empty() && testbed.test_domain().label_count() == 0) {
    throw std::invalid_argument{
        "run_scan: generated mode needs a test domain (test_sites)"};
  }
  const std::uint64_t total = total_names(config);

  ScanResult result;
  ScanRunStats local_stats;
  ScanRunStats& stats =
      config.run_stats != nullptr ? *config.run_stats : local_stats;
  run_sharded<ShardOutput>(
      testbed,
      {.shards = config.shards,
       .units = testbed.population().vps().size(),
       .partition =
           [&](std::size_t shards) {
             const auto groups = campaign_vp_groups(testbed);
             std::vector<double> weights(groups.size(), 0.0);
             for (std::size_t g = 0; g < groups.size(); ++g) {
               for (const std::size_t v : groups[g]) {
                 weights[g] +=
                     static_cast<double>(names_owned(total, vp_count, v));
               }
             }
             return pack_groups(groups, weights, shards);
           },
       .setup =
           [&](const Part& part) {
             return std::make_unique<Testbed>(testbed.world(), &part);
           },
       .body =
           [&](Testbed& world, const Part& part) {
             return run_scan_shard(world, config, part);
           },
       .merge =
           [&](std::vector<ShardOutput>& outputs) {
             net::SimTime last = net::SimTime::origin();
             for (const ShardOutput& o : outputs) {
               result.issued += o.issued;
               result.completed += o.completed;
               if (last < o.last_completion) last = o.last_completion;
             }
             if (config.collect_rows) {
               // Merge by global index: every name completes exactly once,
               // so the index-ordered list — and its JSONL bytes — is
               // partition-free.
               result.rows.resize(static_cast<std::size_t>(total));
               for (ShardOutput& o : outputs) {
                 for (obs::ScanRow& row : o.rows) {
                   result.rows[static_cast<std::size_t>(row.index)] =
                       std::move(row);
                 }
               }
             }
             result.wall_s = stats.run_s;
             result.queries_per_s =
                 stats.run_s > 0.0
                     ? static_cast<double>(result.completed) / stats.run_s
                     : 0.0;
             const double sim_s =
                 (last - net::SimTime::origin()).ms() / 1000.0;
             result.sim_end_s = sim_s;
             result.sim_queries_per_s =
                 sim_s > 0.0 ? static_cast<double>(result.completed) / sim_s
                             : 0.0;
             // Host-wall throughput as a gauge on the caller's world:
             // point-in-time level of ONE run, excluded from merge-safe
             // exports by construction.
             testbed.metrics()
                 .gauge(obs::names::kScanQps)
                 .set(result.queries_per_s, testbed.sim().now());
             result.metrics = testbed.sim().metrics().snapshot();
           }},
      stats);
  return result;
}

}  // namespace recwild::experiment
