// campaign, scan and production: the simulated engines, driven through
// their public entry points (run_campaign, run_scan, run_production).
//
// A run builds four worlds from seeds derived from --seed and repeats
// "build world k, materialize the testbed, run the workload" round-robin
// over them until --seconds is spent (each world at least once); set-up
// time and throughput are medians over repetitions. A traced run makes an
// untraced, a traced and another untraced repetition — the traced one also
// turns on the library's decision trace — and then times each layer's
// public functions on the last repetition's data to build the per-query
// budget.
#include <malloc.h>

#include <array>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/campaign.hpp"
#include "experiment/deployments.hpp"
#include "experiment/export.hpp"
#include "experiment/production.hpp"
#include "experiment/scan.hpp"
#include "layers.hpp"
#include "obs/names.hpp"
#include "obs/process.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recwild;
namespace names = obs::names;

namespace {

/// What one repetition of a workload produced.
struct Outcome {
  std::uint64_t attempted = 0;  ///< probes / names / lookups issued
  std::uint64_t completed = 0;  ///< of those, finished (answered or not)
  std::uint64_t unanswered = 0; ///< modelled: timed-out probes, SERVFAILs
  double run_s = 0.0;
  double cpu_s = 0.0;
  double export_s = 0.0;
  std::string digest;
  std::vector<Check> checks;
  obs::MetricsSnapshot metrics;
  /// Engine phases (partition, run, merge, per-shard) for child spans.
  bool has_phases = false;
  double partition_s = 0.0, parallel_s = 0.0, merge_s = 0.0;
  std::vector<double> shard_walls;
};

/// One simulated workload: its world and how to run it on a testbed.
struct SimSpec {
  std::string query_unit;
  experiment::TestbedConfig config;
  resolver::PolicyMixture mixture;
  std::function<Outcome(experiment::Testbed&)> run;
  /// Share of the root letters a recursive's hints keep.
  double root_set_share = 1.0;
  /// Recursives the engine builds itself (production), else 0.
  std::size_t sources = 0;
  /// Threads a repetition runs on (the engine's shards).
  std::size_t threads = 1;
};

std::string digest_of(const std::string& csv, const obs::MetricsSnapshot& m) {
  return hex64(fnv1a(m.to_json(obs::SnapshotStyle::MergeSafe), fnv1a(csv)));
}

/// Runs `body` and stamps its wall and process-CPU time into `out`.
template <typename Body>
void timed(Outcome& out, Body&& body) {
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  body();
  out.run_s = secs_since(t0);
  out.cpu_s = process_cpu_s() - c0;
}

experiment::TestbedConfig combo_config(std::uint64_t seed,
                                       std::size_t probes) {
  experiment::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = probes;
  cfg.test_sites = experiment::combination("2C").sites;
  return cfg;
}

SimSpec campaign_spec(const Options& opt) {
  const bool tiny = opt.size == Size::Tiny;
  SimSpec s;
  s.query_unit = "probe";
  s.config = combo_config(opt.seed, tiny ? 300 : 1'000);
  s.mixture = s.config.population.mixture;
  const std::size_t probes = tiny ? 6 : 31;
  s.run = [probes](experiment::Testbed& tb) {
    experiment::CampaignConfig cc;
    cc.interval = net::Duration::minutes(2);
    cc.queries_per_vp = probes;
    cc.shards = 1;
    experiment::CampaignRunStats stats;
    cc.run_stats = &stats;
    Outcome o;
    experiment::CampaignResult result;
    timed(o, [&] { result = experiment::run_campaign(tb, cc); });

    const std::uint64_t vps = tb.population().vps().size();
    std::uint64_t answered = 0, unanswered = 0;
    for (const auto& vp : result.vps) {
      for (const int s : vp.sequence) (s >= 0 ? answered : unanswered) += 1;
    }
    o.attempted = vps * probes;
    o.completed = answered + unanswered;
    o.unanswered = unanswered;
    const auto& m = result.metrics;
    const std::uint64_t c_ans = m.counter_value(names::kCampaignQueriesAnswered);
    const std::uint64_t c_un =
        m.counter_value(names::kCampaignQueriesUnanswered);
    o.checks.push_back(
        {"campaign.answered_plus_unanswered",
         answered + unanswered == vps * probes && c_ans + c_un == vps * probes,
         std::to_string(answered) + "+" + std::to_string(unanswered) +
             " observed, " + std::to_string(c_ans) + "+" +
             std::to_string(c_un) + " counted, expected " +
             std::to_string(vps * probes)});

    const auto e0 = Clock::now();
    std::ostringstream csv;
    experiment::write_campaign_csv(csv, result);
    o.digest = digest_of(csv.str(), m);
    o.export_s = secs_since(e0);
    o.metrics = std::move(result.metrics);
    o.has_phases = true;
    o.partition_s = stats.partition_s;
    o.parallel_s = stats.run_s;
    o.merge_s = stats.merge_s;
    for (const auto& sh : stats.shards) o.shard_walls.push_back(sh.wall_s);
    return o;
  };
  return s;
}

SimSpec scan_spec(const Options& opt) {
  const bool tiny = opt.size == Size::Tiny;
  SimSpec s;
  s.query_unit = "name";
  s.config = combo_config(opt.seed, tiny ? 300 : 2'000);
  // The pipelined front door bench_scan uses: bounded in-flight
  // resolutions per recursive, unbounded admission queue.
  s.config.population.resolver_template.max_inflight_resolutions = 1024;
  s.config.population.resolver_template.max_queued_resolutions = 0;
  s.mixture = s.config.population.mixture;
  const std::size_t n = tiny ? 20'000 : 50'000;
  s.threads = 2;
  s.run = [n](experiment::Testbed& tb) {
    experiment::ScanConfig sc;
    sc.names = n;
    sc.per_vp_window = 32;
    sc.shards = 2;
    sc.collect_rows = false;
    experiment::ScanRunStats stats;
    sc.run_stats = &stats;
    Outcome o;
    experiment::ScanResult result;
    timed(o, [&] { result = experiment::run_scan(tb, sc); });

    const auto& m = result.metrics;
    const std::uint64_t c_issued = m.counter_value(names::kScanNamesIssued);
    const std::uint64_t c_done = m.counter_value(names::kScanNamesCompleted);
    o.attempted = n;
    o.completed = result.completed;
    o.unanswered = m.counter_value(names::kResolverServfails);
    o.checks.push_back(
        {"scan.completed_eq_issued_eq_names",
         result.completed == n && result.issued == n && c_issued == n &&
             c_done == n,
         std::to_string(result.completed) + " completed, " +
             std::to_string(result.issued) + " issued, counters " +
             std::to_string(c_done) + "/" + std::to_string(c_issued) +
             ", names " + std::to_string(n)});

    const auto e0 = Clock::now();
    o.digest = digest_of("", m);
    o.export_s = secs_since(e0);
    o.metrics = std::move(result.metrics);
    o.has_phases = true;
    o.partition_s = stats.partition_s;
    o.parallel_s = stats.run_s;
    o.merge_s = stats.merge_s;
    return o;
  };
  return s;
}

SimSpec production_spec(const Options& opt) {
  const bool tiny = opt.size == Size::Tiny;
  SimSpec s;
  s.query_unit = "lookup";
  s.config.seed = opt.seed;
  s.config.build_population = false;
  experiment::ProductionConfig pc;
  pc.target = experiment::ProductionTarget::Root;
  pc.recursives = tiny ? 60 : 100;
  pc.shards = 1;
  s.mixture = pc.mixture;
  s.root_set_share = 1.0 - pc.unreachable_fraction;
  s.sources = pc.recursives;
  s.run = [pc](experiment::Testbed& tb) {
    Outcome o;
    experiment::ProductionResult result;
    timed(o, [&] { result = experiment::run_production(tb, pc); });

    // Every lookup reaches a root letter once, plus one more query per
    // retransmission that was not itself lost on the way: the per-client
    // log totals must sum to the lookups plus at most the timeouts, and
    // agree with the servers' own query counter.
    const auto& m = result.metrics;
    const std::uint64_t lookups = m.counter_value(names::kProductionLookups);
    const std::uint64_t sent = m.counter_value(names::kResolverUpstreamSent);
    const std::uint64_t timeouts =
        m.counter_value(names::kResolverUpstreamTimeouts);
    std::uint64_t logged = 0;
    for (const auto& svc : tb.roots()) {
      for (const auto& site : svc.sites()) {
        for (const auto& [client, n] : site.server->log().per_client()) {
          logged += n;
        }
      }
    }
    o.attempted = lookups;
    o.completed = lookups;
    o.unanswered = m.counter_value(names::kResolverServfails);
    o.checks.push_back(
        {"production.logged_totals_cover_lookups",
         lookups > 0 && logged == m.counter_value(names::kAuthnsQueries) &&
             sent == lookups + timeouts && logged >= lookups &&
             logged <= lookups + timeouts,
         std::to_string(logged) + " logged per client, " +
             std::to_string(lookups) + " lookups, " + std::to_string(timeouts) +
             " retransmissions, " + std::to_string(sent) + " upstream sent"});

    const auto e0 = Clock::now();
    std::ostringstream csv;
    experiment::write_production_csv(csv, result);
    o.digest = digest_of(csv.str(), m);
    o.export_s = secs_since(e0);
    o.metrics = std::move(result.metrics);
    return o;
  };
  return s;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS.
void reset_peak_rss() {
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double gauge_value(const obs::MetricsSnapshot& m, std::string_view name) {
  for (const auto& g : m.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The logged authoritative queries of a testbed, sampled down to `cap`
/// entries with a seeded stride so every group keeps its share.
std::vector<layers::LoggedQuery> logged_mix(experiment::Testbed& tb,
                                            std::size_t cap,
                                            std::uint64_t seed,
                                            std::array<double, 3>& totals) {
  const std::pair<layers::Group, std::vector<anycast::AnycastService>*>
      groups[] = {{layers::Group::Root, &tb.roots()},
                  {layers::Group::Nl, &tb.nl_services()},
                  {layers::Group::Test, &tb.test_services()}};
  std::size_t logged = 0;
  for (const auto& [g, services] : groups) {
    for (const auto& svc : *services) {
      totals[static_cast<std::size_t>(g)] +=
          static_cast<double>(svc.total_queries());
      for (const auto& site : svc.sites()) {
        logged += site.server->log().entries().size();
      }
    }
  }
  // One entry from each of `cap` equal strides of the log, at a seeded
  // offset within the stride.
  const std::size_t stride = std::max<std::size_t>(1, logged / cap);
  stats::Rng rng{seed};
  std::size_t next = rng.index(stride);
  std::size_t i = 0;
  std::vector<layers::LoggedQuery> out;
  for (const auto& [g, services] : groups) {
    for (const auto& svc : *services) {
      for (const auto& site : svc.sites()) {
        for (const auto& e : site.server->log().entries()) {
          if (i++ != next || out.size() == cap) continue;
          out.push_back({g, e.qname, e.qtype});
          next = out.size() * stride + rng.index(stride);
        }
      }
    }
  }
  return out;
}

/// Per-layer numbers and the per-query budget, from the traced
/// repetition's registry and testbed. The budget's measured base is the
/// untraced repetition's CPU per query, so tracing cost is not in it.
void measure_layers(const SimSpec& spec, experiment::Testbed& tb,
                    const Outcome& o, double measured_ns_per_query,
                    const Options& opt, Tracer& tracer, std::uint64_t request,
                    Report& rep) {
  const auto& m = o.metrics;
  const double q = static_cast<double>(o.completed);
  auto c = [&m](std::string_view n) {
    return static_cast<double>(m.counter_value(n));
  };

  const double events = c(names::kSimEventsProcessed);
  const double peak = gauge_value(m, names::kSimQueuePeakPending);
  const double sent = c(names::kNetPacketsSent);
  const double auth_q = c(names::kAuthnsQueries);
  const double hits = c(names::kRrcacheHits);
  const double misses = c(names::kRrcacheMisses);
  const double up = c(names::kResolverUpstreamSent);
  const double up_to = c(names::kResolverUpstreamTimeouts);
  const double client_q = c(names::kResolverClientQueries);

  rep.layer("sim.events_per_query", ratio(events, q), "1/query");
  rep.layer("sim.queue.peak_pending", peak, "count");
  rep.layer("net.packets_per_query", ratio(sent, q), "1/query");
  rep.layer("net.drop_ratio", ratio(c(names::kNetPacketsDropped), sent),
            "ratio");
  rep.layer("authns.queries_per_query", ratio(auth_q, q), "1/query");
  rep.layer("anycast.catchment.shift", c(names::kAnycastCatchmentShift),
            "count");
  rep.layer("resolver.rrcache.hit_ratio", ratio(hits, hits + misses),
            "ratio");
  rep.layer("resolver.upstream_per_query", ratio(up, q), "1/query");
  rep.layer("resolver.timeout_ratio", ratio(up_to, up), "ratio");
  rep.layer("resolver.coalesced_ratio",
            ratio(c(names::kResolverCoalesced), client_q), "ratio");
  rep.layer("resolver.admission.queued_ratio",
            ratio(c(names::kResolverAdmissionQueued), client_q), "ratio");
  rep.layer("resolver.inflight_peak", gauge_value(m, names::kResolverInflight),
            "count");

  // Layer costs, each timed around calls into the layer's public API on
  // this workload's inputs.
  std::array<double, 3> group_totals{0.0, 0.0, 0.0};
  std::vector<layers::LoggedQuery> mix =
      logged_mix(tb, 4096, opt.seed, group_totals);
  if (mix.empty()) {
    // Production keeps aggregates only at its servers: rebuild its query
    // shape (one unique junk TLD per lookup, answered by a root letter).
    stats::Rng rng{opt.seed};
    for (std::size_t i = 0; i < 4096; ++i) {
      mix.push_back({layers::Group::Root,
                     dns::Name::parse("x" + std::to_string(rng.index(1u << 30)) +
                                      "n" + std::to_string(i)),
                     dns::RRType::A});
    }
  }
  const auto& world = *tb.world();
  const layers::GroupResponders responders =
      layers::make_group_responders(world);

  layers::CodecCosts codec;
  {
    ScopedSpan s{tracer, "dnscore+authns.replay", 0, request};
    codec = layers::measure_codec(mix, responders);
  }
  double event_ns = 0.0, datagram_ns = 0.0, catchment_ns = 0.0,
         select_ns = 0.0;
  layers::CacheCosts cache;
  {
    ScopedSpan s{tracer, "net.event", 0, request};
    event_ns = layers::measure_event_ns(static_cast<std::size_t>(peak));
  }
  {
    ScopedSpan s{tracer, "net.datagram", 0, request};
    datagram_ns = layers::measure_datagram_ns();
  }
  {
    ScopedSpan s{tracer, "anycast.catchment", 0, request};
    std::vector<net::NodeId> clients;
    const auto& nodes = world.catalog->nodes;
    for (std::size_t i = 0; i < nodes.size() && clients.size() < 64;
         i += std::max<std::size_t>(1, nodes.size() / 64)) {
      clients.push_back(nodes[i].id);
    }
    catchment_ns = layers::measure_catchment_ns(tb.roots(), clients);
  }
  {
    ScopedSpan s{tracer, "resolver.rrcache", 0, request};
    std::vector<dns::Name> keys;
    for (const auto& e : mix) keys.push_back(e.qname);
    // The workload's cache size: query-weighted mean over its recursives
    // (production's sources are internal to the engine; each of their
    // lookups leaves one negative entry, so lookups per source stands in).
    double weighted = 0.0, weight = 0.0;
    for (const auto& r : tb.population().recursives()) {
      const auto& rc = r.resolver->cache();
      const double w = static_cast<double>(rc.hits() + rc.misses());
      weighted += w * static_cast<double>(rc.size());
      weight += w;
    }
    const double size = weight > 0.0
                            ? weighted / weight
                            : ratio(q, static_cast<double>(spec.sources));
    rep.layer("resolver.rrcache.size", size, "entries");
    cache = layers::measure_rrcache(keys, static_cast<std::size_t>(size),
                                    ratio(hits, hits + misses));
  }
  {
    ScopedSpan s{tracer, "resolver.select", 0, request};
    const double total =
        group_totals[0] + group_totals[1] + group_totals[2];
    std::vector<std::pair<std::size_t, double>> sets = {
        {static_cast<std::size_t>(static_cast<double>(world.roots.size()) *
                                      spec.root_set_share +
                                  0.5),
         ratio(group_totals[0], total)},
        {world.nl.size(), ratio(group_totals[1], total)},
        {world.test.size(), ratio(group_totals[2], total)}};
    select_ns = layers::measure_select_ns(spec.mixture, sets);
  }

  rep.layer("net.event_ns", event_ns, "ns");
  rep.layer("net.datagram_ns", datagram_ns, "ns");
  rep.layer("dnscore.encode_ns", codec.encode_ns, "ns");
  rep.layer("dnscore.decode_ns", codec.decode_ns, "ns");
  rep.layer("dnscore.allocs_per_decode", codec.allocs_per_decode, "count");
  rep.layer("dnscore.response_bytes", codec.response_bytes, "bytes");
  rep.layer("authns.answer_ns", codec.answer_ns, "ns");
  rep.layer("anycast.catchment_ns", catchment_ns, "ns");
  rep.layer("resolver.rrcache.get_ns", cache.get_ns, "ns");
  rep.layer("resolver.rrcache.put_ns", cache.put_ns, "ns");
  rep.layer("resolver.select_ns", select_ns, "ns");

  // The per-query budget: each layer's ns/call times the calls per query
  // the registry counted. Every packet is encoded once and decoded once.
  const double puts = std::max(0.0, up - up_to);
  rep.budget = {
      {"net.event", event_ns, ratio(events, q),
       "sim.events.processed / " + spec.query_unit + "s"},
      {"net.datagram", datagram_ns, ratio(sent, q),
       "net.packets.sent / " + spec.query_unit + "s"},
      {"dnscore.encode", codec.encode_ns, ratio(sent, q),
       "net.packets.sent / " + spec.query_unit + "s"},
      {"dnscore.decode", codec.decode_ns, ratio(sent, q),
       "net.packets.sent / " + spec.query_unit + "s"},
      {"authns.answer", codec.answer_ns, ratio(auth_q, q),
       "authns.queries / " + spec.query_unit + "s"},
      {"anycast.catchment", catchment_ns, ratio(auth_q, q),
       "authns.queries / " + spec.query_unit + "s"},
      {"resolver.rrcache.get", cache.get_ns, ratio(hits + misses, q),
       "(resolver.rrcache.hits + misses) / " + spec.query_unit + "s"},
      {"resolver.rrcache.put", cache.put_ns, ratio(puts, q),
       "(resolver.upstream.sent - timeouts) / " + spec.query_unit + "s"},
      {"resolver.select", select_ns, ratio(up, q),
       "resolver.upstream.sent / " + spec.query_unit + "s"},
  };
  rep.budget_measured_ns_per_query = measured_ns_per_query;
  rep.budget_query_unit = spec.query_unit;
  double explained = 0.0;
  for (const auto& t : rep.budget) explained += t.ns_per_call * t.calls_per_query;
  rep.layer("budget.explained_ratio",
            ratio(explained, rep.budget_measured_ns_per_query), "ratio");
}

}  // namespace

Report run_sim_workload(const Options& opt, Tracer& tracer) {
  const SimSpec spec = opt.workload == "campaign" ? campaign_spec(opt)
                       : opt.workload == "scan"   ? scan_spec(opt)
                                                  : production_spec(opt);
  Report rep;
  rep.workload = opt.workload;
  Tracer off{false};

  // The run's inputs are kWorlds worlds, each built from its own seed
  // derived from --seed; repetition k runs world k mod kWorlds.
  constexpr std::size_t kWorlds = 4;
  std::array<experiment::TestbedConfig, kWorlds> configs;
  for (std::size_t j = 0; j < kWorlds; ++j) {
    configs[j] = spec.config;
    configs[j].seed = opt.seed * kWorlds + j;
  }

  /// Per world: its digest and size, and each repetition's engine wall
  /// and CPU time in reference seconds (see reference_step_ns) and its
  /// wall time in plain seconds.
  struct WorldRuns {
    std::string digest;
    std::uint64_t completed = 0;
    std::vector<double> run_ref, cpu_ref, run_s;
  };
  std::array<WorldRuns, kWorlds> worlds;
  std::vector<double> setup_s, setup_ref, build_s, materialize_s;
  std::size_t repetitions = 0;
  bool digests_agree = true;
  bool checks_ok = true;
  std::vector<Check> first_checks;
  std::unique_ptr<experiment::Testbed> last;
  Outcome last_outcome;
  double traced_run_s = 0.0, untraced_run_s = 0.0, untraced_cpu_ns = 0.0;
  const auto t_start = Clock::now();

  // One set-up sample: build the world, materialize a testbed on it.
  auto set_up = [&](const experiment::TestbedConfig& cfg, Tracer& tr,
                    std::uint64_t parent, std::uint64_t req) {
    const auto t0 = Clock::now();
    std::shared_ptr<const experiment::WorldSnapshot> world;
    {
      ScopedSpan s{tr, "experiment.world_build", parent, req};
      world = experiment::WorldSnapshot::build(cfg);
    }
    const double b = secs_since(t0);
    const auto t1 = Clock::now();
    std::unique_ptr<experiment::Testbed> tb;
    {
      ScopedSpan s{tr, "experiment.materialize", parent, req};
      tb = std::make_unique<experiment::Testbed>(world);
    }
    const double mt = secs_since(t1);
    build_s.push_back(b);
    materialize_s.push_back(mt);
    setup_s.push_back(b + mt);
    return tb;
  };

  // One repetition on world j: set-up (timed), the workload (timed), its
  // checks.
  auto repetition = [&](std::size_t j, bool traced) {
    Tracer& tr = traced ? tracer : off;
    const std::uint64_t req = tr.next_request();
    ScopedSpan root{tr, "workload." + opt.workload, 0, req};
    {
      // One world alive at a time: peak RSS is one world's.
      ScopedSpan s{tr, "experiment.teardown", root.id(), req};
      last.reset();
    }
    experiment::TestbedConfig cfg = configs[j];
    cfg.trace_decisions = traced;
    last = set_up(cfg, tr, root.id(), req);

    const double step_before = reference_step_ns();
    const std::int64_t run_start = now_ns();
    Outcome o = spec.run(*last);
    const double step_ns = 0.5 * (step_before + reference_step_ns());
    const std::uint64_t run_span =
        tr.add("experiment.run_" + opt.workload, run_start, now_ns(), root.id(),
               req);
    if (o.has_phases) {
      // The engine's own phase accounting, laid out as child spans.
      auto at = [run_start](double s) {
        return run_start + static_cast<std::int64_t>(s * 1e9);
      };
      tr.add("experiment.partition", at(0), at(o.partition_s), run_span, req);
      const std::uint64_t par = tr.add("experiment.shards", at(o.partition_s),
                                       at(o.partition_s + o.parallel_s),
                                       run_span, req);
      for (std::size_t i = 0; i < o.shard_walls.size(); ++i) {
        tr.add("experiment.shard" + std::to_string(i), at(o.partition_s),
               at(o.partition_s + o.shard_walls[i]), par, req);
      }
      tr.add("experiment.merge", at(o.partition_s + o.parallel_s),
             at(o.partition_s + o.parallel_s + o.merge_s), run_span, req);
    }
    tr.add("obs.export", now_ns() - static_cast<std::int64_t>(o.export_s * 1e9),
           now_ns(), root.id(), req);

    ++repetitions;
    rep.attempted += o.attempted;
    rep.unanswered += o.unanswered;
    WorldRuns& w = worlds[j];
    w.run_ref.push_back(o.run_s / step_ns);
    w.cpu_ref.push_back(o.cpu_s / step_ns);
    w.run_s.push_back(o.run_s);
    if (w.digest.empty()) {
      w.digest = o.digest;
      w.completed = o.completed;
    }
    rep.notes.push_back(
        std::string{traced ? "traced" : "untraced"} + " repetition, world " +
        std::to_string(j) + ": setup " + std::to_string(setup_s.back()) +
        " s, run " + std::to_string(o.run_s) + " s, " +
        std::to_string(ratio(static_cast<double>(o.completed), o.run_s)) +
        " " + spec.query_unit + "s/s, " +
        std::to_string(ratio(o.cpu_s * 1e6, static_cast<double>(o.completed))) +
        " us CPU/" + spec.query_unit + ", reference step " +
        std::to_string(step_ns) + " ns");
    bool rep_ok = o.digest == w.digest && o.completed == w.completed;
    for (const auto& ch : o.checks) rep_ok = rep_ok && ch.ok;
    // A repetition whose output a check could not confirm failed as a whole.
    if (!rep_ok) rep.failed += o.attempted;
    digests_agree = digests_agree && o.digest == w.digest;
    checks_ok = checks_ok && rep_ok;
    if (first_checks.empty()) first_checks = o.checks;
    if (traced) {
      traced_run_s = o.run_s;
    } else {
      untraced_run_s = o.run_s;
      untraced_cpu_ns = ratio(o.cpu_s * 1e9, static_cast<double>(o.completed));
    }
    last_outcome = std::move(o);
  };

  // setup_s is the median of at least kMinSetups set-ups (more while they
  // take under kSetupSeconds in all, for worlds that build in
  // milliseconds), sampled before any traffic runs: a heap that a run has
  // churned through makes the same set-up up to 1.5x faster or slower.
  // Each sample runs on the next CPU in turn, timed in reference seconds
  // against that CPU's clock: on a shared host the CPUs differ in speed,
  // and a sub-millisecond set-up would otherwise report whichever one the
  // process happened to start on.
  constexpr std::size_t kMinSetups = 2 * kWorlds, kMaxSetups = 400;
  constexpr double kSetupSeconds = 0.3;
  {
    CpuRotation rotate;
    while (setup_s.size() < kMinSetups ||
           (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
                kSetupSeconds &&
            setup_s.size() < kMaxSetups)) {
      rotate.pin(setup_s.size());
      const double step_ns = reference_step_ns();
      // The testbed is freed untimed.
      set_up(configs[setup_s.size() % kWorlds], off, 0, 0);
      setup_ref.push_back(setup_s.back() / step_ns);
    }
  }
  const double setup_median = median(setup_ref);
  const double setup_plain_median = median(setup_s);

  // Peak RSS is each world's first repetition's, and the median over the
  // worlds: before each one, the previous world is torn down, the heap
  // hands its free pages back and the high-water mark is reset. Later
  // repetitions are not counted: they reuse a heap whose fragmentation
  // depends on how many ran, which depends on speed.
  const std::size_t first_pass = opt.trace ? 1 : kWorlds;
  std::vector<double> peak_rss;
  for (std::size_t j = 0; j < first_pass; ++j) {
    last.reset();
    malloc_trim(0);
    reset_peak_rss();
    repetition(j, false);
    peak_rss.push_back(static_cast<double>(obs::peak_rss_kb()) / 1024.0);
  }
  const double peak_rss_mb = median(peak_rss);
  if (opt.trace) {
    // The first repetition runs on a cold heap; the traced one is compared
    // with a warm untraced one after it, whose testbed the layers use.
    repetition(0, true);
    repetition(0, false);
  } else {
    // Other load on a shared host slows one CPU at a time, for seconds on
    // end: each repetition runs on the next CPUs in turn, and each world
    // visits every CPU.
    CpuRotation rotate;
    for (;;) {
      const double per_rep =
          secs_since(t_start) / static_cast<double>(repetitions);
      if (secs_since(t_start) + per_rep > opt.seconds) break;
      rotate.pin(repetitions + repetitions / kWorlds, spec.threads);
      repetition(repetitions % kWorlds, false);
    }
  }

  for (const auto& ch : first_checks) {
    rep.check(ch.name, checks_ok && ch.ok, ch.detail);
  }
  std::string digest;
  std::uint64_t completed = 0;
  double run_ref = 0.0, cpu_ref = 0.0, run_s = 0.0;
  for (const WorldRuns& w : worlds) {
    if (w.run_s.empty()) continue;
    digest += (digest.empty() ? "" : ",") + w.digest;
    completed += w.completed;
    run_ref += median(w.run_ref);
    cpu_ref += median(w.cpu_ref);
    run_s += median(w.run_s);
  }
  rep.check(opt.trace ? "digest.traced_eq_untraced" : "digest.repeatable",
            digests_agree,
            std::to_string(repetitions) + " repetitions, digests " + digest);
  rep.digests.push_back({"csv+metrics", digest});

  // Every repetition of a world does the same work, so a repetition that
  // other load on the host disturbed, or spared, falls to either side of
  // the world's median one; qps and CPU per query add up the worlds'
  // medians. All three times are in reference seconds.
  rep.e2e("setup_s", setup_median, "s");
  rep.e2e("qps", ratio(static_cast<double>(completed), run_ref), "1/s");
  rep.e2e("cpu_us_per_query",
          ratio(cpu_ref * 1e6, static_cast<double>(completed)), "us");
  rep.e2e("peak_rss_mb", peak_rss_mb, "MB");
  rep.notes.push_back(std::to_string(repetitions) + " repetition(s) over " +
                      std::to_string(opt.trace ? 1 : kWorlds) +
                      " world(s); qps is " + spec.query_unit +
                      "s completed per reference second in each world's "
                      "median repetition; per wall second " +
                      std::to_string(ratio(static_cast<double>(completed),
                                           run_s)) +
                      ", plain set-up median " +
                      std::to_string(setup_plain_median) + " s");

  if (opt.trace) {
    const std::uint64_t req = tracer.next_request();
    ScopedSpan s{tracer, "layers", 0, req};
    rep.layer("experiment.world_build_s", median(build_s), "s");
    rep.layer("experiment.materialize_s", median(materialize_s), "s");
    const Outcome& o = last_outcome;
    double wall_max = 0.0, wall_sum = 0.0;
    for (const double w : o.shard_walls) {
      wall_max = std::max(wall_max, w);
      wall_sum += w;
    }
    if (o.shard_walls.empty()) wall_max = o.parallel_s;
    rep.layer("experiment.partition_s", o.partition_s, "s");
    rep.layer("experiment.merge_s", o.merge_s, "s");
    rep.layer("experiment.shard_wall_max_s", wall_max, "s");
    rep.layer("experiment.shard_imbalance",
              o.shard_walls.empty()
                  ? 0.0
                  : ratio(wall_max, wall_sum /
                                        static_cast<double>(o.shard_walls.size())),
              "ratio");
    rep.layer("obs.export_s", o.export_s, "s");
    rep.layer("trace.overhead_ratio", ratio(traced_run_s, untraced_run_s),
              "ratio");
    measure_layers(spec, *last, o, untraced_cpu_ns, opt, tracer, req, rep);
  }
  return rep;
}

}  // namespace perfbench
