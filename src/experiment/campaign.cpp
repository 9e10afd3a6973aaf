#include "experiment/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "attack/generator.hpp"
#include "obs/names.hpp"

namespace recwild::experiment {

namespace {

/// Schedules the attack traffic of world.config().attack for the bot VPs
/// this shard owns. Bots are the `bots` lowest-index VPs of each event — a
/// global, partition-independent set — and every attack qname is drawn at
/// scheduling time from an RNG forked per (event, bot, query), so the
/// stream a bot fires is byte-identical at any shard count.
void schedule_attack_traffic(Testbed& world,
                             const std::vector<std::size_t>& vp_indices) {
  const attack::AttackSchedule& schedule = world.config().attack;
  if (schedule.empty()) return;
  auto& sim = world.sim();
  auto& pop = world.population();
  const dns::Name victim =
      dns::Name::parse(schedule.zone().victim_domain);
  obs::Counter* injected =
      &sim.metrics().counter(obs::names::kAttackQueriesInjected);

  const stats::Rng attack_rng = sim.rng().fork("attack-campaign");
  for (std::size_t e = 0; e < schedule.events().size(); ++e) {
    const attack::AttackEvent& ev = schedule.events()[e];
    const stats::Rng event_rng = attack_rng.fork(e);
    for (const std::size_t v : vp_indices) {
      if (v >= static_cast<std::size_t>(ev.bots)) continue;
      client::VantagePoint* vp = pop.by_probe(v);
      const stats::Rng bot_rng = event_rng.fork(vp->probe_id);
      // Identity-keyed phase offset de-synchronises the bots.
      const net::Duration phase = net::Duration::millis(
          bot_rng.fork("phase").uniform(0.0, ev.interval.ms()));
      std::size_t k = 0;
      for (net::SimTime at = ev.start + phase; at < ev.end;
           at = at + ev.interval, ++k) {
        stats::Rng query_rng = bot_rng.fork(k);
        const dns::Name qname =
            ev.kind == attack::AttackKind::Nxns
                ? attack::nxns_query_name(schedule.zone(), query_rng)
                : attack::water_torture_query_name(victim, query_rng);
        sim.at(at, [&world, vp, qname, injected] {
          injected->add(1, world.sim().now());
          // Fire-and-forget: a bot never cares about the answer.
          vp->stub->query(qname, dns::RRType::A,
                          [](const client::StubResult&) {});
        });
      }
    }
  }
}

/// One VP's campaign state: what its answers were and which recursives
/// served them.
struct VpState {
  client::VantagePoint* vp = nullptr;
  net::Duration phase;
  std::vector<int> sequence;
  /// (recursive address, queries served) pairs. VPs use 1-2 recursives;
  /// a flat vector beats the hash map it replaced on both memory and
  /// lookup time, and — unlike the map — iterates deterministically.
  std::vector<std::pair<net::IpAddress, std::size_t>> recursive_use;
};

/// The probes of one campaign shard, scheduled lazily: each VP has one
/// pending probe at a time, and probe k queues probe k+1 when it fires.
///
/// Event order is the one an up-front schedule of every probe gives. The
/// run reserves one tie-break rank per probe before anything else is
/// scheduled, and probe k of the VP at rank r is queued with rank
/// first_rank + r·queries_per_vp + k: the sequence number the up-front
/// loop (VPs in rank order, probes in order) handed it. Probe k+1's
/// (time, rank) is strictly after probe k's, so it cannot be the earliest
/// event before probe k has fired — and by then it is queued. Every pop
/// therefore matches the up-front schedule, ties at equal times included;
/// only the queue's depth (sim.queue.peak_pending) changes.
class CampaignProbes {
 public:
  CampaignProbes(Testbed& world, const CampaignConfig& config,
                 const std::vector<std::size_t>& vp_indices)
      : world_(world),
        domain_(world.test_domain()),
        interval_(config.interval),
        queries_per_vp_(config.queries_per_vp),
        states_(vp_indices.size()) {
    obs::MetricRegistry& m = world.sim().metrics();
    q_sent_ = &m.counter(obs::names::kCampaignQueriesSent);
    q_answered_ = &m.counter(obs::names::kCampaignQueriesAnswered);
    q_unanswered_ = &m.counter(obs::names::kCampaignQueriesUnanswered);
    // Stamped at the origin: every shard schedules before any event runs.
    m.counter(obs::names::kCampaignVps)
        .add(vp_indices.size(), net::SimTime::origin());
    trace_ = &world.sim().trace();

    const stats::Rng campaign_rng = world.sim().rng().fork("campaign");
    for (std::size_t r = 0; r < vp_indices.size(); ++r) {
      VpState& st = states_[r];
      st.vp = world.population().by_probe(vp_indices[r]);
      if (st.vp == nullptr) {
        throw std::logic_error{
            "run_campaign_shard: VP not materialized on this world"};
      }
      stats::Rng vp_rng = campaign_rng.fork(st.vp->probe_id);
      st.phase = config.phase_jitter
                     ? net::Duration::millis(
                           vp_rng.uniform(0.0, config.interval.ms()))
                     : net::Duration::zero();
    }
    first_rank_ = world.sim().reserve_ranks(states_.size() * queries_per_vp_);
    if (queries_per_vp_ > 0) {
      for (std::size_t r = 0; r < states_.size(); ++r) schedule(r, 0);
    }
  }

  /// Rank-indexed (position in vp_indices), NOT probe-indexed: a
  /// partition-scoped shard must not pay memory for the whole fleet.
  std::vector<VpState>& states() noexcept { return states_; }

 private:
  void schedule(std::size_t r, std::size_t k) {
    const net::SimTime at = net::SimTime::origin() + states_[r].phase +
                            interval_ * double(k);
    world_.sim().at_rank(at, first_rank_ + r * queries_per_vp_ + k,
                         [this, r, k] { fire(r, k); });
  }

  void fire(std::size_t r, std::size_t k) {
    VpState& st = states_[r];
    q_sent_->add(1, world_.sim().now());
    const dns::Name qname = domain_.prefixed(
        "q" + std::to_string(st.vp->probe_id) + "x" + std::to_string(k));
    st.vp->stub->query(qname, dns::RRType::TXT,
                       [this, r](const client::StubResult& res) {
                         answered(r, res);
                       });
    if (k + 1 < queries_per_vp_) schedule(r, k + 1);
  }

  void answered(std::size_t r, const client::StubResult& res) {
    VpState& st = states_[r];
    const net::SimTime now = world_.sim().now();
    int idx = -1;
    if (!res.timed_out && !res.txt.empty()) {
      idx = world_.test_index_of(res.txt.front());
    }
    if (idx >= 0) {
      q_answered_->add(1, now);
    } else {
      q_unanswered_->add(1, now);
    }
    st.sequence.push_back(idx);
    if (res.recursive_index < st.vp->stub->recursives().size()) {
      const net::IpAddress raddr =
          st.vp->stub->recursives()[res.recursive_index];
      auto it = std::find_if(
          st.recursive_use.begin(), st.recursive_use.end(),
          [raddr](const auto& p) { return p.first == raddr; });
      if (it == st.recursive_use.end()) {
        st.recursive_use.emplace_back(raddr, 1);
      } else {
        ++it->second;
      }
    }
    // Per-VP progress (never per-shard: the trace must not know how the
    // schedule was partitioned).
    if (st.sequence.size() == queries_per_vp_ && trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Progress, "campaign",
                      "probe" + std::to_string(st.vp->probe_id), "done",
                      static_cast<double>(queries_per_vp_)});
    }
  }

  Testbed& world_;
  const dns::Name domain_;
  const net::Duration interval_;
  const std::size_t queries_per_vp_;
  std::vector<VpState> states_;
  std::uint64_t first_rank_ = 0;
  obs::Counter* q_sent_ = nullptr;
  obs::Counter* q_answered_ = nullptr;
  obs::Counter* q_unanswered_ = nullptr;
  obs::DecisionTrace* trace_ = nullptr;
};

/// Schedules the campaign queries of the VPs in `vp_indices` (ascending) on
/// `world`, runs its simulation to completion, and returns one observation
/// per scheduled VP, in `vp_indices` order. `world` may be a
/// partition-scoped replica, as long as it materializes every VP listed.
///
/// All randomness is keyed per VP (phase jitter forks on the probe id), so
/// the observations a VP produces depend only on the seed and on the VPs it
/// shares a recursive with — never on how the schedule was sharded.
std::vector<VpObservation> run_campaign_shard(
    Testbed& world, const CampaignConfig& config,
    const std::vector<std::size_t>& vp_indices) {
  auto& sim = world.sim();
  auto& network = world.network();
  const auto& services = world.test_services();
  CampaignProbes probes{world, config, vp_indices};
  std::vector<VpState>& states = probes.states();

  schedule_attack_traffic(world, vp_indices);

  sim.run();

  std::vector<VpObservation> observations;
  observations.reserve(vp_indices.size());
  for (std::size_t r = 0; r < vp_indices.size(); ++r) {
    const client::VantagePoint* vp = states[r].vp;
    VpObservation obs;
    obs.probe_id = vp->probe_id;
    obs.continent = vp->continent;
    obs.sequence = std::move(states[r].sequence);

    // Primary recursive: the one that served the most queries. Equal counts
    // break by lowest address, a total order, so the choice never depends
    // on the pairs' insertion order.
    net::IpAddress primary{};
    std::size_t best = 0;
    for (const auto& [addr, n] : states[r].recursive_use) {
      if (n > best || (n == best && n > 0 && addr < primary)) {
        best = n;
        primary = addr;
      }
    }
    obs.recursive_addr = primary;

    const net::NodeId rnode = world.recursive_node(primary);
    obs.rtt_ms.resize(services.size(), 0.0);
    if (rnode != net::kInvalidNode) {
      for (std::size_t s = 0; s < services.size(); ++s) {
        obs.rtt_ms[s] =
            network.base_rtt_to(rnode, services[s].address()).ms();
      }
    }
    observations.push_back(std::move(obs));
  }
  return observations;
}

}  // namespace

std::vector<std::vector<std::size_t>> campaign_vp_groups(Testbed& testbed) {
  auto groups = testbed.world()->vp_groups;
  auto& pop = testbed.population();
  for (auto& group : groups) {
    std::erase_if(group,
                  [&pop](std::size_t v) { return pop.by_probe(v) == nullptr; });
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  return groups;
}

std::vector<double> campaign_group_weights(
    const std::vector<std::vector<std::size_t>>& groups,
    const CampaignConfig& config, const attack::AttackSchedule& schedule) {
  std::vector<double> weights(groups.size(), 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    double w = static_cast<double>(groups[g].size()) *
               static_cast<double>(config.queries_per_vp);
    for (const attack::AttackEvent& ev : schedule.events()) {
      // Shots per bot, ignoring the sub-interval phase offset: the exact
      // count per bot is phase-dependent but within ±1 of this.
      const double shots =
          std::floor((ev.end - ev.start).ms() / ev.interval.ms()) + 1.0;
      for (const std::size_t v : groups[g]) {
        if (v < static_cast<std::size_t>(ev.bots)) w += shots;
      }
    }
    weights[g] = w;
  }
  return weights;
}

CampaignResult run_campaign(Testbed& testbed, const CampaignConfig& config) {
  CampaignResult result;
  for (const auto& svc : testbed.test_services()) {
    result.service_codes.push_back(svc.name());
  }

  CampaignRunStats local_stats;
  run_sharded<std::vector<VpObservation>>(
      testbed,
      {.shards = config.shards,
       .units = testbed.population().vps().size(),
       .partition =
           [&](std::size_t shards) {
             const auto groups = campaign_vp_groups(testbed);
             return pack_groups(
                 groups,
                 campaign_group_weights(groups, config,
                                        testbed.config().attack),
                 shards);
           },
       // Partition-scoped replica: services and zones shared with the
       // caller's world, only this part's VPs' client state instantiated.
       .setup =
           [&](const Part& part) {
             return std::make_unique<Testbed>(testbed.world(), &part);
           },
       .body =
           [&](Testbed& world, const Part& part) {
             return run_campaign_shard(world, config, part);
           },
       // By probe id: output is independent of the partition.
       .merge =
           [&](std::vector<std::vector<VpObservation>>& out) {
             for (auto& part_obs : out) {
               std::move(part_obs.begin(), part_obs.end(),
                         std::back_inserter(result.vps));
             }
             std::sort(result.vps.begin(), result.vps.end(),
                       [](const VpObservation& a, const VpObservation& b) {
                         return a.probe_id < b.probe_id;
                       });
             result.metrics = testbed.sim().metrics().snapshot();
           }},
      config.run_stats != nullptr ? *config.run_stats : local_stats);
  return result;
}

}  // namespace recwild::experiment
