#include "layers.hpp"

#include <cstdlib>

#include "common.hpp"
#include "dnscore/codec.hpp"
#include "net/network.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/record_cache.hpp"
#include "stats/rng.hpp"

namespace perfbench::layers {

using namespace recwild;

namespace {

/// Each cost is the median of kRounds timed rounds, each at least
/// kRoundSeconds long, so one preempted round cannot skew it.
constexpr int kRounds = 5;
constexpr double kRoundSeconds = 0.02;

template <typename Body>
double median_ns_per_op(std::size_t ops_per_call, Body&& body) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::size_t ops = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      body();
      ops += ops_per_call;
      elapsed = secs_since(t0);
    } while (elapsed < kRoundSeconds);
    rounds.push_back(elapsed * 1e9 / static_cast<double>(ops));
  }
  return median(std::move(rounds));
}

std::shared_ptr<const authns::Responder> responder_for(
    const std::vector<experiment::ServicePlan>& plans) {
  if (plans.empty()) return nullptr;
  auto r = std::make_shared<authns::Responder>(authns::ResponderConfig{});
  for (const auto& z : plans.front().zones) r->add_zone(z);
  return r;
}

}  // namespace

const authns::Responder* GroupResponders::get(Group g) const {
  switch (g) {
    case Group::Root: return root.get();
    case Group::Nl: return nl.get();
    case Group::Test: return test.get();
  }
  return nullptr;
}

GroupResponders make_group_responders(
    const experiment::WorldSnapshot& world) {
  return {responder_for(world.roots), responder_for(world.nl),
          responder_for(world.test)};
}

std::unique_ptr<authns::Responder> make_combined_responder(
    const experiment::WorldSnapshot& world) {
  auto r = std::make_unique<authns::Responder>(authns::ResponderConfig{});
  for (const auto* plans : {&world.roots, &world.nl, &world.test}) {
    if (plans->empty()) continue;
    for (const auto& z : plans->front().zones) r->add_zone(authns::Zone{*z});
  }
  return r;
}

dns::Message make_upstream_query(std::uint16_t id, const dns::Name& qname,
                                 dns::RRType qtype) {
  dns::Message q = dns::Message::make_query(id, qname, qtype);
  q.edns = dns::EdnsInfo{};
  return q;
}

CodecCosts measure_codec(const std::vector<LoggedQuery>& mix,
                         const GroupResponders& responders) {
  struct Item {
    dns::Message query;
    dns::Message answer;
    std::vector<std::uint8_t> query_wire;
    std::vector<std::uint8_t> answer_wire;
    const authns::Responder* responder = nullptr;
  };
  std::vector<Item> items;
  items.reserve(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const authns::Responder* r = responders.get(mix[i].group);
    if (r == nullptr) continue;
    Item it;
    it.query = make_upstream_query(static_cast<std::uint16_t>(i),
                                   mix[i].qname, mix[i].qtype);
    it.answer = r->answer(it.query);
    const auto qw = dns::encode_message(it.query);
    const auto aw = dns::encode_message(it.answer);
    it.query_wire.assign(qw.data(), qw.data() + qw.size());
    it.answer_wire.assign(aw.data(), aw.data() + aw.size());
    it.responder = r;
    items.push_back(std::move(it));
  }
  CodecCosts c;
  if (items.empty()) return c;
  const std::size_t n = items.size();

  c.encode_ns = median_ns_per_op(2 * n, [&items] {
    for (const auto& it : items) {
      auto a = dns::encode_message(it.query);
      auto b = dns::encode_message(it.answer);
      if (a.size() + b.size() == 0) std::abort();
    }
  });
  c.decode_ns = median_ns_per_op(2 * n, [&items] {
    for (const auto& it : items) {
      const auto a = dns::decode_message(it.query_wire);
      const auto b = dns::decode_message(it.answer_wire);
      if (a.questions.empty() || b.questions.empty()) std::abort();
    }
  });
  c.answer_ns = median_ns_per_op(n, [&items] {
    for (const auto& it : items) {
      const auto a = it.responder->answer(it.query);
      if (a.header.id != it.query.header.id) std::abort();
    }
  });

  const std::uint64_t a0 = allocation_count();
  double bytes = 0.0;
  for (const auto& it : items) {
    const auto a = dns::decode_message(it.query_wire);
    const auto b = dns::decode_message(it.answer_wire);
    if (a.questions.empty() || b.questions.empty()) std::abort();
    bytes += static_cast<double>(it.answer_wire.size());
  }
  c.allocs_per_decode = static_cast<double>(allocation_count() - a0) /
                        static_cast<double>(2 * n);
  c.response_bytes = bytes / static_cast<double>(n);
  return c;
}

double measure_event_ns(std::size_t depth) {
  net::Simulation sim{1};
  const net::Duration far = net::Duration::hours(24 * 365);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.after(far + net::Duration::micros(static_cast<double>(i)), [] {});
  }
  std::uint64_t fired = 0;
  constexpr std::size_t kBatch = 256;
  const double ns = median_ns_per_op(kBatch, [&sim, &fired] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      sim.after(net::Duration::micros(1), [&fired] { ++fired; });
      sim.run_until(sim.now() + net::Duration::micros(1));
    }
  });
  if (fired == 0) std::abort();
  return ns;
}

double measure_datagram_ns() {
  net::Simulation sim{1};
  net::LatencyParams params;
  params.loss_rate = 0;
  net::Network network{sim, params};
  const auto a = network.add_node("a", net::find_location("FRA")->point);
  const auto b = network.add_node("b", net::find_location("AMS")->point);
  const net::Endpoint ep{network.allocate_address(), 53};
  std::uint64_t delivered = 0;
  network.listen(b, ep,
                 [&delivered](const net::Datagram&, net::NodeId) {
                   ++delivered;
                 });
  constexpr std::size_t kBatch = 256;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::size_t ops = 0;
    double timed = 0.0;
    while (timed < kRoundSeconds) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        network.send(a, net::Endpoint{}, ep, {1, 2, 3});
      }
      timed += secs_since(t0);
      ops += kBatch;
      sim.run();
    }
    rounds.push_back(timed * 1e9 / static_cast<double>(ops));
  }
  if (delivered == 0) std::abort();
  return median(std::move(rounds));
}

double measure_catchment_ns(
    const std::vector<anycast::AnycastService>& services,
    const std::vector<net::NodeId>& clients) {
  if (services.empty() || clients.empty()) return 0.0;
  std::size_t found = 0;
  const double ns =
      median_ns_per_op(services.size() * clients.size(), [&] {
        for (const auto& svc : services) {
          for (const net::NodeId c : clients) {
            found += svc.catchment(c) != nullptr ? 1 : 0;
          }
        }
      });
  if (found == 0) std::abort();
  return ns;
}

CacheCosts measure_rrcache(const std::vector<dns::Name>& keys,
                           std::size_t cache_size, double hit_ratio) {
  CacheCosts c;
  if (keys.empty()) return c;
  resolver::RecordCacheConfig cfg;
  resolver::RecordCache cache{cfg};
  const std::size_t fill = std::min(cache_size, cfg.max_entries);
  const net::SimTime now = net::SimTime::origin();
  auto rrset_for = [](const dns::Name& name) {
    dns::RRset set;
    set.name = name;
    set.type = dns::RRType::TXT;
    set.ttl = 3600;
    set.rdatas = {dns::TxtRdata{{"FRA"}}};
    return set;
  };
  // Keys beyond the workload's own list are its names under one more
  // label, so a large cache is filled with distinct names of its shape.
  std::vector<dns::Name> all;
  all.reserve(fill + keys.size());
  for (std::size_t i = 0; all.size() < fill + keys.size(); ++i) {
    const dns::Name& base = keys[i % keys.size()];
    if (i < keys.size()) {
      all.push_back(base);
    } else {
      std::string label = "f";
      label += std::to_string(i);
      all.push_back(base.prefixed(label));
    }
  }
  for (std::size_t i = 0; i < fill; ++i) cache.put(rrset_for(all[i]), now);

  // Gets: the workload's hit/miss mix over resident and absent keys.
  const std::size_t probes = std::min<std::size_t>(4096, all.size());
  std::vector<const dns::Name*> lookups;
  stats::Rng rng{7};
  for (std::size_t i = 0; i < probes; ++i) {
    const bool hit = fill > 0 && rng.chance(hit_ratio);
    lookups.push_back(hit ? &all[rng.index(fill)]
                          : &all[fill + rng.index(all.size() - fill)]);
  }
  // get() touches the LRU and the counters, so no call can be elided.
  c.get_ns = median_ns_per_op(lookups.size(), [&] {
    for (const dns::Name* n : lookups) cache.get(*n, dns::RRType::TXT, now);
  });
  // Puts: the names the cache did not hold (the first round inserts them,
  // later rounds overwrite).
  std::vector<dns::RRset> inserts;
  for (std::size_t i = fill; i < all.size() && inserts.size() < 4096; ++i) {
    inserts.push_back(rrset_for(all[i]));
  }
  c.put_ns = median_ns_per_op(inserts.size(), [&] {
    for (const auto& set : inserts) cache.put(set, now);
  });
  return c;
}

double measure_select_ns(
    const resolver::PolicyMixture& mixture,
    const std::vector<std::pair<std::size_t, double>>& set_sizes) {
  const dns::Name zone = dns::Name::parse("nl");
  stats::Rng rng{11};
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& [kind, kind_share] : mixture.weights) {
    for (const auto& [size, size_share] : set_sizes) {
      if (size == 0 || kind_share * size_share <= 0.0) continue;
      auto sel = resolver::make_selector(kind);
      resolver::InfraCache infra;
      std::vector<net::IpAddress> servers;
      for (std::uint32_t i = 1; i <= size; ++i) {
        servers.push_back(net::IpAddress{i});
        infra.report_rtt(net::IpAddress{i},
                         net::Duration::millis(20.0 + 30.0 * i),
                         net::SimTime::origin());
      }
      std::uint64_t sum = 0;
      const double ns = median_ns_per_op(64, [&] {
        for (int i = 0; i < 64; ++i) {
          sum += sel->select(zone, servers, infra, net::SimTime::origin(),
                             rng)
                     .bits();
        }
      });
      if (sum == 0) std::abort();
      weighted += ns * kind_share * size_share;
      weight += kind_share * size_share;
    }
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

}  // namespace perfbench::layers
