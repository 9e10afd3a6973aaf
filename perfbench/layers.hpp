// Per-layer cost measurements: each times one layer's public function on
// inputs taken from the workload that just ran (its logged queries, its
// key shapes, its queue depth, its server sets), so a layer's ns/op is
// measured at the operating point the end-to-end run exercised.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "anycast/service.hpp"
#include "authns/responder.hpp"
#include "dnscore/message.hpp"
#include "experiment/world.hpp"
#include "resolver/selection.hpp"

namespace perfbench::layers {

/// The authoritative service groups a query can be logged at.
enum class Group : unsigned char { Root, Nl, Test };

/// One logged authoritative query, with the group that answered it.
struct LoggedQuery {
  Group group = Group::Test;
  recwild::dns::Name qname;
  recwild::dns::RRType qtype = recwild::dns::RRType::TXT;
};

/// One Responder per group, serving the zones the world's services serve
/// (null where the world has no such service).
struct GroupResponders {
  std::shared_ptr<const recwild::authns::Responder> root, nl, test;
  [[nodiscard]] const recwild::authns::Responder* get(Group g) const;
};
GroupResponders make_group_responders(
    const recwild::experiment::WorldSnapshot& world);

/// One Responder holding the root, .nl and test-domain zones together —
/// what the live `serve` workload runs. Zones are deep-copied, so building
/// it costs what loading the zones costs.
std::unique_ptr<recwild::authns::Responder> make_combined_responder(
    const recwild::experiment::WorldSnapshot& world);

/// The query a resolver sends for a logged (qname, qtype): iterative,
/// EDNS0 with the default payload size.
recwild::dns::Message make_upstream_query(std::uint16_t id,
                                          const recwild::dns::Name& qname,
                                          recwild::dns::RRType qtype);

struct CodecCosts {
  double encode_ns = 0.0;          ///< per message (queries and answers)
  double decode_ns = 0.0;          ///< per message (queries and answers)
  double allocs_per_decode = 0.0;  ///< operator new calls per decode
  double response_bytes = 0.0;     ///< mean encoded answer size
  double answer_ns = 0.0;          ///< Responder::answer per query
};
/// Replays `mix` through encode/decode and the group's Responder.
CodecCosts measure_codec(const std::vector<LoggedQuery>& mix,
                         const GroupResponders& responders);

/// Simulation::after + run_until for one event with `depth` events pending.
double measure_event_ns(std::size_t depth);

/// Network::send of one datagram between two unicast nodes (send only; the
/// delivery events are drained outside the timed region).
double measure_datagram_ns();

/// AnycastService::catchment over every service in `services` from each of
/// `clients`.
double measure_catchment_ns(
    const std::vector<recwild::anycast::AnycastService>& services,
    const std::vector<recwild::net::NodeId>& clients);

struct CacheCosts {
  double get_ns = 0.0;
  double put_ns = 0.0;
};
/// RecordCache get/put with `keys` (the workload's names) on a cache
/// pre-filled to `cache_size` entries; gets hit with `hit_ratio`.
CacheCosts measure_rrcache(const std::vector<recwild::dns::Name>& keys,
                           std::size_t cache_size, double hit_ratio);

/// make_selector(kind)->select, weighted by the policy mixture and by
/// `set_sizes` (server-set size, share of upstream queries).
double measure_select_ns(
    const recwild::resolver::PolicyMixture& mixture,
    const std::vector<std::pair<std::size_t, double>>& set_sizes);

}  // namespace perfbench::layers
