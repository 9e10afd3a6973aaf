// Simulated UDP network.
//
// Nodes are placed at geographic points; sockets bind (address, port) pairs
// on nodes; datagrams are delivered after a latency-model delay or dropped.
// Binding the SAME address on multiple nodes creates an anycast service:
// the network routes each packet to the bound node with the lowest stable
// path RTT from the sender (the "nearest site" catchment approximation
// documented in DESIGN.md). Replies from an anycast site are sourced from
// the shared address, exactly as real anycast behaves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "net/geo.hpp"
#include "net/latency.hpp"
#include "net/simulation.hpp"
#include "net/wire_buffer.hpp"

namespace recwild::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

struct NodeInfo {
  NodeId id = kInvalidNode;
  std::string name;
  GeoPoint point;
};

/// An immutable, shareable node directory plus the address-pool cursor that
/// produced it. A world builder fills one catalog once; every shard replica
/// then constructs its Network *on top of* the catalog (see the Network
/// constructor taking a base), so node ids, names, geographic points and
/// allocated addresses are globally identical across replicas without any
/// per-replica copy of the (potentially million-entry) node table.
///
/// Identity matters beyond memory: per-flow RNG streams are keyed by the
/// (from, to) node-id pair and the latency model's path table by the
/// unordered pair, so replicas sharing a catalog draw byte-identical
/// jitter/loss/RTT sequences for the same logical flow.
struct NodeCatalog {
  /// Nodes indexed by `id - first_id` (first_id is 0 for a from-scratch
  /// world; a catalog seeded from an existing network starts after it).
  std::vector<NodeInfo> nodes;
  NodeId first_id = 0;
  /// Next host number of the shared 10/8 + 253/8 address pools; a Network
  /// built on this catalog continues allocating from here.
  std::uint32_t next_addr = 1;

  /// Adds a node; same contract as Network::add_node.
  NodeId add_node(std::string name, GeoPoint point) {
    const NodeId id = first_id + static_cast<NodeId>(nodes.size());
    nodes.push_back(NodeInfo{id, std::move(name), point});
    return id;
  }
  /// Allocates a fresh 10/8 address; same pool behavior as Network.
  IpAddress allocate_address() {
    const std::uint32_t host = next_addr++;
    return IpAddress{(10u << 24) | (host & 0x00ffffffu)};
  }
  /// Allocates a fresh 253/8 ("IPv6-plane") address.
  IpAddress allocate_address6() {
    const std::uint32_t host = next_addr++;
    return IpAddress{(253u << 24) | (host & 0x00ffffffu)};
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return first_id + nodes.size();
  }
};

/// One in-flight packet. Move-only: the payload is a pooled WireBuffer
/// that travels from the encoder through the network to the receiving
/// handler without being copied.
struct Datagram {
  Endpoint src;
  Endpoint dst;
  SimTime sent_at;
  WireBuffer payload;
  /// True when carried over the reliable stream transport (see
  /// Network::send_stream) — the simulated TCP used for truncated-answer
  /// retries. Stream "datagrams" are whole messages, never lost.
  bool via_stream = false;
};

/// Called on the receiving node. `at_node` identifies which node got the
/// packet (relevant for anycast, where one address maps to several nodes).
using DatagramHandler = std::function<void(const Datagram&, NodeId at_node)>;

/// What a fault hook decided about one packet.
struct FaultVerdict {
  bool drop = false;
  Duration extra_delay = Duration::zero();
};

/// Interface of the fault-injection layer (implemented by
/// fault::FaultInjector; the network sees only this vtable so src/net
/// stays free of fault headers). Consulted once per send()/send_stream()
/// after routing, before the loss model; with no hook installed the cost
/// is one null check per packet.
class PacketFaultHook {
 public:
  virtual ~PacketFaultHook() = default;
  /// Decides the fate of one packet already routed from node `from` to
  /// node `to`. Must be deterministic in the packet's identity and sim
  /// time — no wall clock, no dependence on unrelated traffic — or the
  /// sharded engines' byte-identity guarantee breaks.
  [[nodiscard]] virtual FaultVerdict on_packet(NodeId from, NodeId to,
                                               const Endpoint& src,
                                               const Endpoint& dst,
                                               bool via_stream,
                                               SimTime now) = 0;
};

/// Routing-plane state of one (address, node) announcement, as the rest of
/// the internet sees it. The three states model a BGP withdrawal timeline:
/// the route is gone the moment the site withdraws, but distant routers
/// keep sending traffic into the dead path until convergence finishes.
enum class RouteState : std::uint8_t {
  /// The node announces the address; traffic routes to it normally.
  Announced,
  /// Withdrawn but not yet converged: senders still select this node (their
  /// routers haven't heard), and packets sent to it are lost in the dead
  /// path. The convergence-loss window of a BGP withdrawal.
  Sinking,
  /// Withdrawn and converged: the node has left the catchment; senders
  /// re-resolve to their next-best announcing node.
  Withdrawn,
};

/// Interface of the dynamic routing-plane layer (implemented by
/// anycast::AnycastService's route control; the network sees only this
/// vtable so src/net stays free of anycast headers). Consulted during
/// binding selection; with no hook registered the cost is one empty-vector
/// check per packet.
class RoutePolicyHook {
 public:
  virtual ~RoutePolicyHook() = default;
  /// The announcement state of (addr, node) at `now`. Must be deterministic
  /// in its arguments — no wall clock, no per-replica traffic state — or
  /// sharded byte-identity breaks. Hooks answer Announced for addresses
  /// they do not manage.
  [[nodiscard]] virtual RouteState route_state(IpAddress addr, NodeId node,
                                               SimTime now) = 0;
  /// Notification that a datagram/stream send from `from` selected `site`
  /// for anycast address `addr` at `now`. Where catchment-shift accounting
  /// lives; keyed per sender flow, so shard merges reproduce serial counts.
  virtual void on_selected(IpAddress addr, NodeId from, NodeId site,
                           SimTime now) = 0;
};

class Network {
 public:
  /// A network with its own private node table (the classic form), or —
  /// when `base` is non-null — one layered over a shared immutable catalog:
  /// base nodes are visible read-only by id, locally added nodes continue
  /// the id sequence, and address allocation continues from the catalog's
  /// cursor. Shard replicas built over one catalog therefore agree on every
  /// node id and address without duplicating the table.
  explicit Network(Simulation& sim, LatencyParams params = {},
                   std::shared_ptr<const NodeCatalog> base = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node at a geographic point. Names are for logs/debugging.
  NodeId add_node(std::string name, GeoPoint point);
  [[nodiscard]] const NodeInfo& node(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return base_count_ + nodes_.size();
  }
  /// Next host number the address pools will hand out. World builders use
  /// this to seed a NodeCatalog that continues an existing network's pools.
  [[nodiscard]] std::uint32_t next_host() const noexcept {
    return next_addr_;
  }
  /// The shared catalog this network is layered on (null when standalone).
  [[nodiscard]] const std::shared_ptr<const NodeCatalog>& base_catalog()
      const noexcept {
    return base_;
  }

  /// Allocates a fresh unique address (10.0.0.0/8 pool).
  IpAddress allocate_address();

  /// Allocates an address from the "IPv6 plane" pool (253.0.0.0/8). The
  /// network treats both planes identically; the distinct pool lets
  /// experiments give services separate v4/v6 identities (published as A
  /// vs AAAA records) and tell the traffic apart.
  IpAddress allocate_address6();

  /// Binds (addr, port) on `node`. Binding the same endpoint on several
  /// nodes forms an anycast service. Re-binding the same (endpoint, node)
  /// replaces the handler.
  void listen(NodeId node, Endpoint ep, DatagramHandler handler);
  void unlisten(NodeId node, Endpoint ep);

  /// Sends a datagram from `from_node`. `src` should be an endpoint the
  /// sender listens on if it expects a reply. Returns false when no node is
  /// bound to `dst` (packet silently discarded, as real UDP would).
  bool send(NodeId from_node, Endpoint src, Endpoint dst,
            WireBuffer payload);

  /// Reliable stream send — the simulated TCP path for DNS-over-TCP
  /// (RFC 1035 §4.2.2; used after a TC=1 response). Never dropped; costs a
  /// handshake plus the transfer, i.e. ~1.5x the path RTT before the first
  /// payload byte arrives. Delivered with Datagram::via_stream set.
  bool send_stream(NodeId from_node, Endpoint src, Endpoint dst,
                   WireBuffer payload);

  /// Stable (jitter-free) path RTT between two nodes, from the latency model.
  Duration base_rtt(NodeId a, NodeId b);

  /// Stable RTT from a node to an address (for anycast: to its catchment
  /// site). Returns Duration::zero() if the address is unbound.
  Duration base_rtt_to(NodeId from, IpAddress addr);

  /// The node an address routes to from `from` (anycast catchment).
  /// Returns kInvalidNode when unbound.
  NodeId route(NodeId from, IpAddress addr);

  /// Nodes currently bound to an address (any port).
  [[nodiscard]] std::vector<NodeId> bound_nodes(IpAddress addr) const;

  /// First node with this name, or kInvalidNode. Linear scan — meant for
  /// symbolic target resolution at fault-schedule arm time, not per packet.
  [[nodiscard]] NodeId find_node(std::string_view name) const;

  /// Installs (or, with nullptr, removes) the fault hook consulted on
  /// every send. One hook per network; the caller keeps ownership and must
  /// clear the hook before destroying it.
  void set_fault_hook(PacketFaultHook* hook) noexcept { fault_hook_ = hook; }
  [[nodiscard]] PacketFaultHook* fault_hook() const noexcept {
    return fault_hook_;
  }

  /// Registers a routing-plane hook consulted during binding selection
  /// (anycast withdrawal/drain). Several hooks may coexist — one per
  /// anycast service with dynamic state; the caller keeps ownership and
  /// must remove the hook before destroying it. Adding the same hook twice
  /// is a no-op.
  void add_route_hook(RoutePolicyHook* hook);
  void remove_route_hook(RoutePolicyHook* hook);
  [[nodiscard]] const std::vector<RoutePolicyHook*>& route_hooks()
      const noexcept {
    return route_hooks_;
  }

  // Counters for tests and reports.
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t unroutable() const noexcept {
    return unroutable_;
  }

  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] LatencyModel& latency() noexcept { return latency_; }

 private:
  struct Binding {
    NodeId node;
    // Shared so an in-flight delivery holds the handler alive across
    // unlisten/re-listen for the cost of a refcount bump — copying the
    // std::function itself per packet allocated on every send.
    std::shared_ptr<const DatagramHandler> handler;
  };

  /// Picks the lowest-RTT binding for `dst` as seen from `from`, skipping
  /// Withdrawn announcements and breaking exact-RTT ties by the
  /// lexicographically lowest node name (site names embed the site code,
  /// so planned and replica worlds can never disagree on a tie).
  const Binding* select_binding(NodeId from, Endpoint dst);

  /// The combined route state of (addr, node) across all hooks: the most
  /// degraded answer wins.
  RouteState route_state_of(IpAddress addr, NodeId node);

  /// Post-selection routing-plane bookkeeping shared by send/send_stream:
  /// notifies hooks of the selection and reports whether the packet dies
  /// in a convergence sink. Only called when hooks are registered.
  bool sink_packet(NodeId from_node, const Endpoint& dst, NodeId site);

  /// Flat exact-match index over bindings_, keyed by the packed 48-bit
  /// (addr, port). listen/unlisten only mark it dirty — a testbed makes
  /// thousands of listen calls in a row, and rebuilding each time is
  /// O(n^2) — and the first lookup after a mutation rebuilds wholesale.
  /// Probed once per packet in place of the unordered_map find that cost
  /// ~6% of a campaign profile. Values point at bindings_' mapped vectors,
  /// which are stable until an erase — and every erase marks dirty.
  struct EndpointSlot {
    std::uint64_t key = kEmptyFlowKey;
    std::vector<Binding>* list = nullptr;
  };
  static constexpr std::uint64_t pack_endpoint(Endpoint ep) noexcept {
    return (std::uint64_t{ep.addr.bits()} << 16) | ep.port;
  }
  void rebuild_endpoint_index();

  /// Per-packet randomness (jitter, loss) is drawn from a stream private to
  /// the directed (from, to) node pair, forked lazily off a parent that
  /// never advances. Packets of one flow therefore see the same jitter/loss
  /// sequence no matter how unrelated traffic interleaves with them — the
  /// property the sharded campaign engine relies on for byte-identical
  /// results at any shard count.
  stats::Rng& flow_rng(NodeId from, NodeId to);

  /// One (from, to) flow's RNG stream in the open-addressed flow table.
  /// This lookup runs once per packet; an unordered_map probe was ~9% of a
  /// campaign's profile, the flat table is a mix-and-mask. Each stream is
  /// still forked by key, so table layout cannot affect any drawn value.
  struct FlowSlot {
    std::uint64_t key = kEmptyFlowKey;
    stats::Rng rng{0};
  };
  static constexpr std::uint64_t kEmptyFlowKey = ~std::uint64_t{0};
  void grow_flow_table();

  Simulation& sim_;
  PacketFaultHook* fault_hook_ = nullptr;
  std::vector<RoutePolicyHook*> route_hooks_;
  LatencyModel latency_;
  stats::Rng flow_rng_parent_;
  std::vector<FlowSlot> flow_slots_;
  std::size_t flow_count_ = 0;
  /// Shared immutable node prefix (ids [0, base_count_)); may be null.
  std::shared_ptr<const NodeCatalog> base_;
  NodeId base_count_ = 0;
  /// Locally added nodes (ids base_count_ + index).
  std::vector<NodeInfo> nodes_;
  std::unordered_map<Endpoint, std::vector<Binding>> bindings_;
  std::vector<EndpointSlot> endpoint_slots_;
  bool endpoint_index_dirty_ = true;
  std::uint32_t next_addr_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t unroutable_ = 0;
  // Cached registry handles (see obs/metrics.hpp); mirror the counters above
  // into the simulation's MetricRegistry without per-packet name lookups.
  obs::Counter* obs_sent_;
  obs::Counter* obs_delivered_;
  obs::Counter* obs_dropped_;
  obs::Counter* obs_unroutable_;
  obs::Counter* obs_stream_sent_;
  obs::Counter* obs_udp_bytes_;
  obs::Counter* obs_stream_bytes_;
  obs::Counter* obs_lost_convergence_;
};

}  // namespace recwild::net
