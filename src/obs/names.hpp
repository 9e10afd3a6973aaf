/// \file
/// \brief Canonical metric names — the single source of truth.
///
/// Every counter, gauge and histogram the library emits is registered under
/// a name defined here; instrumentation sites must use these constants
/// instead of string literals (`scripts/check_metrics_docs.sh` enforces
/// this, and cross-checks that each name is documented in docs/METRICS.md).
/// Names are dotted paths, `<subsystem>.<object>.<aspect>`, and stable: a
/// renamed metric is a new metric.
#pragma once

#include <string_view>

namespace recwild::obs::names {

// --- simulation kernel (src/net/simulation.cpp) -------------------------
/// Events pushed onto the queue via at()/after().
inline constexpr std::string_view kSimEventsScheduled = "sim.events.scheduled";
/// cancel() calls (counted whether or not the event was still pending).
inline constexpr std::string_view kSimEventsCancelled = "sim.events.cancelled";
/// Events popped and executed by run()/run_until().
inline constexpr std::string_view kSimEventsProcessed = "sim.events.processed";
/// High-water mark of pending events (gauge; excluded from shard merges).
inline constexpr std::string_view kSimQueuePeakPending =
    "sim.queue.peak_pending";

// --- simulated network (src/net/network.cpp) ----------------------------
/// Datagrams handed to Network::send (whether or not deliverable).
inline constexpr std::string_view kNetPacketsSent = "net.packets.sent";
/// Datagrams delivered to a bound handler.
inline constexpr std::string_view kNetPacketsDelivered =
    "net.packets.delivered";
/// Datagrams dropped by the loss model.
inline constexpr std::string_view kNetPacketsDropped = "net.packets.dropped";
/// Datagrams to addresses with no binding (silently discarded, like UDP).
inline constexpr std::string_view kNetPacketsUnroutable =
    "net.packets.unroutable";
/// Whole messages sent over the reliable stream transport (simulated TCP).
inline constexpr std::string_view kNetStreamSent = "net.stream.sent";

// --- wire datapath (src/net/network.cpp) --------------------------------
// Payload volume through the encode->send->decode fast path. Byte counts
// are a pure function of the simulated traffic (unlike buffer-pool
// hit/miss rates, which depend on shard layout and thread scheduling and
// are therefore kept OUT of the registry — see net/wire_buffer.hpp), so
// they merge byte-identically across shard counts.
/// Octets of UDP payload handed to Network::send (deliverable or not).
inline constexpr std::string_view kDatapathUdpBytes =
    "datapath.wire.udp_bytes";
/// Octets of payload handed to Network::send_stream (simulated TCP).
inline constexpr std::string_view kDatapathStreamBytes =
    "datapath.wire.stream_bytes";

// --- recursive resolver (src/resolver/resolver.cpp) ---------------------
/// Questions accepted by RecursiveResolver::resolve (network + local).
inline constexpr std::string_view kResolverClientQueries =
    "resolver.client.queries";
/// Upstream query transmissions (UDP and TCP, retries included).
inline constexpr std::string_view kResolverUpstreamSent =
    "resolver.upstream.sent";
/// Upstream transmissions that hit the retransmission timeout.
inline constexpr std::string_view kResolverUpstreamTimeouts =
    "resolver.upstream.timeouts";
/// Histogram of upstream UDP response RTTs, ms.
inline constexpr std::string_view kResolverUpstreamRttMs =
    "resolver.upstream.rtt_ms";
/// Histogram of end-to-end resolution times, ms.
inline constexpr std::string_view kResolverResolveMs = "resolver.resolve_ms";
/// Resolutions that ended in SERVFAIL.
inline constexpr std::string_view kResolverServfails = "resolver.servfails";
/// Truncated UDP answers retried over the stream transport.
inline constexpr std::string_view kResolverTcpFallbacks =
    "resolver.tcp_fallbacks";
/// Failovers to another server after a lame or useless response.
inline constexpr std::string_view kResolverFailovers = "resolver.failovers";

// --- record cache (src/resolver/record_cache.cpp) -----------------------
/// Positive RRset lookups served from cache.
inline constexpr std::string_view kRrcacheHits = "resolver.rrcache.hits";
/// Positive RRset lookups that missed (absent, expired or negative).
inline constexpr std::string_view kRrcacheMisses = "resolver.rrcache.misses";
/// Negative (NXDOMAIN/NODATA) entries served.
inline constexpr std::string_view kRrcacheNegativeHits =
    "resolver.rrcache.negative_hits";
/// LRU evictions under max_entries pressure.
inline constexpr std::string_view kRrcacheEvictions =
    "resolver.rrcache.evictions";

// --- infrastructure cache (src/resolver/infra_cache.cpp) ----------------
/// RTT samples fed into the EWMA (BIND priming included).
inline constexpr std::string_view kInfraRttUpdates =
    "resolver.infra.rtt_updates";
/// Timeouts reported against a server.
inline constexpr std::string_view kInfraTimeouts = "resolver.infra.timeouts";
/// Servers placed on probation after the timeout streak.
inline constexpr std::string_view kInfraBackoffs = "resolver.infra.backoffs";

// --- resolver failure hardening (src/resolver) --------------------------
/// Upstream transmissions whose timeout carried an exponential-backoff
/// multiplier (at least one consecutive timeout already charged).
inline constexpr std::string_view kResolverBackoffApplied =
    "resolver.backoff.applied";
/// Backed-off transmissions whose timeout hit the max_timeout ceiling.
inline constexpr std::string_view kResolverBackoffCapped =
    "resolver.backoff.capped";
/// Servers placed in hold-down after repeated probations (InfraCache).
inline constexpr std::string_view kResolverHolddownEntered =
    "resolver.holddown.entered";
/// Live queries routed to a held-down server as recovery probes.
inline constexpr std::string_view kResolverHolddownProbes =
    "resolver.holddown.probes";
/// Held-down servers that answered a probe and left hold-down early.
inline constexpr std::string_view kResolverHolddownRecovered =
    "resolver.holddown.recovered";
/// Resolutions terminated by the bounded-work deadline (SERVFAIL).
inline constexpr std::string_view kResolverDeadlineExpired =
    "resolver.deadline.expired";

// --- selection policies (src/resolver/selection.cpp) --------------------
/// Unknown servers primed with a random SRTT (BIND behaviour).
inline constexpr std::string_view kSelectionPrimed =
    "resolver.selection.primed";
/// Sticky-forwarder latch moves (initial latch and re-latches).
inline constexpr std::string_view kSelectionLatchMoves =
    "resolver.selection.latch_moves";

// --- authoritative servers (src/authns/server.cpp) ----------------------
/// Queries received across all AuthServer instances (NOTIFY excluded).
inline constexpr std::string_view kAuthnsQueries = "authns.queries";
/// Responses sent (down servers receive but never respond).
inline constexpr std::string_view kAuthnsResponses = "authns.responses";
/// UDP responses truncated past the client's advertised size (TC=1).
inline constexpr std::string_view kAuthnsTruncated = "authns.truncated";
/// Undecodable-but-headered datagrams answered with rcode FORMERR instead
/// of a silent drop (src/authns/server.cpp and the kernel-socket front-end
/// src/netio/server.cpp both count here).
inline constexpr std::string_view kAuthnsFormerr = "authns.formerr";

// --- kernel-socket front-end (src/netio/server.cpp, authnsd) ------------
// Real-transport counters. These exist only in live-server registries
// (authnsd's periodic stats dump); simulations never touch them, so shard
// merge identity is unaffected.
/// UDP datagrams received by the epoll workers.
inline constexpr std::string_view kNetioUdpDatagrams = "netio.udp.datagrams";
/// TCP connections accepted.
inline constexpr std::string_view kNetioTcpConnections =
    "netio.tcp.connections";
/// Whole 2-byte-length-framed DNS messages received over TCP.
inline constexpr std::string_view kNetioTcpMessages = "netio.tcp.messages";
/// Responses written back to a kernel socket (UDP + TCP).
inline constexpr std::string_view kNetioResponses = "netio.responses";
/// Inputs dropped without a reply: QR=1 packets, sub-header runts,
/// oversized TCP frames, connection errors.
inline constexpr std::string_view kNetioDropped = "netio.dropped";

// --- fault injection (src/fault/injector.cpp) ---------------------------
/// Schedule events resolved and armed by a FaultInjector. Counted at
/// arm() time (world construction) but stamped with each event's
/// window-start time, so sharded runs merge to the serial bytes.
inline constexpr std::string_view kFaultEventsArmed = "fault.events.armed";
/// Datagrams eaten by an active fault (blackhole, partition, loss burst,
/// transfer starvation). Also counted in net.packets.dropped.
inline constexpr std::string_view kFaultPacketsDropped =
    "fault.packets.dropped";
/// Datagrams delayed by an active latency-spike fault.
inline constexpr std::string_view kFaultPacketsDelayed =
    "fault.packets.delayed";
/// Queries answered REFUSED because of an active server-refuse fault.
inline constexpr std::string_view kFaultAuthRefused = "fault.auth.refused";

// --- experiment engines (src/experiment/{campaign,production}.cpp) ------
/// Vantage points whose probe schedule was placed on a shard.
inline constexpr std::string_view kCampaignVps = "campaign.vps";
/// Campaign probe queries issued by stubs.
inline constexpr std::string_view kCampaignQueriesSent =
    "campaign.queries.sent";
/// Probe queries answered by a test authoritative.
inline constexpr std::string_view kCampaignQueriesAnswered =
    "campaign.queries.answered";
/// Probe queries that timed out or returned no TXT payload.
inline constexpr std::string_view kCampaignQueriesUnanswered =
    "campaign.queries.unanswered";
/// Cache-busting lookups issued by the production traffic synthesizer.
inline constexpr std::string_view kProductionLookups = "production.lookups";
/// Live resolvers one world attached for the sources it replays (gauge:
/// this world only, never merged across shards).
inline constexpr std::string_view kProductionLiveResolvers =
    "production.live_resolvers";

// --- response-rate limiting (src/authns/server.cpp) ---------------------
/// UDP responses suppressed by RRL.
inline constexpr std::string_view kRrlDropped = "rrl.dropped";
/// UDP responses replaced by a minimal TC=1 slip reply.
inline constexpr std::string_view kRrlSlipped = "rrl.slipped";
/// Referrals whose NS set was trimmed by the referral-fanout cap.
inline constexpr std::string_view kAuthnsReferralCapped =
    "authns.referral.capped";

// --- adversarial workloads (src/experiment/campaign.cpp, src/attack) ----
/// Attack queries injected by bot vantage points (registered when the
/// world carries a non-empty attack schedule).
inline constexpr std::string_view kAttackQueriesInjected =
    "attack.queries.injected";
/// Queries received by authoritatives marked as attack victims — the
/// numerator of the amplification factor.
inline constexpr std::string_view kAttackVictimQueries =
    "attack.victim.queries";

// --- dynamic anycast catchments (src/net, src/anycast, src/fault) -------
/// Packet sends whose anycast site differs from the sender's previous
/// site for the same service address (per-sender-flow, so shard merges
/// reproduce the serial count).
inline constexpr std::string_view kAnycastCatchmentShift =
    "anycast.catchment.shift";
/// Histogram of client-perceived failover latency, ms: time from a site's
/// withdrawal to the first packet the shifted sender routes to its
/// next-best site.
inline constexpr std::string_view kAnycastFailoverLatencyMs =
    "anycast.failover.latency_ms";
/// Drain windows armed on anycast sites. Counted when the drain is
/// installed but stamped with the drain's start time, so sharded runs
/// merge to the serial bytes.
inline constexpr std::string_view kAnycastSiteDrained =
    "anycast.site.drained";
/// Packets lost in a withdrawing site's convergence sink: the route was
/// withdrawn but the sender's routers had not converged yet. Also counted
/// in net.packets.dropped.
inline constexpr std::string_view kAnycastLostInConvergence =
    "anycast.queries.lost_in_convergence";

// --- admission front door (src/resolver/resolver.cpp) -------------------
/// High-water mark of admitted in-flight client resolutions per world
/// (gauge; excluded from shard merges).
inline constexpr std::string_view kResolverInflight = "resolver.inflight";
/// Client (qname, qtype) chains the admission front door coalesced onto an
/// already in-flight or queued identical resolution (one upstream fetch
/// tree answers every waiter), with or without an in-flight cap.
inline constexpr std::string_view kResolverCoalesced = "resolver.coalesced";
/// Client resolutions parked in the admission queue because
/// max_inflight_resolutions slots were all taken.
inline constexpr std::string_view kResolverAdmissionQueued =
    "resolver.admission.queued";
/// Client resolutions failed fast with SERVFAIL because the admission
/// queue itself was full (max_queued_resolutions).
inline constexpr std::string_view kResolverAdmissionRejected =
    "resolver.admission.rejected";

// --- bulk scan driver (src/experiment/scan.cpp) -------------------------
/// Scan names handed to a recursive (one per JSONL row issued).
inline constexpr std::string_view kScanNamesIssued = "scan.names.issued";
/// Scan resolutions completed (answer, NXDOMAIN or SERVFAIL — every issued
/// name completes; the resolver's bounded-work deadline guarantees it).
inline constexpr std::string_view kScanNamesCompleted =
    "scan.names.completed";
/// Completed scan resolutions per HOST WALL second of the last run (gauge;
/// wall clock, so never part of deterministic exports or shard merges).
inline constexpr std::string_view kScanQps = "scan.qps";

// --- resolver fetch limits (src/resolver/resolver.cpp) ------------------
/// Glueless-delegation nameserver address fetches the resolver spawned.
inline constexpr std::string_view kResolverFetchSpawned =
    "resolver.fetchlimit.spawned";
/// NS-address fetches suppressed by the per-resolution budget
/// (max_fetches_per_resolution).
inline constexpr std::string_view kResolverFetchResolutionCapped =
    "resolver.fetchlimit.resolution_capped";
/// Upstream queries refused because the target zone already had
/// fetches_per_zone outstanding queries.
inline constexpr std::string_view kResolverFetchZoneCapped =
    "resolver.fetchlimit.zone_capped";

}  // namespace recwild::obs::names
