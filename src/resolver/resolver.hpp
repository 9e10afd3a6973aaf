// Recursive resolver bound to a simulated network node.
//
// Implements full iterative resolution the way production resolvers do:
// start from root hints, follow referrals downwards, cache NS sets, glue
// and answers, and pick among a zone's authoritative addresses with a
// pluggable ServerSelector fed by the InfraCache. Handles retransmission
// with adaptive timeouts, server failover, SERVFAIL/REFUSED lameness,
// CNAME chasing, negative caching, and client query coalescing.
//
// One RecursiveResolver models one "recursive" of the paper (an R box in
// Figure 1); its selection policy is drawn from the population mixture.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "dnscore/name_table.hpp"
#include "net/network.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/record_cache.hpp"
#include "resolver/selection.hpp"

namespace recwild::resolver {

/// Bootstrap knowledge: the root NS addresses (a hints file).
struct RootHint {
  dns::Name ns_name;
  net::IpAddress address;
};

/// Which address records of an NS a resolver uses for upstream queries.
/// Dual-stack resolvers treat the v4 and v6 addresses of a nameserver as
/// separate candidate servers, as BIND/Unbound do (the paper verified its
/// findings hold over IPv6, §3.1).
enum class AddressFamily : unsigned char { V4Only, V6Only, Dual };

struct ResolverConfig {
  std::string name = "resolver";
  PolicyKind policy = PolicyKind::BindSrtt;
  AddressFamily family = AddressFamily::V4Only;
  SelectionConfig selection{};
  InfraCacheConfig infra{};
  RecordCacheConfig cache{};

  /// Per-transmission timeout bounds. With SRTT knowledge the base timeout
  /// is srtt*retrans_factor; without it, initial_timeout. Consecutive
  /// timeouts against the same address double it (jitterless exponential
  /// backoff). Every path — SRTT, no-SRTT failover, the TCP retry — is
  /// clamped to [min_timeout, max_timeout]; max_timeout is a hard ceiling.
  net::Duration initial_timeout = net::Duration::millis(750);
  net::Duration min_timeout = net::Duration::millis(500);
  net::Duration max_timeout = net::Duration::seconds(2);
  double retrans_factor = 3.0;

  /// Bounded work: a hard deadline on one client resolution. Whatever a
  /// fault schedule does to the servers, the job finishes (SERVFAIL) at
  /// this age. Far above the normal worst case — max_upstream_queries
  /// transmissions of max_timeout each — so it only fires as a safety net.
  net::Duration max_resolution_time = net::Duration::seconds(60);

  /// Upper bound on upstream transmissions for one client query.
  int max_upstream_queries = 16;
  /// Upper bound on referral depth + CNAME chases.
  int max_indirections = 12;

  /// NXNS defense (docs/ATTACKS.md), Unbound MAX_TARGET_COUNT-style: total
  /// glueless-NS address fetches one client resolution may spawn across
  /// its whole delegation walk (children included). 0 = unlimited.
  int max_fetches_per_resolution = 0;
  /// NXNS defense, BIND fetches-per-zone-style: upstream queries allowed
  /// to be outstanding against one zone at a time; at the cap further
  /// sends fail fast with SERVFAIL. 0 = unlimited.
  int fetches_per_zone = 0;

  bool use_edns = true;

  /// QNAME minimization (RFC 7816): expose only one more label to each
  /// zone's servers (NS queries for the next label) instead of the full
  /// query name. Off by default, like the resolvers of the paper's era.
  bool qname_minimization = false;

  /// Client resolutions admitted in flight at once. Every client question
  /// enters through one front door, admit() (ZDNS-style bulk resolution).
  /// Above the cap, new questions wait in a FIFO admission queue and are
  /// started as slots free up; duplicates of an in-flight or queued
  /// (qname, qtype) coalesce onto its waiter list (resolver.coalesced) and
  /// never consume a slot, and questions a live cached RRset can answer
  /// bypass admission entirely (they complete synchronously from cache).
  /// Internal NS-address fetches also bypass admission — gating them behind
  /// the very resolutions that spawned them would deadlock. Queue wait is
  /// excluded from ResolveOutcome::elapsed (the clock starts at admission).
  /// 0 = no cap (the default): the same front door, but nothing queues.
  int max_inflight_resolutions = 0;
  /// Admission-queue depth bound; at the cap new resolutions fail fast
  /// with SERVFAIL (resolver.admission.rejected). 0 = unbounded queue.
  /// Only meaningful with max_inflight_resolutions > 0.
  int max_queued_resolutions = 0;
};

/// Final result delivered to the caller of resolve().
struct ResolveOutcome {
  dns::Rcode rcode = dns::Rcode::ServFail;
  std::vector<dns::ResourceRecord> answers;
  /// Total wall-clock the resolution took.
  net::Duration elapsed = net::Duration::zero();
  /// Upstream queries this resolution caused (0 = pure cache hit).
  int upstream_queries = 0;
};

using ResolveCallback = std::function<void(const ResolveOutcome&)>;

class RecursiveResolver {
 public:
  RecursiveResolver(net::Network& network, net::NodeId node,
                    net::IpAddress address, ResolverConfig config,
                    std::vector<RootHint> hints, stats::Rng rng);
  ~RecursiveResolver();
  RecursiveResolver(const RecursiveResolver&) = delete;
  RecursiveResolver& operator=(const RecursiveResolver&) = delete;

  /// Starts serving: client port 53 and the upstream socket.
  void start();
  void stop();

  /// Resolves a question on behalf of a local caller (no client-side
  /// network hop). Identical path to network clients otherwise.
  void resolve(const dns::Question& q, ResolveCallback cb);

  // Fetch-limit counters (0 when the knobs are off).
  [[nodiscard]] std::uint64_t ns_fetches_spawned() const noexcept {
    return ns_fetches_spawned_;
  }

  /// Admitted client resolutions currently in flight (0 unless the
  /// pipelined front door is on; joins and internal fetches don't count).
  [[nodiscard]] std::size_t inflight_resolutions() const noexcept {
    return client_inflight_;
  }
  /// Client resolutions waiting in the admission queue.
  [[nodiscard]] std::size_t queued_resolutions() const noexcept {
    return admission_queue_.size();
  }

  [[nodiscard]] net::IpAddress address() const noexcept { return address_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }
  [[nodiscard]] PolicyKind policy() const noexcept { return config_.policy; }

  [[nodiscard]] InfraCache& infra() noexcept { return infra_; }
  [[nodiscard]] RecordCache& cache() noexcept { return cache_; }

  /// Simulates a restart / cache flush (cold-cache condition).
  void flush_caches();

  // Counters.
  [[nodiscard]] std::uint64_t client_queries() const noexcept {
    return client_queries_;
  }
  [[nodiscard]] std::uint64_t upstream_sent() const noexcept {
    return upstream_sent_;
  }
  [[nodiscard]] std::uint64_t upstream_timeouts() const noexcept {
    return upstream_timeouts_;
  }
  [[nodiscard]] std::uint64_t servfails() const noexcept {
    return servfails_;
  }
  [[nodiscard]] std::uint64_t tcp_retries() const noexcept {
    return tcp_retries_;
  }
  /// Distinct upstream qnames currently interned. Bounded: the table is
  /// compacted down to the outstanding set once it crosses a threshold.
  [[nodiscard]] std::size_t interned_qnames() const noexcept {
    return qnames_.size();
  }

 private:
  struct Job;

  // Keys of query coalescing (inflight_) and admission (queued_). Lookups
  // and erases go through the borrowed PendingView so the per-query fast
  // path never copies a Name just to probe a map.
  struct PendingKey {
    dns::Name name;
    dns::RRType type;
    bool operator==(const PendingKey& o) const {
      return type == o.type && name == o.name;
    }
  };
  struct PendingView {
    const dns::Name& name;
    dns::RRType type;
  };
  struct PendingKeyHash {
    using is_transparent = void;
    std::size_t operator()(const PendingKey& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) << 1);
    }
    std::size_t operator()(const PendingView& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) << 1);
    }
  };
  struct PendingKeyEq {
    using is_transparent = void;
    bool operator()(const PendingKey& a, const PendingKey& b) const {
      return a == b;
    }
    bool operator()(const PendingKey& a, const PendingView& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const PendingView& a, const PendingKey& b) const {
      return b.type == a.type && b.name == a.name;
    }
  };
  using InflightMap = std::unordered_map<PendingKey, std::weak_ptr<Job>,
                                         PendingKeyHash, PendingKeyEq>;

  /// resolve() plus a shared NS-fetch budget carried into the new job, so
  /// glueless chains nested under an NXNS-style referral spend their
  /// parent's max_fetches_per_resolution allowance, not a fresh one.
  /// Takes the job's whole waiter list up front: an admission-queue entry
  /// drains with every coalesced callback it accumulated, and a chain that
  /// completes synchronously (cache hit) must answer all of them.
  /// `admitted` marks a resolution holding an admission slot — finish()
  /// releases it and drains the queue. `inflight` is the caller's
  /// inflight_.find() for `q` (end() when absent), so one question is
  /// searched for once.
  void resolve_internal(const dns::Question& q,
                        std::vector<ResolveCallback> cbs,
                        std::shared_ptr<std::uint32_t> fetch_budget,
                        bool admitted, InflightMap::iterator inflight);
  /// The one front door of every client resolution: join / cache-bypass /
  /// start / queue / reject, in that order (see
  /// ResolverConfig::max_inflight_resolutions).
  void admit(const dns::Question& q, std::vector<ResolveCallback> cbs);
  /// Starts queued resolutions while slots are free (called from finish;
  /// reentrancy-guarded, so synchronous completions don't recurse).
  void drain_admission_queue();
  /// Registers `job` on the deadline batch expiring at started_at +
  /// max_resolution_time. Jobs starting at the same instant share one
  /// simulation event, so N pipelined chains don't multiply queue churn.
  void arm_deadline(const std::shared_ptr<Job>& job);
  void fire_deadline_batch(std::int64_t key);

  void on_client_datagram(const net::Datagram& dgram);
  void on_upstream_datagram(const net::Datagram& dgram);

  /// Advances a job: cache checks, zone-cut discovery, upstream send.
  void step(const std::shared_ptr<Job>& job);
  /// Finds the deepest zone cut with cached/known server addresses for
  /// `qname`: refills `servers` and returns the cut's label count (the
  /// zone is qname's suffix of that many labels). Falls back to the root
  /// hints at 0. Reads the cache by reference and builds no Name.
  std::size_t find_zone_cut(const dns::Name& qname,
                            std::vector<net::IpAddress>& servers);
  struct Outstanding;
  void send_upstream(const std::shared_ptr<Job>& job, const dns::Name& zone,
                     net::IpAddress server, bool via_tcp = false);
  /// The per-transmission timeout for `server` right now: base (SRTT or
  /// initial), TCP handshake doubling, exponential backoff per consecutive
  /// timeout, then one final clamp to [min_timeout, max_timeout]. The
  /// single funnel for all timeout arithmetic.
  [[nodiscard]] net::Duration retransmit_timeout(net::IpAddress server,
                                                 net::SimTime now,
                                                 bool via_tcp);
  void on_upstream_timeout(std::uint64_t txkey);
  /// Rebuilds qnames_ from the names still outstanding, re-interning their
  /// qname_refs. Keeps the intern table bounded under high-cardinality
  /// (random-subdomain) workloads where names never repeat.
  void compact_qnames();
  void handle_response(const std::shared_ptr<Job>& job,
                       const dns::Message& resp, const Outstanding& out);
  void finish(const std::shared_ptr<Job>& job, dns::Rcode rcode);
  void cache_message_records(const dns::Message& resp,
                             const dns::Name& server_zone);
  /// NXNS handling: when a referral into `child_zone` names only servers
  /// we hold no addresses for, spawns bounded side-resolutions for their
  /// A/AAAA records and parks the job until they land. Returns true when
  /// it took ownership of the job (spawned fetches or finished it).
  bool maybe_fetch_ns_addresses(const std::shared_ptr<Job>& job,
                                const dns::Name& child_zone,
                                const dns::Message& resp);
  /// Family-aware: does the cache hold a usable address for this NS host?
  [[nodiscard]] bool has_cached_address(const dns::Name& ns_name,
                                        net::SimTime now);
  /// Drops the fetches_per_zone slot `zone` holds (no-op when the knob is
  /// off). Must run exactly once per tracked transmission.
  void release_zone_slot(const dns::Name& zone);

  net::Network& network_;
  net::NodeId node_;
  net::IpAddress address_;
  ResolverConfig config_;
  std::vector<RootHint> hints_;
  stats::Rng rng_;
  std::unique_ptr<ServerSelector> selector_;
  InfraCache infra_;
  RecordCache cache_;

  net::Endpoint client_ep_;
  net::Endpoint upstream_ep_;
  bool listening_ = false;

  struct Outstanding {
    std::shared_ptr<Job> job;
    bool minimized = false;  // qname/qtype differ from the client question
    net::IpAddress server;
    /// The destination port the query was sent to. Response matching
    /// requires the source endpoint — address AND port — to be the one we
    /// queried; accepting any port on the right address lets an off-path
    /// host that never saw the query inject from an unprivileged socket.
    net::Port server_port = net::kDnsPort;
    dns::Name qname;
    /// qname's id in qnames_ — response matching compares this 32-bit id
    /// instead of walking label vectors per outstanding entry.
    dns::NameRef qname_ref;
    dns::RRType qtype{};
    std::uint16_t txid = 0;
    bool via_tcp = false;
    net::SimTime sent_at;
    net::EventId timeout_event = 0;
    /// Zone the transmission targets; populated (and a slot held in
    /// zone_outstanding_) only while fetches_per_zone > 0.
    dns::Name zone;
  };
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;  // by txkey
  /// step()'s server list, reused across calls so the per-step zone-cut
  /// walk and candidate filters allocate nothing once it has grown.
  std::vector<net::IpAddress> candidates_;
  std::uint64_t next_txkey_ = 1;
  /// Outstanding transmissions per target zone, maintained only while
  /// fetches_per_zone > 0 so default-config worlds pay nothing.
  struct ZoneHash {
    std::size_t operator()(const dns::Name& n) const noexcept {
      return n.hash();
    }
  };
  std::unordered_map<dns::Name, int, ZoneHash> zone_outstanding_;
  /// Interns every upstream qname once at send time; a response's qname is
  /// looked up once and matched against outstanding ids (a miss means no
  /// query of ours ever asked that name — drop, like a failed scan would).
  dns::NameTable qnames_;

  // Query coalescing: (qname,type) -> job waiting upstream.
  InflightMap inflight_;

  // Admission state (see admit()). The queue is a
  // deque so queued_ can hold stable pointers into it: push_back/pop_front
  // never move other elements. queued_ coalesces duplicates of a waiting
  // question onto its callback list instead of queueing it twice.
  struct QueuedResolution {
    dns::Question question;
    std::vector<ResolveCallback> callbacks;
  };
  std::deque<QueuedResolution> admission_queue_;
  std::unordered_map<PendingKey, QueuedResolution*, PendingKeyHash,
                     PendingKeyEq>
      queued_;
  /// Admitted client resolutions in flight (slots held).
  std::size_t client_inflight_ = 0;
  bool draining_ = false;

  /// Batched bounded-work deadlines: every job whose deadline lands on the
  /// same microsecond shares one simulation event, keyed by the absolute
  /// expiry time. `live` counts unfinished members; the last finish()
  /// cancels the event, so a batch of one schedules and cancels exactly
  /// like the per-job deadline it replaces. Members are STRONG refs — the
  /// batch is what keeps a job alive while it waits on child NS-address
  /// fetches (which hold only weak parents); finish() resets the member's
  /// slot so completed jobs never linger.
  struct DeadlineBatch {
    net::EventId event = 0;
    std::vector<std::shared_ptr<Job>> jobs;
    int live = 0;
  };
  std::unordered_map<std::int64_t, DeadlineBatch> deadline_batches_;

  std::uint64_t client_queries_ = 0;
  std::uint64_t upstream_sent_ = 0;
  std::uint64_t upstream_timeouts_ = 0;
  std::uint64_t servfails_ = 0;
  std::uint64_t tcp_retries_ = 0;
  std::uint64_t ns_fetches_spawned_ = 0;

  // Observability: cached handles into the simulation's MetricRegistry and
  // its DecisionTrace (see src/obs). Set once in the constructor.
  obs::DecisionTrace* trace_ = nullptr;
  obs::Counter* obs_client_queries_ = nullptr;
  obs::Counter* obs_upstream_sent_ = nullptr;
  obs::Counter* obs_upstream_timeouts_ = nullptr;
  obs::Counter* obs_servfails_ = nullptr;
  obs::Counter* obs_tcp_fallbacks_ = nullptr;
  obs::Counter* obs_failovers_ = nullptr;
  obs::Counter* obs_backoff_applied_ = nullptr;
  obs::Counter* obs_backoff_capped_ = nullptr;
  obs::Counter* obs_deadline_expired_ = nullptr;
  obs::Histogram* obs_rtt_hist_ = nullptr;
  obs::Histogram* obs_resolve_hist_ = nullptr;
  obs::Counter* obs_fetch_spawned_ = nullptr;
  obs::Counter* obs_fetch_resolution_capped_ = nullptr;
  obs::Counter* obs_fetch_zone_capped_ = nullptr;
  /// High-water mark of admitted in-flight client resolutions (gauge:
  /// point-in-time level, excluded from shard merges).
  obs::Gauge* obs_inflight_ = nullptr;
  obs::Counter* obs_coalesced_ = nullptr;
  obs::Counter* obs_admission_queued_ = nullptr;
  obs::Counter* obs_admission_rejected_ = nullptr;
};

}  // namespace recwild::resolver
