#include "resolver/resolver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/names.hpp"

namespace recwild::resolver {

namespace {

constexpr net::Port kUpstreamPort = 10'053;

/// Compact qnames_ once it holds this many names and the vast majority of
/// them are dead (no longer referenced by any outstanding query). Keeps the
/// intern table bounded under cache-busting workloads where every query
/// carries a fresh random subdomain.
constexpr std::size_t kQnameCompactMin = 4096;

/// The suffix of `name` keeping `depth` labels.
dns::Name suffix_of(const dns::Name& name, std::size_t depth) {
  std::vector<std::string> labels;
  labels.reserve(depth);
  const std::size_t total = name.label_count();
  for (std::size_t i = total - depth; i < total; ++i) {
    labels.push_back(name.label(i));
  }
  return dns::Name::from_labels(std::move(labels));
}

}  // namespace

struct RecursiveResolver::Job {
  dns::Question original;
  dns::Name current_name;
  /// QNAME minimization: minimum label count to expose next (grows past
  /// empty non-terminals, RFC 7816 §3).
  std::size_t min_labels = 0;
  std::vector<dns::ResourceRecord> chain;
  std::vector<ResolveCallback> callbacks;
  net::SimTime started_at;
  int upstream_count = 0;
  int indirections = 0;
  bool done = false;
  dns::Name current_zone;
  std::vector<net::IpAddress> failed_servers;
  /// Bounded-work safety net: key of the shared DeadlineBatch this job is
  /// registered on (absolute expiry, microseconds) and the job's slot in
  /// its member list, valid while in_deadline_batch.
  std::int64_t deadline_key = 0;
  std::size_t deadline_slot = 0;
  bool in_deadline_batch = false;
  /// Holds an admission slot (pipelined front door); finish() releases it.
  bool admitted = false;
  /// Glueless-NS address fetches this job is parked on; stepped again when
  /// the last one lands (see maybe_fetch_ns_addresses).
  int pending_fetches = 0;
  /// NXNS defense: fetch spend shared across the whole resolution tree —
  /// children inherit the pointer, so max_fetches_per_resolution bounds the
  /// walk end to end. Allocated lazily at the first glueless referral.
  std::shared_ptr<std::uint32_t> fetch_budget;
};

RecursiveResolver::RecursiveResolver(net::Network& network, net::NodeId node,
                                     net::IpAddress address,
                                     ResolverConfig config,
                                     std::vector<RootHint> hints,
                                     stats::Rng rng)
    : network_(network),
      node_(node),
      address_(address),
      config_(std::move(config)),
      hints_(std::move(hints)),
      rng_(rng),
      selector_(make_selector(config_.policy, config_.selection)),
      infra_(config_.infra),
      cache_(config_.cache),
      client_ep_{address, net::kDnsPort},
      upstream_ep_{address, kUpstreamPort} {
  obs::MetricRegistry& m = network_.sim().metrics();
  trace_ = &network_.sim().trace();
  obs_client_queries_ = &m.counter(obs::names::kResolverClientQueries);
  obs_upstream_sent_ = &m.counter(obs::names::kResolverUpstreamSent);
  obs_upstream_timeouts_ = &m.counter(obs::names::kResolverUpstreamTimeouts);
  obs_servfails_ = &m.counter(obs::names::kResolverServfails);
  obs_tcp_fallbacks_ = &m.counter(obs::names::kResolverTcpFallbacks);
  obs_failovers_ = &m.counter(obs::names::kResolverFailovers);
  obs_backoff_applied_ = &m.counter(obs::names::kResolverBackoffApplied);
  obs_backoff_capped_ = &m.counter(obs::names::kResolverBackoffCapped);
  obs_deadline_expired_ = &m.counter(obs::names::kResolverDeadlineExpired);
  obs_coalesced_ = &m.counter(obs::names::kResolverCoalesced);
  obs_admission_queued_ = &m.counter(obs::names::kResolverAdmissionQueued);
  obs_admission_rejected_ =
      &m.counter(obs::names::kResolverAdmissionRejected);
  obs_fetch_spawned_ = &m.counter(obs::names::kResolverFetchSpawned);
  obs_fetch_resolution_capped_ =
      &m.counter(obs::names::kResolverFetchResolutionCapped);
  obs_fetch_zone_capped_ = &m.counter(obs::names::kResolverFetchZoneCapped);
  // 10 ms bins to 1 s for upstream RTTs; 50 ms bins to 5 s end-to-end.
  obs_rtt_hist_ =
      &m.histogram(obs::names::kResolverUpstreamRttMs, 0.0, 1000.0, 100);
  obs_resolve_hist_ =
      &m.histogram(obs::names::kResolverResolveMs, 0.0, 5000.0, 100);
  obs_inflight_ = &m.gauge(obs::names::kResolverInflight);
  infra_.attach_metrics(m);
  cache_.attach_metrics(m);
  selector_->attach_obs(trace_, &m, config_.name);
}

RecursiveResolver::~RecursiveResolver() { stop(); }

void RecursiveResolver::start() {
  if (listening_) return;
  network_.listen(node_, client_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_client_datagram(d);
                  });
  network_.listen(node_, upstream_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_upstream_datagram(d);
                  });
  listening_ = true;
}

void RecursiveResolver::stop() {
  if (!listening_) return;
  network_.unlisten(node_, client_ep_);
  network_.unlisten(node_, upstream_ep_);
  listening_ = false;
}

void RecursiveResolver::flush_caches() {
  cache_.clear();
  infra_.clear();
  compact_qnames();
}

void RecursiveResolver::compact_qnames() {
  dns::NameTable fresh;
  for (auto& [txkey, out] : outstanding_) {
    out.qname_ref = fresh.intern(out.qname);
  }
  qnames_ = std::move(fresh);
}

void RecursiveResolver::resolve(const dns::Question& q, ResolveCallback cb) {
  obs_client_queries_->add(1, network_.sim().now());
  std::vector<ResolveCallback> cbs;
  cbs.push_back(std::move(cb));
  admit(q, std::move(cbs));
}

void RecursiveResolver::admit(const dns::Question& q,
                              std::vector<ResolveCallback> cbs) {
  const net::SimTime now = network_.sim().now();
  // The question's one inflight_ search; every path below hands its result
  // on to resolve_internal instead of searching again.
  const auto inflight = inflight_.find(PendingView{q.qname, q.qtype});
  // Duplicate of an in-flight chain: join its waiter list — one upstream
  // fetch tree answers everyone, and the join never consumes a slot.
  if (inflight != inflight_.end()) {
    if (const auto job = inflight->second.lock(); job && !job->done) {
      obs_coalesced_->add(1, now);
      for (auto& cb : cbs) job->callbacks.push_back(std::move(cb));
      return;
    }
  }
  // A live cached RRset answers synchronously: bypass admission (queueing
  // a pure cache hit behind upstream-bound work would be pointless).
  // peek() is metrics/LRU-neutral and uses the SAME expiry boundary as
  // lookup() (expires_at <= now is expired): a question arriving exactly at
  // expiry must take the admitted upstream path, never this bypass — a
  // disagreement would leak unadmitted upstream chains past the cap.
  if (cache_.peek(q.qname, q.qtype, now) != nullptr) {
    resolve_internal(q, std::move(cbs), nullptr, /*admitted=*/false,
                     inflight);
    return;
  }
  // 0 = no cap: nothing ever queues.
  if (config_.max_inflight_resolutions > 0 &&
      client_inflight_ >=
          static_cast<std::size_t>(config_.max_inflight_resolutions)) {
    // Duplicate of a queued question: coalesce onto the queue entry.
    if (const auto it = queued_.find(PendingView{q.qname, q.qtype});
        it != queued_.end()) {
      obs_coalesced_->add(1, now);
      for (auto& cb : cbs) it->second->callbacks.push_back(std::move(cb));
      return;
    }
    if (config_.max_queued_resolutions > 0 &&
        admission_queue_.size() >=
            static_cast<std::size_t>(config_.max_queued_resolutions)) {
      obs_admission_rejected_->add(1, now);
      const ResolveOutcome outcome;  // SERVFAIL, zero elapsed/upstream
      for (auto& cb : cbs) cb(outcome);
      return;
    }
    admission_queue_.push_back(QueuedResolution{q, std::move(cbs)});
    queued_.insert_or_assign(PendingKey{q.qname, q.qtype},
                             &admission_queue_.back());
    obs_admission_queued_->add(1, now);
    return;
  }
  ++client_inflight_;
  obs_inflight_->max_of(static_cast<double>(client_inflight_), now);
  resolve_internal(q, std::move(cbs), nullptr, /*admitted=*/true, inflight);
}

void RecursiveResolver::drain_admission_queue() {
  // Reentrancy guard: an admitted resolution that completes synchronously
  // (negative cache, dead delegation) finishes inside resolve_internal and
  // calls back into this function; the outer loop already owns the drain.
  if (draining_ || admission_queue_.empty()) return;
  draining_ = true;
  while (!admission_queue_.empty() &&
         client_inflight_ <
             static_cast<std::size_t>(config_.max_inflight_resolutions)) {
    QueuedResolution next = std::move(admission_queue_.front());
    queued_.erase(
        queued_.find(PendingView{next.question.qname, next.question.qtype}));
    admission_queue_.pop_front();
    // An identical chain may have started while this entry waited (internal
    // NS fetches bypass admission); joining it consumes no slot.
    const auto inflight = inflight_.find(
        PendingView{next.question.qname, next.question.qtype});
    bool join = false;
    if (inflight != inflight_.end()) {
      const auto job = inflight->second.lock();
      join = job && !job->done;
    }
    if (!join) {
      ++client_inflight_;
      obs_inflight_->max_of(static_cast<double>(client_inflight_),
                            network_.sim().now());
    }
    resolve_internal(next.question, std::move(next.callbacks), nullptr,
                     /*admitted=*/!join, inflight);
  }
  draining_ = false;
}

void RecursiveResolver::arm_deadline(const std::shared_ptr<Job>& job) {
  // Bounded work: no resolution outlives max_resolution_time, whatever a
  // fault schedule does to the servers. Jobs expiring on the same
  // microsecond share one simulation event (pipelined chains would
  // otherwise schedule N identical deadlines); the batch's last finish()
  // cancels it, so a batch of one costs exactly the per-job event it
  // replaces. The strong member ref also anchors the job while it waits
  // on child NS-address fetches, which hold only weak parents.
  const net::SimTime expiry =
      network_.sim().now() + config_.max_resolution_time;
  const std::int64_t key = expiry.count_micros();
  auto [it, created] = deadline_batches_.try_emplace(key);
  DeadlineBatch& batch = it->second;
  if (created) {
    batch.event = network_.sim().at(
        expiry, [this, key] { fire_deadline_batch(key); });
  }
  job->deadline_key = key;
  job->deadline_slot = batch.jobs.size();
  job->in_deadline_batch = true;
  batch.jobs.push_back(job);
  ++batch.live;
}

void RecursiveResolver::fire_deadline_batch(std::int64_t key) {
  const auto it = deadline_batches_.find(key);
  if (it == deadline_batches_.end()) return;
  DeadlineBatch batch = std::move(it->second);
  deadline_batches_.erase(it);
  for (const auto& j : batch.jobs) {
    if (!j || j->done) continue;
    obs_deadline_expired_->add(1, network_.sim().now());
    finish(j, dns::Rcode::ServFail);
  }
  // One cancel per batch, after the entry is gone (finish() skipped it):
  // the same schedule/cancel bookkeeping as a normally-finished batch.
  network_.sim().cancel(batch.event);
}

void RecursiveResolver::resolve_internal(
    const dns::Question& q, std::vector<ResolveCallback> cbs,
    std::shared_ptr<std::uint32_t> fetch_budget, bool admitted,
    InflightMap::iterator inflight) {
  // Coalesce identical in-flight questions.
  if (inflight != inflight_.end()) {
    if (auto job = inflight->second.lock(); job && !job->done) {
      for (auto& cb : cbs) job->callbacks.push_back(std::move(cb));
      return;
    }
  }
  auto job = std::make_shared<Job>();
  job->original = q;
  job->current_name = q.qname;
  job->callbacks = std::move(cbs);
  job->started_at = network_.sim().now();
  job->fetch_budget = std::move(fetch_budget);
  job->admitted = admitted;
  // A finished chain's stale entry is reused in place: no second search, no
  // key copy.
  if (inflight != inflight_.end()) {
    inflight->second = job;
  } else {
    inflight_.emplace(PendingKey{q.qname, q.qtype}, job);
  }
  arm_deadline(job);
  step(job);
}

void RecursiveResolver::on_client_datagram(const net::Datagram& dgram) {
  dns::Message query;
  try {
    query = dns::decode_message(dgram.payload);
  } catch (const dns::WireError&) {
    return;
  }
  if (query.header.qr || query.questions.empty()) return;
  ++client_queries_;

  // CHAOS-class identity queries are answered locally by the recursive —
  // the very reason the paper could not use them to identify which
  // *authoritative* answered (§3.1).
  const dns::Question q = query.question();
  if (q.qclass == dns::RRClass::CH) {
    dns::Message resp = dns::Message::make_response(query);
    resp.header.ra = true;
    static const dns::Name kHostnameBind = dns::Name::parse("hostname.bind");
    static const dns::Name kIdServer = dns::Name::parse("id.server");
    if (q.qtype == dns::RRType::TXT &&
        (q.qname == kHostnameBind || q.qname == kIdServer)) {
      resp.answers.push_back(dns::ResourceRecord{
          q.qname, dns::RRClass::CH, 0, dns::TxtRdata{{config_.name}}});
    } else {
      resp.header.rcode = dns::Rcode::Refused;
    }
    network_.send(node_, client_ep_, dgram.src, dns::encode_message(resp));
    return;
  }

  const auto reply_to = dgram.src;
  const auto id = query.header.id;
  const bool rd = query.header.rd;
  resolve(q, [this, reply_to, id, rd, q](const ResolveOutcome& outcome) {
    dns::Message resp;
    resp.header.id = id;
    resp.header.qr = true;
    resp.header.rd = rd;
    resp.header.ra = true;
    resp.header.rcode = outcome.rcode;
    resp.questions.push_back(q);
    resp.answers = outcome.answers;
    network_.send(node_, client_ep_, reply_to, dns::encode_message(resp));
  });
}

std::size_t RecursiveResolver::find_zone_cut(
    const dns::Name& qname, std::vector<net::IpAddress>& servers) {
  const net::SimTime now = network_.sim().now();
  servers.clear();
  // Deepest cached NS set with at least one resolvable address wins. Every
  // read borrows from the cache: no suffix Name, no RRset copy.
  for (std::size_t depth = qname.label_count(); depth > 0; --depth) {
    const CacheEntry* ns_set =
        cache_.find_suffix(qname, depth, dns::RRType::NS, now);
    if (ns_set == nullptr) continue;
    for (const auto& rd : ns_set->rrset.rdatas) {
      const auto& ns_name = std::get<dns::NsRdata>(rd).nsdname;
      if (config_.family != AddressFamily::V4Only) {
        if (const CacheEntry* aaaa_set =
                cache_.find(ns_name, dns::RRType::AAAA, now)) {
          for (const auto& ard : aaaa_set->rrset.rdatas) {
            if (auto addr = net::IpAddress::from_mapped_ipv6(
                    std::get<dns::AaaaRdata>(ard).address)) {
              servers.push_back(*addr);
            }
          }
        }
      }
      if (config_.family != AddressFamily::V6Only) {
        if (const CacheEntry* a_set =
                cache_.find(ns_name, dns::RRType::A, now)) {
          for (const auto& ard : a_set->rrset.rdatas) {
            servers.push_back(std::get<dns::ARdata>(ard).address);
          }
        }
      }
    }
    if (!servers.empty()) return depth;
  }
  // Fall back to the root hints.
  for (const auto& h : hints_) servers.push_back(h.address);
  return 0;
}

void RecursiveResolver::step(const std::shared_ptr<Job>& job) {
  if (job->done) return;
  const net::SimTime now = network_.sim().now();

  // Cache walk: negative entries, direct answers, CNAME chases.
  for (;;) {
    if (const CacheEntry* e =
            cache_.lookup(job->current_name, job->original.qtype, now)) {
      if (trace_->enabled()) {
        trace_->record({now,
                        e->negative ? obs::TraceKind::NegCacheHit
                                    : obs::TraceKind::CacheHit,
                        config_.name, job->current_name.to_string(),
                        std::string{dns::to_string(job->original.qtype)},
                        0.0});
      }
      if (e->negative) {
        finish(job, e->negative_rcode);
        return;
      }
      e->append_records(job->chain, now);
      finish(job, dns::Rcode::NoError);
      return;
    }
    if (job->original.qtype != dns::RRType::CNAME) {
      if (const CacheEntry* cname =
              cache_.find(job->current_name, dns::RRType::CNAME, now)) {
        cname->append_records(job->chain, now);
        job->current_name =
            std::get<dns::CnameRdata>(cname->rrset.rdatas.front()).target;
        job->min_labels = 0;  // restart minimization for the new target
        if (++job->indirections > config_.max_indirections) {
          finish(job, dns::Rcode::ServFail);
          return;
        }
        continue;
      }
    }
    break;
  }

  if (job->upstream_count >= config_.max_upstream_queries) {
    finish(job, dns::Rcode::ServFail);
    return;
  }

  // The cut's servers land in the reused candidates_ scratch, which the
  // filters below narrow in place; nothing between here and the send runs
  // a callback that could re-enter step() and overwrite it.
  std::vector<net::IpAddress>& candidates = candidates_;
  const std::size_t cut = find_zone_cut(job->current_name, candidates);
  if (candidates.empty()) {
    finish(job, dns::Rcode::ServFail);
    return;
  }
  // A new cut is built as a Name only when it differs from the job's
  // current zone: same label count and current_name under it.
  if (cut != job->current_zone.label_count() ||
      !job->current_name.is_subdomain_of(job->current_zone)) {
    job->failed_servers.clear();
    job->current_zone = suffix_of(job->current_name, cut);
  }
  const dns::Name& zone = job->current_zone;
  // Avoid servers that already failed this round, when alternatives exist.
  // Forwarder-style policies instead retry the same server.
  if (!selector_->prefers_retry_same()) {
    const auto failed = [&job](net::IpAddress s) {
      return std::find(job->failed_servers.begin(),
                       job->failed_servers.end(),
                       s) != job->failed_servers.end();
    };
    if (std::all_of(candidates.begin(), candidates.end(), failed)) {
      job->failed_servers.clear();  // second round: retry everyone
    } else {
      std::erase_if(candidates, failed);
    }
  }
  if (trace_->enabled()) {
    trace_->record({now, obs::TraceKind::CacheMiss, config_.name,
                    job->current_name.to_string(),
                    std::string{dns::to_string(job->original.qtype)}, 0.0});
  }
  // Hold-down (see InfraCache): servers that kept failing through repeated
  // probations are removed from selection; when one's probe timer is due,
  // this query is routed to it as the probe — which is how a recovered
  // server gets noticed before the hold-down lapses. Lowest address wins
  // so the choice is deterministic. When every candidate is held down and
  // no probe is due, selection proceeds over the full list (a resolver
  // must send somewhere; the selectors' own usable() filter agrees).
  net::IpAddress probe_target{};
  bool probe_due = false;
  {
    // In-place filter to the healthy servers; with none healthy nothing
    // was overwritten and the full list stands.
    std::size_t healthy = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const net::IpAddress s = candidates[i];
      const ServerStats* st = infra_.get(s, now);
      if (st == nullptr || !st->in_holddown(now)) {
        candidates[healthy++] = s;
      } else if (st->probe_due(now) && (!probe_due || s < probe_target)) {
        probe_target = s;
        probe_due = true;
      }
    }
    if (healthy > 0) candidates.resize(healthy);
  }
  if (probe_due) {
    infra_.note_probe(probe_target, now);
    if (trace_->enabled()) {
      const ServerStats* st = infra_.get(probe_target, now);
      trace_->record({now, obs::TraceKind::SelectServer, config_.name,
                      probe_target.to_string(), zone.to_string(),
                      st != nullptr ? st->srtt_ms : -1.0});
    }
    send_upstream(job, zone, probe_target);
    return;
  }
  const net::IpAddress server =
      selector_->select(zone, candidates, infra_, now, rng_);
  if (trace_->enabled()) {
    const ServerStats* st = infra_.get(server, now);
    trace_->record({now, obs::TraceKind::SelectServer, config_.name,
                    server.to_string(), zone.to_string(),
                    st != nullptr ? st->srtt_ms : -1.0});
  }
  send_upstream(job, zone, server);
}

void RecursiveResolver::send_upstream(const std::shared_ptr<Job>& job,
                                      const dns::Name& zone,
                                      net::IpAddress server, bool via_tcp) {
  const net::SimTime now = network_.sim().now();

  // fetches-per-zone defense: when the target zone already carries the
  // configured number of in-flight transmissions, fail fast instead of
  // piling on (what BIND's fetches-per-zone quota does under NXNS floods).
  if (config_.fetches_per_zone > 0) {
    int& in_flight = zone_outstanding_[zone];
    if (in_flight >= config_.fetches_per_zone) {
      obs_fetch_zone_capped_->add(1, now);
      finish(job, dns::Rcode::ServFail);
      return;
    }
    ++in_flight;
  }

  const std::uint64_t txkey = next_txkey_++;
  const auto txid = static_cast<std::uint16_t>(rng_.next());

  // QNAME minimization: reveal only the next label to this zone's servers
  // and ask for the delegation (NS) instead of the real question.
  dns::Name query_name = job->current_name;
  dns::RRType query_type = job->original.qtype;
  bool minimized = false;
  if (config_.qname_minimization &&
      zone.label_count() < job->current_name.label_count()) {
    const std::size_t depth =
        std::max(zone.label_count() + 1, job->min_labels);
    if (depth < job->current_name.label_count()) {
      query_name = suffix_of(job->current_name, depth);
      query_type = dns::RRType::NS;
      minimized = true;
    }
  }

  dns::Message query = dns::Message::make_query(txid, query_name,
                                                query_type);
  if (config_.use_edns) query.edns = dns::EdnsInfo{};

  ++job->upstream_count;
  ++upstream_sent_;
  obs_upstream_sent_->add(1, now);

  // Adaptive retransmission timeout from the infra cache (one funnel for
  // all paths, clamped inside — see retransmit_timeout).
  const net::Duration timeout = retransmit_timeout(server, now, via_tcp);

  Outstanding out;
  out.job = job;
  if (config_.fetches_per_zone > 0) out.zone = zone;
  out.minimized = minimized;
  out.server = server;
  out.qname = query_name;
  // Compaction is deterministic per resolver (a pure function of its own
  // table and outstanding set), and NameRef ids never leave the resolver,
  // so renumbering cannot perturb byte-identity.
  if (qnames_.size() >= kQnameCompactMin &&
      qnames_.size() / 4 > outstanding_.size()) {
    compact_qnames();
  }
  out.qname_ref = qnames_.intern(query_name);
  out.qtype = query_type;
  out.txid = txid;
  out.via_tcp = via_tcp;
  out.sent_at = now;
  const net::Endpoint dst{server, net::kDnsPort};
  out.server_port = dst.port;
  out.timeout_event = network_.sim().after(
      timeout, [this, txkey] { on_upstream_timeout(txkey); });
  outstanding_.emplace(txkey, std::move(out));

  auto wire = dns::encode_message(query);
  if (via_tcp) {
    network_.send_stream(node_, upstream_ep_, dst, std::move(wire));
  } else {
    network_.send(node_, upstream_ep_, dst, std::move(wire));
  }
}

net::Duration RecursiveResolver::retransmit_timeout(net::IpAddress server,
                                                    net::SimTime now,
                                                    bool via_tcp) {
  // max_timeout is the authoritative hard ceiling; guard against a
  // misconfigured min above it (std::clamp requires lo <= hi).
  const net::Duration hi = config_.max_timeout;
  const net::Duration lo = std::min(config_.min_timeout, hi);
  net::Duration timeout = config_.initial_timeout;
  int streak = 0;
  if (const ServerStats* st = infra_.get(server, now)) {
    timeout = net::Duration::millis(st->srtt_ms * config_.retrans_factor);
    streak = st->consecutive_timeouts;
  }
  if (via_tcp) timeout += timeout;  // handshake costs an extra round trip
  if (streak > 0) {
    // Jitterless exponential backoff: each consecutive timeout against
    // this address doubles the next timeout, up to the ceiling.
    obs_backoff_applied_->add(1, now);
    for (int i = 0; i < streak && timeout < hi; ++i) timeout += timeout;
    if (timeout > hi) obs_backoff_capped_->add(1, now);
  }
  return std::clamp(timeout, lo, hi);
}

void RecursiveResolver::on_upstream_timeout(std::uint64_t txkey) {
  const auto it = outstanding_.find(txkey);
  if (it == outstanding_.end()) return;
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  release_zone_slot(out.zone);
  ++upstream_timeouts_;
  const net::SimTime now = network_.sim().now();
  obs_upstream_timeouts_->add(1, now);
  if (trace_->enabled()) {
    trace_->record({now, obs::TraceKind::UpstreamTimeout, config_.name,
                    out.server.to_string(),
                    out.job->current_zone.to_string(),
                    (now - out.sent_at).ms()});
  }
  infra_.report_timeout(out.server, now);
  selector_->on_timeout(out.job->current_zone, out.server);
  out.job->failed_servers.push_back(out.server);
  step(out.job);
}

void RecursiveResolver::on_upstream_datagram(const net::Datagram& dgram) {
  dns::Message resp;
  try {
    resp = dns::decode_message(dgram.payload);
  } catch (const dns::WireError&) {
    return;
  }
  if (!resp.header.qr || resp.questions.empty()) return;

  // Match an outstanding query: id + server endpoint + question. The
  // source PORT is part of the key — a response from the right address but
  // the wrong port did not come from the socket we queried, so it is
  // off-path injection (or a confused middlebox) and must not be accepted.
  // The response qname is interned once (lookup-only); outstanding entries
  // then match by 32-bit id instead of re-walking label vectors per
  // candidate.
  const auto ref = qnames_.find(resp.question().qname);
  if (!ref) return;  // we never asked for this name: late or spoofed
  const auto match = std::find_if(
      outstanding_.begin(), outstanding_.end(), [&](const auto& kv) {
        const Outstanding& o = kv.second;
        return o.txid == resp.header.id && o.server == dgram.src.addr &&
               o.server_port == dgram.src.port &&
               o.qtype == resp.question().qtype && o.qname_ref == *ref;
      });
  if (match == outstanding_.end()) return;  // late or spoofed: ignore

  Outstanding out = std::move(match->second);
  outstanding_.erase(match);
  release_zone_slot(out.zone);
  network_.sim().cancel(out.timeout_event);

  const net::SimTime now = network_.sim().now();
  // TCP exchanges include handshake time; don't let them poison the
  // (UDP) SRTT estimate the selection policies rely on.
  if (!out.via_tcp) {
    infra_.report_rtt(out.server, now - out.sent_at, now);
    obs_rtt_hist_->observe((now - out.sent_at).ms(), now);
  }
  if (out.job->done) return;

  // Truncated over UDP: retry the same server over TCP (RFC 1035 §4.2.2).
  if (resp.header.tc && !out.via_tcp) {
    ++tcp_retries_;
    obs_tcp_fallbacks_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::TcpFallback, config_.name,
                      out.server.to_string(),
                      out.job->current_zone.to_string(), 0.0});
    }
    if (out.job->upstream_count < config_.max_upstream_queries) {
      send_upstream(out.job, out.job->current_zone, out.server,
                    /*via_tcp=*/true);
      return;
    }
  }
  handle_response(out.job, resp, out);
}

void RecursiveResolver::cache_message_records(const dns::Message& resp,
                                              const dns::Name& server_zone) {
  const net::SimTime now = network_.sim().now();
  auto in_bailiwick = [&](const dns::Name& owner) {
    return owner.is_subdomain_of(server_zone);
  };
  for (auto& set : dns::group_rrsets(resp.answers)) {
    if (in_bailiwick(set.name)) cache_.put(std::move(set), now);
  }
  for (auto& set : dns::group_rrsets(resp.authorities)) {
    if ((set.type == dns::RRType::NS || set.type == dns::RRType::SOA) &&
        in_bailiwick(set.name)) {
      cache_.put(std::move(set), now);
    }
  }
  for (auto& set : dns::group_rrsets(resp.additionals)) {
    if ((set.type == dns::RRType::A || set.type == dns::RRType::AAAA) &&
        in_bailiwick(set.name)) {
      cache_.put(std::move(set), now);
    }
  }
}

void RecursiveResolver::handle_response(const std::shared_ptr<Job>& job,
                                        const dns::Message& resp,
                                        const Outstanding& out) {
  const net::IpAddress server = out.server;
  const net::SimTime now = network_.sim().now();

  // Lame or broken server: try another.
  if (resp.header.rcode == dns::Rcode::ServFail ||
      resp.header.rcode == dns::Rcode::Refused ||
      resp.header.rcode == dns::Rcode::NotImp ||
      resp.header.rcode == dns::Rcode::FormErr) {
    obs_failovers_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Failover, config_.name,
                      server.to_string(),
                      std::string{dns::to_string(resp.header.rcode)}, 0.0});
    }
    selector_->on_timeout(job->current_zone, server);
    job->failed_servers.push_back(server);
    step(job);
    return;
  }

  if (resp.header.rcode == dns::Rcode::NxDomain) {
    dns::Ttl neg_ttl = 300;
    for (const auto& rr : resp.authorities) {
      if (rr.type() == dns::RRType::SOA) {
        neg_ttl = std::min(rr.ttl,
                           std::get<dns::SoaRdata>(rr.rdata).minimum);
      }
    }
    cache_message_records(resp, job->current_zone);
    // NXDOMAIN on a minimized prefix means the full name cannot exist
    // either (RFC 8020).
    cache_.put_negative(out.qname, out.qtype, dns::Rcode::NxDomain,
                        neg_ttl, now);
    finish(job, dns::Rcode::NxDomain);
    return;
  }

  // NOERROR.
  if (!resp.answers.empty()) {
    cache_message_records(resp, job->current_zone);
    if (++job->indirections > config_.max_indirections) {
      finish(job, dns::Rcode::ServFail);
      return;
    }
    step(job);  // the cache walk picks up answers and chases CNAMEs
    return;
  }

  // Referral: NS records for a zone deeper than the one we queried.
  const dns::ResourceRecord* referral_ns = nullptr;
  for (const auto& rr : resp.authorities) {
    if (rr.type() == dns::RRType::NS) {
      referral_ns = &rr;
      break;
    }
  }
  if (referral_ns != nullptr) {
    const bool deeper =
        referral_ns->name.label_count() > job->current_zone.label_count() &&
        referral_ns->name.is_subdomain_of(job->current_zone) &&
        job->current_name.is_subdomain_of(referral_ns->name);
    if (deeper) {
      cache_message_records(resp, job->current_zone);
      if (++job->indirections > config_.max_indirections) {
        finish(job, dns::Rcode::ServFail);
        return;
      }
      // Glueless referral (the NXNS lever): no cached address for any of
      // the child zone's servers. Fetch them as bounded side-resolutions
      // instead of bouncing off the parent until max_indirections.
      if (maybe_fetch_ns_addresses(job, referral_ns->name, resp)) return;
      step(job);
      return;
    }
    // Sideways/upwards referral: lame.
    obs_failovers_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Failover, config_.name,
                      server.to_string(), "lame_referral", 0.0});
    }
    selector_->on_timeout(job->current_zone, server);
    job->failed_servers.push_back(server);
    step(job);
    return;
  }

  // NODATA: name exists, no records of this type.
  dns::Ttl neg_ttl = 300;
  bool saw_soa = false;
  for (const auto& rr : resp.authorities) {
    if (rr.type() == dns::RRType::SOA) {
      neg_ttl =
          std::min(rr.ttl, std::get<dns::SoaRdata>(rr.rdata).minimum);
      saw_soa = true;
    }
  }
  if (saw_soa || resp.header.aa) {
    cache_message_records(resp, job->current_zone);
    cache_.put_negative(out.qname, out.qtype, dns::Rcode::NoError, neg_ttl,
                        now);
    if (out.minimized) {
      // The minimized prefix is an empty non-terminal: expose one more
      // label on the next round (RFC 7816 §3).
      job->min_labels = out.qname.label_count() + 1;
      step(job);
      return;
    }
    finish(job, dns::Rcode::NoError);
    return;
  }
  // Empty, non-authoritative, no referral: useless answer; failover.
  obs_failovers_->add(1, now);
  if (trace_->enabled()) {
    trace_->record({now, obs::TraceKind::Failover, config_.name,
                    server.to_string(), "useless_answer", 0.0});
  }
  selector_->on_timeout(job->current_zone, server);
  job->failed_servers.push_back(server);
  step(job);
}

bool RecursiveResolver::has_cached_address(const dns::Name& ns_name,
                                           net::SimTime now) {
  // Mirrors the family filter of find_zone_cut: an address only counts if
  // the zone-cut walk could actually use it. peek(), not find(): this is
  // fetch-limit bookkeeping, not a client lookup — it must not count
  // hits/misses or reorder the LRU.
  if (config_.family != AddressFamily::V4Only) {
    if (const auto* aaaa_set = cache_.peek(ns_name, dns::RRType::AAAA, now)) {
      for (const auto& rd : aaaa_set->rdatas) {
        if (net::IpAddress::from_mapped_ipv6(
                std::get<dns::AaaaRdata>(rd).address)) {
          return true;
        }
      }
    }
  }
  if (config_.family != AddressFamily::V6Only) {
    if (cache_.peek(ns_name, dns::RRType::A, now) != nullptr) return true;
  }
  return false;
}

bool RecursiveResolver::maybe_fetch_ns_addresses(
    const std::shared_ptr<Job>& job, const dns::Name& child_zone,
    const dns::Message& resp) {
  const net::SimTime now = network_.sim().now();
  const dns::RRType addr_type = config_.family == AddressFamily::V6Only
                                    ? dns::RRType::AAAA
                                    : dns::RRType::A;
  // Collect the referral's NS targets. Any cached address means the normal
  // zone-cut walk proceeds on its own — the glued case, i.e. every
  // committed fixture world; this function then changes nothing.
  bool saw_target = false;
  std::vector<dns::Name> targets;
  for (const auto& rr : resp.authorities) {
    if (rr.type() != dns::RRType::NS || !(rr.name == child_zone)) continue;
    saw_target = true;
    const auto& target = std::get<dns::NsRdata>(rr.rdata).nsdname;
    if (has_cached_address(target, now)) return false;
    // A target below the cut can only be resolved by the very servers we
    // lack addresses for; fetching it would loop. Skip it (missing glue).
    if (target.is_subdomain_of(child_zone)) continue;
    targets.push_back(target);
  }
  if (!saw_target) return false;

  // Per-resolution budget (Unbound's MAX_TARGET_COUNT): the whole walk —
  // this job and every child fetch it spawned — shares one allowance.
  // Truncation runs BEFORE the negative-cache filter: the allowance buys
  // the first N servers of the NS RRset, not N fresh probes per query.
  // Filtering first would let every repeat query march further down the
  // attacker's target list, turning the cap into cap-per-query.
  if (config_.max_fetches_per_resolution > 0) {
    if (!job->fetch_budget) {
      job->fetch_budget = std::make_shared<std::uint32_t>(0);
    }
    const auto cap =
        static_cast<std::uint32_t>(config_.max_fetches_per_resolution);
    const std::uint32_t used = *job->fetch_budget;
    const std::size_t allowed = used >= cap ? 0 : cap - used;
    if (targets.size() > allowed) {
      obs_fetch_resolution_capped_->add(targets.size() - allowed, now);
      targets.resize(allowed);
    }
  }
  // Already known not to exist: spawning would return instantly with the
  // same negative entry — and re-spawning per query is exactly the
  // amplification the negative cache kills between attack waves. Budget is
  // only charged for fetches actually spawned.
  std::erase_if(targets, [&](const dns::Name& t) {
    return cache_.find_negative(t, addr_type, now) != nullptr;
  });
  if (targets.empty()) {
    // Every usable server of the child zone is refuted knowledge:
    // negative-cached, glueless-in-bailiwick, or beyond the fetch budget.
    // Dead delegation; fail fast.
    finish(job, dns::Rcode::ServFail);
    return true;
  }
  if (config_.max_fetches_per_resolution > 0) {
    *job->fetch_budget += static_cast<std::uint32_t>(targets.size());
  }

  // Pre-commit the full count before the first resolve_internal: a child
  // that completes synchronously (cached CNAME chain, instant SERVFAIL)
  // must not see pending_fetches hit zero while siblings are unspawned.
  job->pending_fetches += static_cast<int>(targets.size());
  for (const auto& target : targets) {
    ++ns_fetches_spawned_;
    obs_fetch_spawned_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::NsFetch, config_.name,
                      target.to_string(), child_zone.to_string(), 0.0});
    }
    std::weak_ptr<Job> weak = job;
    std::vector<ResolveCallback> fetch_cbs;
    fetch_cbs.push_back([this, weak](const ResolveOutcome&) {
      const auto j = weak.lock();
      if (!j || j->done) return;
      if (--j->pending_fetches == 0) step(j);
    });
    // Internal fetches bypass admission (admitted=false): gating them
    // behind the client resolutions that spawned them would deadlock.
    resolve_internal(dns::Question{target, addr_type, dns::RRClass::IN},
                     std::move(fetch_cbs), job->fetch_budget,
                     /*admitted=*/false,
                     inflight_.find(PendingView{target, addr_type}));
  }
  return true;
}

void RecursiveResolver::release_zone_slot(const dns::Name& zone) {
  if (config_.fetches_per_zone <= 0) return;
  const auto it = zone_outstanding_.find(zone);
  if (it == zone_outstanding_.end()) return;
  if (--it->second <= 0) zone_outstanding_.erase(it);
}

void RecursiveResolver::finish(const std::shared_ptr<Job>& job,
                               dns::Rcode rcode) {
  if (job->done) return;
  job->done = true;
  // Leave the deadline batch; the last member out cancels the event. A
  // fired batch already erased its entry (and cancels once itself).
  if (job->in_deadline_batch) {
    job->in_deadline_batch = false;
    if (const auto it = deadline_batches_.find(job->deadline_key);
        it != deadline_batches_.end()) {
      if (--it->second.live <= 0) {
        network_.sim().cancel(it->second.event);
        deadline_batches_.erase(it);
      } else if (job->deadline_slot < it->second.jobs.size()) {
        // Release the anchor so the finished job does not outlive its
        // resolution just because batch-mates are still running.
        it->second.jobs[job->deadline_slot].reset();
      }
    }
  }
  if (job->admitted) {
    job->admitted = false;
    --client_inflight_;
  }
  const net::SimTime now = network_.sim().now();
  if (rcode == dns::Rcode::ServFail) {
    ++servfails_;
    obs_servfails_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Servfail, config_.name,
                      job->original.qname.to_string(),
                      std::string{dns::to_string(job->original.qtype)},
                      0.0});
    }
  }
  obs_resolve_hist_->observe((now - job->started_at).ms(), now);
  ResolveOutcome outcome;
  outcome.rcode = rcode;
  outcome.answers = std::move(job->chain);
  outcome.elapsed = network_.sim().now() - job->started_at;
  outcome.upstream_queries = job->upstream_count;
  if (const auto it = inflight_.find(
          PendingView{job->original.qname, job->original.qtype});
      it != inflight_.end()) {
    inflight_.erase(it);
  }
  for (auto& cb : job->callbacks) cb(outcome);
  job->callbacks.clear();
  drain_admission_queue();
}

}  // namespace recwild::resolver
