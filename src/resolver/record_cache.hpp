// Record cache: the resolver's local cache of RRsets with TTL expiry and a
// bounded LRU (paper §2 "local cache"). Also stores negative answers
// (NXDOMAIN / NODATA) per RFC 2308, keyed by (name, type).
//
// The paper's measurement design defeats this cache on purpose (unique
// labels, TTL 5 s); the cache still matters because NS sets and glue stay
// cached between probes, which is exactly why only the test authoritatives
// see the probe traffic after the first resolution.
#pragma once

#include <unordered_map>
#include <vector>

#include "dnscore/record.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"

namespace recwild::resolver {

struct RecordCacheConfig {
  std::size_t max_entries = 100'000;
  /// TTL clamp bounds (many resolvers clamp; e.g. Unbound cache-max-ttl).
  dns::Ttl min_ttl = 0;
  dns::Ttl max_ttl = 86'400;
};

/// A cached positive RRset or negative marker.
struct CacheEntry {
  dns::RRset rrset;            // empty rdatas => negative entry
  bool negative = false;
  dns::Rcode negative_rcode = dns::Rcode::NoError;  // NXDOMAIN vs NODATA
  net::SimTime expires_at;

  /// Whole seconds left to live at `now` (rrset.ttl is the stored TTL).
  [[nodiscard]] dns::Ttl ttl_at(net::SimTime now) const noexcept;
  /// Appends the RRset's records to `out` with the TTL decremented to
  /// `now` — what a resolver answers from this entry.
  void append_records(std::vector<dns::ResourceRecord>& out,
                      net::SimTime now) const;
};

/// Reads borrow: every read returns a `const CacheEntry*` into the cache's
/// own storage and copies nothing. A returned pointer stays valid until the
/// next put()/put_negative()/clear(), or until a read at a later `now`
/// finds that entry expired and erases it; reads at the same `now` never
/// invalidate a pointer they did not return as null.
///
/// Counted reads (find, find_suffix, find_negative, lookup) record hits and
/// misses, erase an entry they find expired and move a live one to the LRU
/// front. peek() does none of that.
class RecordCache {
 public:
  explicit RecordCache(RecordCacheConfig config = {}) : config_(config) {}
  // The LRU links point into the map's own nodes: a copy would point into
  // the original.
  RecordCache(const RecordCache&) = delete;
  RecordCache& operator=(const RecordCache&) = delete;

  /// The live positive entry for (name, type), or nullptr on
  /// miss/expired/negative. Counts one hit or one miss.
  [[nodiscard]] const CacheEntry* find(const dns::Name& name,
                                       dns::RRType type, net::SimTime now);

  /// find() for the suffix of `name` keeping its last `depth` labels
  /// (depth <= name.label_count()): hashes and compares those labels in
  /// place instead of building the suffix Name. Counts like find().
  [[nodiscard]] const CacheEntry* find_suffix(const dns::Name& name,
                                              std::size_t depth,
                                              dns::RRType type,
                                              net::SimTime now);

  /// The live negative entry for (name, type), or nullptr. Counts a
  /// negative hit when it returns one; a miss or a positive entry counts
  /// nothing.
  [[nodiscard]] const CacheEntry* find_negative(const dns::Name& name,
                                                dns::RRType type,
                                                net::SimTime now);

  /// find_negative() and then find() in one probe: the live entry for
  /// (name, type), negative or positive, or nullptr. Counts a negative hit,
  /// a hit or a miss — exactly what the two calls in a row would count.
  [[nodiscard]] const CacheEntry* lookup(const dns::Name& name,
                                         dns::RRType type, net::SimTime now);

  /// find() under the name perfbench's rrcache layer times
  /// (perfbench/layers.cpp); the resolver path calls find().
  const CacheEntry* get(const dns::Name& name, dns::RRType type,
                        net::SimTime now) {
    return find(name, type, now);
  }

  /// Metrics- and LRU-neutral probe: the live positive RRset for
  /// (name, type), or nullptr on miss/expired/negative. Counts nothing and
  /// never reorders the LRU — for bookkeeping checks (e.g. the resolver's
  /// fetch-limit glue test) that must not perturb cache-metric fixtures.
  /// The returned TTL is the stored one, not decremented to now.
  [[nodiscard]] const dns::RRset* peek(const dns::Name& name,
                                       dns::RRType type,
                                       net::SimTime now) const;

  /// Inserts/overwrites a positive RRset (TTL clamped to config bounds).
  void put(dns::RRset rrset, net::SimTime now);

  /// Inserts a negative entry with the zone's negative TTL.
  void put_negative(const dns::Name& name, dns::RRType type, dns::Rcode rcode,
                    dns::Ttl ttl, net::SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  void clear();

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Mirrors hit/miss/eviction counts into `registry` (obs::names::kRrcache*)
  /// from this call on. Optional; without it the cache records nothing.
  void attach_metrics(obs::MetricRegistry& registry);

 private:
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator==(const Key& o) const {
      return type == o.type && name == o.name;
    }
  };
  /// Borrowed key for transparent lookups: probes with the caller's Name
  /// instead of copying its label vector into a fresh Key per lookup.
  struct KeyView {
    const dns::Name& name;
    dns::RRType type;
  };
  /// Borrowed key for the suffix of `name` keeping its last `depth` labels.
  struct SuffixView {
    const dns::Name& name;
    std::size_t depth;
    dns::RRType type;
  };
  static std::size_t mix(std::size_t name_hash, dns::RRType type) noexcept {
    return name_hash ^ (static_cast<std::size_t>(type) * 0x9e3779b9);
  }
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const noexcept {
      return mix(k.name.hash(), k.type);
    }
    std::size_t operator()(const KeyView& k) const noexcept {
      return mix(k.name.hash(), k.type);
    }
    std::size_t operator()(const SuffixView& k) const noexcept {
      return mix(k.name.suffix_hash(k.depth), k.type);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const { return a == b; }
    bool operator()(const Key& a, const KeyView& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return (*this)(b, a);
    }
    // The suffix equals the key when it has as many labels and the name
    // lies under the key (case-insensitive, like Name::equals).
    bool operator()(const Key& a, const SuffixView& b) const {
      return a.type == b.type && a.name.label_count() == b.depth &&
             b.name.is_subdomain_of(a.name);
    }
    bool operator()(const SuffixView& a, const Key& b) const {
      return (*this)(b, a);
    }
  };
  /// An entry plus its intrusive LRU links. `key` points at the map node's
  /// own key (unordered_map nodes never move), so the LRU stores no second
  /// copy of it.
  struct Slot {
    CacheEntry entry;
    const Key* key = nullptr;
    Slot* newer = nullptr;
    Slot* older = nullptr;
  };
  using Map = std::unordered_map<Key, Slot, KeyHash, KeyEq>;

  /// The live slot for `view`, moved to the LRU front; an expired one is
  /// erased. Counts nothing.
  template <class View>
  Slot* find_live(const View& view, net::SimTime now);
  const CacheEntry* count_positive(const Slot* slot, net::SimTime now);
  /// Moves `slot` to the LRU front.
  void touch(Slot& slot) noexcept;
  void link_front(Slot& slot) noexcept;
  void unlink(Slot& slot) noexcept;
  void erase(Map::iterator it) noexcept;
  /// `name` may point into `entry`: it is read before `entry` moves.
  void insert(const dns::Name& name, dns::RRType type, CacheEntry&& entry,
              net::SimTime now);
  void evict_one(net::SimTime now);

  RecordCacheConfig config_;
  Map entries_;
  Slot* newest_ = nullptr;  // LRU front
  Slot* oldest_ = nullptr;  // LRU back: the next eviction victim
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  // Optional registry mirrors (null until attach_metrics).
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_negative_hits_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

}  // namespace recwild::resolver
