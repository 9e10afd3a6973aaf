#include "resolver/record_cache.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/names.hpp"

namespace recwild::resolver {
namespace {

net::SimTime at_s(double s) {
  return net::SimTime::origin() + net::Duration::seconds(s);
}

dns::RRset a_set(const char* name, dns::Ttl ttl, std::uint32_t ip = 1) {
  dns::RRset set;
  set.name = dns::Name::parse(name);
  set.type = dns::RRType::A;
  set.ttl = ttl;
  set.rdatas = {dns::ARdata{net::IpAddress{ip}}};
  return set;
}

dns::RRset ns_set(const dns::Name& zone, dns::Ttl ttl) {
  dns::RRset set;
  set.name = zone;
  set.type = dns::RRType::NS;
  set.ttl = ttl;
  set.rdatas = {dns::NsRdata{dns::Name::parse("ns1.example.net")}};
  return set;
}

/// The suffix of `name` keeping its last `depth` labels, built as a Name.
dns::Name suffix_of(const dns::Name& name, std::size_t depth) {
  std::vector<std::string> labels;
  for (std::size_t i = name.label_count() - depth; i < name.label_count();
       ++i) {
    labels.push_back(name.label(i));
  }
  return dns::Name::from_labels(std::move(labels));
}

bool present(const RecordCache& cache, const char* name, net::SimTime now) {
  return cache.peek(dns::Name::parse(name), dns::RRType::A, now) != nullptr;
}

TEST(RecordCache, MissOnEmpty) {
  RecordCache cache;
  EXPECT_EQ(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(0)),
            nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RecordCache, HitReturnsStoredSet) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const CacheEntry* hit =
      cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rrset.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(RecordCache, TtlCountsDown) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const CacheEntry* hit =
      cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(100));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ttl_at(at_s(100)), 200u);
  // The answer records carry the decremented TTL too.
  std::vector<dns::ResourceRecord> records;
  hit->append_records(records, at_s(100));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ttl, 200u);
  EXPECT_EQ(records[0].name, dns::Name::parse("x.nl"));
}

TEST(RecordCache, ExpiresAtTtl) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_NE(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(299)),
            nullptr);
  EXPECT_EQ(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(300)),
            nullptr);
  EXPECT_EQ(cache.size(), 0u);  // expired entry evicted on access
}

TEST(RecordCache, PeekAndGetAgreeOnTheExpiryBoundary) {
  // Regression guard for the resolver's pipelined front door: peek is the
  // admission-bypass probe and find is the resolution path. They must share
  // the `expires_at <= now` boundary — if peek called an entry live one
  // instant longer than find, a waiter arriving exactly at expiry would
  // bypass admission, then miss in find and run upstream without ever
  // holding an inflight slot.
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const dns::Name name = dns::Name::parse("x.nl");
  EXPECT_NE(cache.peek(name, dns::RRType::A, at_s(299)), nullptr);
  EXPECT_NE(cache.find(name, dns::RRType::A, at_s(299)), nullptr);
  // peek first (metrics/LRU-neutral, so it cannot evict), then find.
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_EQ(cache.peek(name, dns::RRType::A, at_s(300)), nullptr);
  EXPECT_EQ(cache.find(name, dns::RRType::A, at_s(300)), nullptr);
}

TEST(RecordCache, PeekIsMetricsAndLruNeutral) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const auto hits = cache.hits();
  const auto misses = cache.misses();
  (void)cache.peek(dns::Name::parse("x.nl"), dns::RRType::A, at_s(1));
  (void)cache.peek(dns::Name::parse("absent.nl"), dns::RRType::A, at_s(1));
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
}

TEST(RecordCache, TtlClampedToMax) {
  RecordCacheConfig cfg;
  cfg.max_ttl = 100;
  RecordCache cache{cfg};
  cache.put(a_set("x.nl", 999'999), at_s(0));
  EXPECT_EQ(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(101)),
            nullptr);
}

TEST(RecordCache, KeyIncludesType) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_EQ(cache.find(dns::Name::parse("x.nl"), dns::RRType::TXT, at_s(1)),
            nullptr);
}

TEST(RecordCache, KeyIsCaseInsensitive) {
  RecordCache cache;
  cache.put(a_set("X.NL", 300), at_s(0));
  EXPECT_NE(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(1)),
            nullptr);
}

TEST(RecordCache, OverwriteReplacesEntry) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300, 1), at_s(0));
  cache.put(a_set("x.nl", 300, 2), at_s(1));
  const CacheEntry* hit =
      cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(2));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<dns::ARdata>(hit->rrset.rdatas[0]).address,
            net::IpAddress{2});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RecordCache, LruEvictionAtCapacity) {
  RecordCacheConfig cfg;
  cfg.max_entries = 3;
  RecordCache cache{cfg};
  cache.put(a_set("a.nl", 300), at_s(0));
  cache.put(a_set("b.nl", 300), at_s(0));
  cache.put(a_set("c.nl", 300), at_s(0));
  // Touch a.nl so b.nl becomes the LRU victim.
  (void)cache.find(dns::Name::parse("a.nl"), dns::RRType::A, at_s(1));
  cache.put(a_set("d.nl", 300), at_s(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(dns::Name::parse("a.nl"), dns::RRType::A, at_s(3)),
            nullptr);
  EXPECT_EQ(cache.find(dns::Name::parse("b.nl"), dns::RRType::A, at_s(3)),
            nullptr);
}

TEST(RecordCache, NegativeEntriesStoreRcode) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("gone.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  const CacheEntry* neg = cache.find_negative(dns::Name::parse("gone.nl"),
                                              dns::RRType::A, at_s(1));
  ASSERT_NE(neg, nullptr);
  EXPECT_EQ(neg->negative_rcode, dns::Rcode::NxDomain);
  // A negative entry is not a positive hit.
  EXPECT_EQ(cache.find(dns::Name::parse("gone.nl"), dns::RRType::A, at_s(1)),
            nullptr);
}

TEST(RecordCache, NegativeEntriesExpire) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("gone.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  EXPECT_EQ(cache.find_negative(dns::Name::parse("gone.nl"), dns::RRType::A,
                                at_s(61)),
            nullptr);
}

TEST(RecordCache, NodataNegativeUsesNoError) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("x.nl"), dns::RRType::MX,
                     dns::Rcode::NoError, 60, at_s(0));
  const CacheEntry* neg =
      cache.find_negative(dns::Name::parse("x.nl"), dns::RRType::MX, at_s(1));
  ASSERT_NE(neg, nullptr);
  EXPECT_EQ(neg->negative_rcode, dns::Rcode::NoError);
}

TEST(RecordCache, PositiveOverwritesNegative) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("x.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  cache.put(a_set("x.nl", 300), at_s(1));
  EXPECT_NE(cache.find(dns::Name::parse("x.nl"), dns::RRType::A, at_s(2)),
            nullptr);
  EXPECT_EQ(cache.find_negative(dns::Name::parse("x.nl"), dns::RRType::A,
                                at_s(2)),
            nullptr);
}

TEST(RecordCache, ClearEmptiesEverything) {
  RecordCache cache;
  cache.put(a_set("a.nl", 300), at_s(0));
  cache.put(a_set("b.nl", 300), at_s(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(dns::Name::parse("a.nl"), dns::RRType::A, at_s(1)),
            nullptr);
}

TEST(RecordCache, LookupCountsLikeFindNegativeThenFind) {
  // lookup() replaces the resolver's find_negative + find pair: the same
  // entry back and the same counters moved, in one probe.
  obs::MetricRegistry reg;
  RecordCache cache;
  cache.attach_metrics(reg);
  cache.put(a_set("pos.nl", 300), at_s(0));
  cache.put_negative(dns::Name::parse("neg.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  const auto negative_hits = [&reg] {
    return reg.counter(obs::names::kRrcacheNegativeHits).value();
  };

  const CacheEntry* pos =
      cache.lookup(dns::Name::parse("pos.nl"), dns::RRType::A, at_s(1));
  ASSERT_NE(pos, nullptr);
  EXPECT_FALSE(pos->negative);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(negative_hits(), 0u);

  const CacheEntry* neg =
      cache.lookup(dns::Name::parse("neg.nl"), dns::RRType::A, at_s(1));
  ASSERT_NE(neg, nullptr);
  EXPECT_TRUE(neg->negative);
  EXPECT_EQ(neg->negative_rcode, dns::Rcode::NxDomain);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(negative_hits(), 1u);

  EXPECT_EQ(cache.lookup(dns::Name::parse("absent.nl"), dns::RRType::A,
                         at_s(1)),
            nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  // Expired: erased and counted as a miss, like find().
  EXPECT_EQ(cache.lookup(dns::Name::parse("pos.nl"), dns::RRType::A,
                         at_s(300)),
            nullptr);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(reg.counter(obs::names::kRrcacheHits).value(), cache.hits());
  EXPECT_EQ(reg.counter(obs::names::kRrcacheMisses).value(), cache.misses());
}

TEST(RecordCache, FindSuffixEqualsFindOfTheBuiltSuffix) {
  // Two caches with the same mixed-case NS sets; one is read with
  // find_suffix(n, d), the other with find(suffix_of(n, d)). Every depth,
  // before and at the expiry boundary: the same answer, and each call
  // counted exactly once.
  const std::vector<std::pair<const char*, dns::Ttl>> zones = {
      {"", 600}, {"NL", 300}, {"Example.nl", 120}, {"b.EXAMPLE.NL", 60}};
  RecordCache by_suffix;
  RecordCache by_name;
  for (const auto& [zone, ttl] : zones) {
    const dns::Name z = *zone != '\0' ? dns::Name::parse(zone) : dns::Name{};
    by_suffix.put(ns_set(z, ttl), at_s(0));
    by_name.put(ns_set(z, ttl), at_s(0));
  }
  // A negative entry at one depth must read as a miss both ways.
  by_suffix.put_negative(dns::Name::parse("a.b.example.nl"), dns::RRType::NS,
                         dns::Rcode::NoError, 900, at_s(0));
  by_name.put_negative(dns::Name::parse("a.b.example.nl"), dns::RRType::NS,
                       dns::Rcode::NoError, 900, at_s(0));

  const dns::Name qname = dns::Name::parse("Q1.a.B.example.Nl");
  for (const double t : {1.0, 59.0, 60.0, 119.0, 120.0, 300.0, 600.0}) {
    for (std::size_t depth = 0; depth <= qname.label_count(); ++depth) {
      const auto calls_before = by_suffix.hits() + by_suffix.misses();
      const CacheEntry* s =
          by_suffix.find_suffix(qname, depth, dns::RRType::NS, at_s(t));
      const CacheEntry* n = by_name.find(suffix_of(qname, depth),
                                         dns::RRType::NS, at_s(t));
      ASSERT_EQ(s == nullptr, n == nullptr) << "t=" << t << " depth=" << depth;
      if (s != nullptr) {
        EXPECT_EQ(s->rrset.name, n->rrset.name);
        EXPECT_EQ(s->rrset.name.label_count(), depth);
        EXPECT_EQ(s->ttl_at(at_s(t)), n->ttl_at(at_s(t)));
      }
      EXPECT_EQ(by_suffix.hits() + by_suffix.misses(), calls_before + 1);
      EXPECT_EQ(by_suffix.hits(), by_name.hits());
      EXPECT_EQ(by_suffix.misses(), by_name.misses());
      EXPECT_EQ(by_suffix.size(), by_name.size());
    }
  }
  // Every NS set has expired by t=600 and was erased on the read; the
  // negative entry outlives them.
  EXPECT_EQ(by_suffix.size(), 1u);
}

TEST(RecordCache, LruOrderSurvivesTouchOverwriteExpiryAndClear) {
  RecordCacheConfig cfg;
  cfg.max_entries = 3;
  RecordCache cache{cfg};
  const auto touch = [&cache](const char* name, double t) {
    return cache.find(dns::Name::parse(name), dns::RRType::A, at_s(t));
  };

  // Order, oldest first: a b c. A find moves a to the front: b c a.
  cache.put(a_set("a.nl", 300), at_s(0));
  cache.put(a_set("b.nl", 300), at_s(0));
  cache.put(a_set("c.nl", 300), at_s(0));
  ASSERT_NE(touch("a.nl", 1), nullptr);
  // An overwrite moves b to the front too: c a b.
  cache.put(a_set("b.nl", 300, 2), at_s(1));
  cache.put(a_set("d.nl", 300), at_s(2));  // evicts c: a b d
  EXPECT_FALSE(present(cache, "c.nl", at_s(2)));
  cache.put(a_set("e.nl", 300), at_s(2));  // evicts a: b d e
  EXPECT_FALSE(present(cache, "a.nl", at_s(2)));
  EXPECT_TRUE(present(cache, "b.nl", at_s(2)));
  EXPECT_EQ(cache.evictions(), 2u);

  // Expiry-erase from the middle of the list: b x d, x expires on a read.
  cache.clear();
  cache.put(a_set("b.nl", 300), at_s(10));
  cache.put(a_set("x.nl", 5), at_s(10));
  cache.put(a_set("d.nl", 300), at_s(10));
  EXPECT_EQ(touch("x.nl", 15), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  cache.put(a_set("f.nl", 300), at_s(15));  // room: b d f
  EXPECT_EQ(cache.evictions(), 2u);
  cache.put(a_set("g.nl", 300), at_s(15));  // evicts b: d f g
  EXPECT_FALSE(present(cache, "b.nl", at_s(15)));
  cache.put(a_set("h.nl", 300), at_s(15));  // evicts d: f g h
  EXPECT_FALSE(present(cache, "d.nl", at_s(15)));
  EXPECT_EQ(cache.evictions(), 4u);

  // Expiry-erase of the oldest and the newest entry.
  cache.clear();
  cache.put(a_set("o.nl", 5), at_s(20));
  cache.put(a_set("m.nl", 300), at_s(20));
  cache.put(a_set("n.nl", 5), at_s(20));
  EXPECT_EQ(touch("o.nl", 25), nullptr);
  EXPECT_EQ(touch("n.nl", 25), nullptr);
  cache.put(a_set("p.nl", 300), at_s(25));
  cache.put(a_set("q.nl", 300), at_s(25));  // m p q: full, nothing evicted
  EXPECT_EQ(cache.evictions(), 4u);
  cache.put(a_set("r.nl", 300), at_s(25));  // evicts m
  EXPECT_FALSE(present(cache, "m.nl", at_s(25)));
  EXPECT_TRUE(present(cache, "p.nl", at_s(25)));

  // clear() leaves an empty list that fills and evicts from scratch.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.put(a_set("s.nl", 300), at_s(30));
  cache.put(a_set("t.nl", 300), at_s(30));
  cache.put(a_set("u.nl", 300), at_s(30));
  cache.put(a_set("v.nl", 300), at_s(30));  // evicts s
  EXPECT_FALSE(present(cache, "s.nl", at_s(30)));
  EXPECT_TRUE(present(cache, "t.nl", at_s(30)));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 6u);
}

}  // namespace
}  // namespace recwild::resolver
