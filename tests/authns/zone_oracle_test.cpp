// Differential test: Zone::match and QueryEngine::lookup against an
// ancestor-walk oracle — the straightforward lookup the node index
// replaced, kept here as the reference. Each step of the oracle builds the
// Names it asks about (the delegation candidate per depth, the parent
// chain, "*.<encloser>") and probes a canonically ordered map, so it shares
// no code with the index it checks.
//
// Zones are generated with nested cuts, empty non-terminals, wildcards at
// several depths, wildcard-CNAME chains, owners added under mixed case and
// names of 10+ labels; every query is asked with its case scrambled.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "authns/query_engine.hpp"
#include "authns/responder.hpp"
#include "stats/rng.hpp"

namespace recwild::authns {
namespace {

constexpr int kMaxCnameChain = 8;

class AncestorWalkOracle {
 public:
  explicit AncestorWalkOracle(Name origin) : origin_(std::move(origin)) {}

  [[nodiscard]] const Name& origin() const { return origin_; }

  void add(const ResourceRecord& rr) {
    auto& sets = names_[rr.name];
    for (auto& s : sets) {
      if (s.type != rr.type()) continue;
      s.ttl = std::min(s.ttl, rr.ttl);
      if (std::find(s.rdatas.begin(), s.rdatas.end(), rr.rdata) ==
          s.rdatas.end()) {
        s.rdatas.push_back(rr.rdata);
      }
      return;
    }
    sets.push_back(RRset{rr.name, rr.rrclass, rr.type(), rr.ttl, {rr.rdata}});
  }

  [[nodiscard]] const std::vector<RRset>* find_all(const Name& name) const {
    const auto it = names_.find(name);
    return it == names_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const RRset* find(const Name& name, RRType type) const {
    if (const auto* sets = find_all(name)) {
      for (const auto& s : *sets) {
        if (s.type == type) return &s;
      }
    }
    return nullptr;
  }

  // Owns RRsets, or is an empty non-terminal: descendants sort right after.
  [[nodiscard]] bool name_exists(const Name& name) const {
    const auto it = names_.lower_bound(name);
    return it != names_.end() && it->first.is_subdomain_of(name);
  }

  // The shallowest NS owner strictly below the apex, at or above `name`.
  [[nodiscard]] const RRset* find_delegation(const Name& name) const {
    const std::size_t n = name.label_count();
    for (std::size_t depth = origin_.label_count() + 1; depth <= n; ++depth) {
      std::vector<std::string> labels;
      for (std::size_t i = n - depth; i < n; ++i) {
        labels.push_back(name.label(i));
      }
      if (const RRset* ns = find(Name::from_labels(labels), RRType::NS)) {
        return ns;
      }
    }
    return nullptr;
  }

  // The RRsets at "*.<closest encloser>" of a name that does not exist.
  [[nodiscard]] const std::vector<RRset>* find_wildcard(
      const Name& name) const {
    if (name == origin_) return nullptr;
    Name encloser = name.parent();
    while (encloser.label_count() >= origin_.label_count()) {
      if (name_exists(encloser)) break;
      if (encloser.is_root()) return nullptr;
      encloser = encloser.parent();
    }
    return find_all(encloser.prefixed("*"));
  }

  void glue_for(const Name& target, std::vector<ResourceRecord>& out) const {
    for (const RRType t : {RRType::A, RRType::AAAA}) {
      if (const RRset* s = find(target, t)) {
        for (const auto& rr : s->to_records()) out.push_back(rr);
      }
    }
  }

  void add_negative(LookupResult& out) const {
    const RRset* soa = find(origin_, RRType::SOA);
    if (soa == nullptr) return;
    const auto& rd = std::get<dns::SoaRdata>(soa->rdatas.front());
    for (auto rr : soa->to_records()) {
      rr.ttl = std::min<dns::Ttl>(rd.minimum, soa->ttl);
      out.authorities.push_back(std::move(rr));
    }
  }

  [[nodiscard]] LookupResult lookup(const dns::Question& q) const {
    LookupResult out;
    if ((q.qclass != RRClass::IN && q.qclass != RRClass::ANY) ||
        !q.qname.is_subdomain_of(origin_)) {
      out.rcode = dns::Rcode::Refused;
      return out;
    }
    out.authoritative = true;
    Name qname = q.qname;
    const auto synthesize = [&](const RRset& set) {
      for (auto rr : set.to_records()) {
        rr.name = qname;
        out.answers.push_back(std::move(rr));
      }
    };
    for (int chain = 0; chain <= kMaxCnameChain; ++chain) {
      if (const RRset* cut = find_delegation(qname)) {
        out.disposition = Disposition::Referral;
        out.authoritative = false;
        for (const auto& rr : cut->to_records()) {
          out.authorities.push_back(rr);
        }
        for (const auto& rd : cut->rdatas) {
          glue_for(std::get<dns::NsRdata>(rd).nsdname, out.additionals);
        }
        return out;
      }
      if (const auto* sets = find_all(qname)) {
        const RRset* cname = find(qname, RRType::CNAME);
        if (cname != nullptr && q.qtype != RRType::CNAME &&
            q.qtype != RRType::ANY) {
          for (const auto& rr : cname->to_records()) {
            out.answers.push_back(rr);
          }
          const auto& target =
              std::get<dns::CnameRdata>(cname->rdatas.front()).target;
          if (target.is_subdomain_of(origin_)) {
            qname = target;
            continue;
          }
          out.disposition = Disposition::Answer;
          return out;
        }
        bool answered = false;
        for (const auto& s : *sets) {
          if (s.type != q.qtype && q.qtype != RRType::ANY) continue;
          for (const auto& rr : s.to_records()) out.answers.push_back(rr);
          if (q.qtype == RRType::NS) {
            for (const auto& rd : s.rdatas) {
              glue_for(std::get<dns::NsRdata>(rd).nsdname, out.additionals);
            }
          }
          answered = true;
        }
        out.disposition = answered ? Disposition::Answer : Disposition::NoData;
        if (!answered) add_negative(out);
        return out;
      }
      if (name_exists(qname)) {
        out.disposition = Disposition::NoData;
        add_negative(out);
        return out;
      }
      const RRset* wc = nullptr;
      const RRset* wc_cname = nullptr;
      if (const auto* wild = find_wildcard(qname)) {
        for (const auto& s : *wild) {
          if (s.type == q.qtype) wc = &s;
          if (s.type == RRType::CNAME) wc_cname = &s;
        }
      }
      if (wc != nullptr) {
        synthesize(*wc);
        out.disposition = Disposition::Wildcard;
        return out;
      }
      if (wc_cname != nullptr && q.qtype != RRType::CNAME) {
        synthesize(*wc_cname);
        const auto& target =
            std::get<dns::CnameRdata>(wc_cname->rdatas.front()).target;
        if (target.is_subdomain_of(origin_)) {
          qname = target;
          continue;
        }
        out.disposition = Disposition::Wildcard;
        return out;
      }
      out.rcode = dns::Rcode::NxDomain;
      out.disposition = Disposition::NxDomain;
      add_negative(out);
      return out;
    }
    out.disposition = Disposition::Answer;
    return out;
  }

 private:
  struct Canonical {
    bool operator()(const Name& a, const Name& b) const {
      return a.compare(b) < 0;
    }
  };

  Name origin_;
  std::map<Name, std::vector<RRset>, Canonical> names_;
};

// Case-sensitive renderings, so a difference in spelling shows too.
std::string render(const RRset* set) {
  if (set == nullptr) return "-";
  std::string out;
  for (const auto& rr : set->to_records()) out += rr.to_string() + "\n";
  return out;
}

std::string render(const std::vector<RRset>* sets) {
  if (sets == nullptr) return "-";
  std::string out;
  for (const auto& s : *sets) out += render(&s);
  return out;
}

std::string render(const LookupResult& r) {
  std::string out = "rcode=" + std::to_string(static_cast<int>(r.rcode)) +
                    " aa=" + std::to_string(r.authoritative) + " disp=" +
                    std::to_string(static_cast<int>(r.disposition)) + "\n";
  for (const auto* section : {&r.answers, &r.authorities, &r.additionals}) {
    for (const auto& rr : *section) out += rr.to_string() + "\n";
    out += "--\n";
  }
  return out;
}

Name scramble_case(const Name& name, stats::Rng& rng) {
  std::vector<std::string> labels{name.labels().begin(),
                                  name.labels().end()};
  for (auto& label : labels) {
    for (auto& c : label) {
      if (rng.chance(0.3)) {
        c = static_cast<char>(c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c);
      }
    }
  }
  return Name::from_labels(std::move(labels));
}

struct Generated {
  std::vector<ResourceRecord> records;
  std::vector<Name> queries;
};

Generated generate(std::uint64_t seed) {
  stats::Rng rng{seed};
  Generated g;
  const Name origin = Name::parse("dt.example");
  const char* kLabels[] = {"a", "b", "www", "mail", "x1", "deep", "ns"};
  const auto random_name = [&](const Name& under, std::size_t max_depth) {
    Name n = under;
    const std::size_t depth = 1 + rng.index(max_depth);
    for (std::size_t i = 0; i < depth; ++i) {
      n = n.prefixed(kLabels[rng.index(std::size(kLabels))]);
    }
    return n;
  };
  const auto add = [&](const Name& owner, dns::Ttl ttl, dns::Rdata rdata) {
    g.records.push_back(ResourceRecord{scramble_case(owner, rng),
                                       RRClass::IN, ttl, std::move(rdata)});
  };

  dns::SoaRdata soa;
  soa.mname = origin.prefixed("ns1");
  soa.rname = origin.prefixed("hostmaster");
  soa.serial = static_cast<std::uint32_t>(seed);
  soa.minimum = 30 + static_cast<dns::Ttl>(rng.index(600));
  add(origin, 60 + static_cast<dns::Ttl>(rng.index(3600)), soa);
  add(origin, 3600, dns::NsRdata{origin.prefixed("ns1")});
  add(origin.prefixed("ns1"), 3600, dns::ARdata{net::IpAddress{1}});

  std::vector<Name> owners{origin};
  // Plain data, deep enough for empty non-terminals and 10+ label names.
  for (std::size_t i = 0, n = 20 + rng.index(40); i < n; ++i) {
    const Name& base = owners[rng.index(owners.size())];
    const Name owner = random_name(base, rng.chance(0.2) ? 10 : 3);
    const auto v = static_cast<std::uint32_t>(rng.index(4));
    const Name& exchange = owners[rng.index(owners.size())];
    switch (rng.index(4)) {
      case 0:
        add(owner, 300, dns::ARdata{net::IpAddress{v}});
        break;
      case 1:
        add(owner, 300, dns::AaaaRdata{net::IpAddress{v}.to_mapped_ipv6()});
        break;
      case 2:
        add(owner, 120, dns::TxtRdata{{"t" + std::to_string(v)}});
        break;
      default:
        add(owner, 300, dns::MxRdata{10, exchange});
        break;
    }
    owners.push_back(owner);
  }
  // Delegations, some nested below others, with glue below the cut.
  for (std::size_t i = 0, n = rng.index(5); i < n; ++i) {
    const Name cut = random_name(owners[rng.index(owners.size())], 2);
    const Name host = cut.prefixed("ns");
    add(cut, 3600, dns::NsRdata{host});
    add(cut, 3600, dns::NsRdata{Name::parse("ns.elsewhere.org")});
    add(host, 3600, dns::ARdata{net::IpAddress{200}});
    if (rng.chance(0.5)) {
      add(cut.prefixed("inner"), 3600, dns::NsRdata{host});
    }
    owners.push_back(cut);
    owners.push_back(host);
  }
  // Wildcards at several depths, some of them CNAMEs into other
  // wildcards or out of the zone.
  for (std::size_t i = 0, n = 1 + rng.index(5); i < n; ++i) {
    const Name& base = owners[rng.index(owners.size())];
    const Name owner = base.prefixed("*");
    if (rng.chance(0.35)) {
      const Name target =
          rng.chance(0.2) ? Name::parse("away.elsewhere.org")
                          : owners[rng.index(owners.size())].prefixed(
                                "w" + std::to_string(rng.index(3)));
      add(owner, 60, dns::CnameRdata{target});
    } else {
      add(owner, 60, dns::TxtRdata{{"wild" + std::to_string(i)}});
      if (rng.chance(0.3)) add(owner, 60, dns::ARdata{net::IpAddress{9}});
    }
    owners.push_back(owner);
  }
  // Plain CNAME chains (loops included), and a duplicated record.
  for (std::size_t i = 0, n = rng.index(6); i < n; ++i) {
    const Name owner = origin.prefixed("c" + std::to_string(i));
    const Name target =
        rng.chance(0.5) ? owners[rng.index(owners.size())]
                        : origin.prefixed("c" + std::to_string(rng.index(n)));
    add(owner, 60, dns::CnameRdata{target});
    owners.push_back(owner);
  }
  g.records.push_back(g.records[rng.index(g.records.size())]);

  // Queries: every owner and ancestor, names just below them, deep names
  // under them, and names outside the zone — all with scrambled case.
  for (const auto& owner : owners) {
    for (Name n = owner; n.label_count() >= origin.label_count();
         n = n.parent()) {
      g.queries.push_back(n);
      if (n == origin) break;
    }
    g.queries.push_back(owner.prefixed("zz"));
    g.queries.push_back(random_name(owner, 12));
  }
  g.queries.push_back(Name::parse("www.elsewhere.org"));
  g.queries.push_back(Name::parse("example"));
  for (auto& q : g.queries) q = scramble_case(q, rng);
  return g;
}

constexpr RRType kTypes[] = {RRType::A,   RRType::AAAA,  RRType::TXT,
                             RRType::MX,  RRType::NS,    RRType::SOA,
                             RRType::CNAME, RRType::ANY};

void expect_same_answers(const Zone& zone, const AncestorWalkOracle& oracle,
                         const std::vector<Name>& queries) {
  const QueryEngine engine{zone};
  for (const auto& qname : queries) {
    for (const RRType t : kTypes) {
      const dns::Question q{qname, t, RRClass::IN};
      ASSERT_EQ(render(engine.lookup(q)), render(oracle.lookup(q)))
          << qname.to_string() << " " << dns::to_string(t);
    }
  }
}

class ZoneOracle : public ::testing::TestWithParam<int> {};

TEST_P(ZoneOracle, MatchAgreesWithAncestorWalk) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  Zone zone{Name::parse("dt.example")};
  AncestorWalkOracle oracle{zone.origin()};
  for (const auto& rr : g.records) {
    zone.add(rr);
    oracle.add(rr);
  }
  for (const auto& qname : g.queries) {
    const auto m = zone.match(qname);
    if (!qname.is_subdomain_of(zone.origin())) {
      EXPECT_TRUE(m.cut == nullptr && !m.exists && m.exact == nullptr &&
                  m.wildcard == nullptr)
          << qname.to_string();
      continue;
    }
    const RRset* cut = oracle.find_delegation(qname);
    ASSERT_EQ(render(m.cut), render(cut)) << qname.to_string();
    ASSERT_EQ(render(m.exact), render(oracle.find_all(qname)))
        << qname.to_string();
    if (cut != nullptr) continue;  // the rest is cut away
    const bool exists = oracle.name_exists(qname);
    ASSERT_EQ(m.exists, exists) << qname.to_string();
    ASSERT_EQ(render(m.wildcard),
              render(exists ? nullptr : oracle.find_wildcard(qname)))
        << qname.to_string();
  }
}

TEST_P(ZoneOracle, LookupAgreesWithAncestorWalk) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  Zone zone{Name::parse("dt.example")};
  AncestorWalkOracle oracle{zone.origin()};
  for (const auto& rr : g.records) {
    zone.add(rr);
    oracle.add(rr);
  }
  EXPECT_EQ(zone.record_count(), zone.all_records().size());
  expect_same_answers(zone, oracle, g.queries);
}

TEST_P(ZoneOracle, CopiedMovedAndReplacedZonesOutliveTheirSource) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  AncestorWalkOracle oracle{Name::parse("dt.example")};
  auto source = std::make_unique<Zone>(oracle.origin());
  for (const auto& rr : g.records) {
    source->add(rr);
    oracle.add(rr);
  }
  const Zone copied{*source};
  Zone assigned{Name::parse("other.example")};
  assigned = *source;
  auto spare = std::make_unique<Zone>(*source);
  const Zone moved{std::move(*spare)};
  Zone move_assigned{Name::parse("other.example")};
  move_assigned = Zone{*source};
  Responder responder{ResponderConfig{}};
  responder.add_zone(Zone{oracle.origin()});
  EXPECT_TRUE(responder.replace_zone(Zone{*source}));
  source.reset();
  spare.reset();

  const Zone* zones[] = {&copied, &assigned, &moved, &move_assigned,
                        responder.zone_for(oracle.origin())};
  for (const Zone* z : zones) {
    ASSERT_NE(z, nullptr);
    expect_same_answers(*z, oracle, g.queries);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneOracle, ::testing::Range(1, 25));

// Shard replicas and anycast sites answer from one shared const Zone, so
// lookups must not write to it: four threads answer the same queries at
// once and must all agree with a serial run (TSan checks the reads).
TEST(ZoneConcurrentReads, FourThreadsAnswerFromOneSharedZone) {
  const auto g = generate(7);
  auto built = std::make_shared<Zone>(Name::parse("dt.example"));
  for (const auto& rr : g.records) built->add(rr);
  const std::shared_ptr<const Zone> zone = std::move(built);

  std::vector<std::string> expected;
  for (const auto& qname : g.queries) {
    for (const RRType t : kTypes) {
      expected.push_back(render(
          QueryEngine{*zone}.lookup(dns::Question{qname, t, RRClass::IN})));
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const QueryEngine engine{*zone};
      for (int round = 0; round < 3; ++round) {
        // Each thread starts at its own offset so reads interleave.
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t) * 97) %
                                expected.size();
          const dns::Question q{g.queries[k / std::size(kTypes)],
                                kTypes[k % std::size(kTypes)], RRClass::IN};
          if (render(engine.lookup(q)) != expected[k]) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace recwild::authns
