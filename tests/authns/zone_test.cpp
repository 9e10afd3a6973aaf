#include "authns/zone.hpp"

#include <gtest/gtest.h>

namespace recwild::authns {
namespace {

constexpr const char* kZoneText = R"(
$TTL 3600
@       IN SOA ns1 hostmaster 2017041201 14400 3600 1209600 300
@       IN NS  ns1
@       IN NS  ns2
ns1     IN A   192.0.2.1
ns2     IN A   192.0.2.2
www     IN A   192.0.2.80
www     IN A   192.0.2.81
alias   IN CNAME www
*.wild  IN TXT "caught"
child   IN NS  ns1.child
ns1.child IN A 192.0.2.100
a.b.c   IN A   192.0.2.9
)";

Zone make_zone() {
  return Zone::from_text(dns::Name::parse("example.nl"), kZoneText);
}

TEST(Zone, LoadsFromMasterText) {
  const Zone z = make_zone();
  EXPECT_EQ(z.origin(), dns::Name::parse("example.nl"));
  EXPECT_GT(z.rrset_count(), 5u);
  EXPECT_EQ(z.record_count(), 12u);
}

TEST(Zone, FindExactRRset) {
  const Zone z = make_zone();
  const auto* www = z.find(dns::Name::parse("www.example.nl"), dns::RRType::A);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->size(), 2u);
  EXPECT_EQ(www->ttl, 3600u);
}

TEST(Zone, FindMissesWrongType) {
  const Zone z = make_zone();
  EXPECT_EQ(z.find(dns::Name::parse("www.example.nl"), dns::RRType::TXT),
            nullptr);
  EXPECT_EQ(z.find(dns::Name::parse("nope.example.nl"), dns::RRType::A),
            nullptr);
}

TEST(Zone, FindAllReturnsEverythingAtName) {
  const Zone z = make_zone();
  const auto* apex = z.find_all(z.origin());
  ASSERT_NE(apex, nullptr);
  EXPECT_EQ(apex->size(), 2u);  // SOA + NS
}

TEST(Zone, SoaAccessors) {
  const Zone z = make_zone();
  const auto soa = z.soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(soa->serial, 2017041201u);
  EXPECT_EQ(z.negative_ttl(), 300u);
}

TEST(Zone, NegativeTtlClampsToSoaRecordTtl) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  soa.minimum = 9999;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  EXPECT_EQ(z.negative_ttl(), 60u);
}

TEST(Zone, ApexNs) {
  const Zone z = make_zone();
  const auto* ns = z.apex_ns();
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->size(), 2u);
}

TEST(Zone, RejectsOutOfZoneRecord) {
  Zone z{dns::Name::parse("example.nl")};
  EXPECT_THROW(
      z.add(dns::ResourceRecord{dns::Name::parse("other.org"),
                                dns::RRClass::IN, 60,
                                dns::ARdata{net::IpAddress{1}}}),
      std::invalid_argument);
}

TEST(Zone, RejectsClassMismatch) {
  Zone z{dns::Name::parse("example.nl")};
  EXPECT_THROW(
      z.add(dns::ResourceRecord{z.origin(), dns::RRClass::CH, 60,
                                dns::TxtRdata{{"x"}}}),
      std::invalid_argument);
}

TEST(Zone, NameExistsIncludesEmptyNonTerminals) {
  const Zone z = make_zone();
  const auto www = z.match(dns::Name::parse("www.example.nl"));
  EXPECT_TRUE(www.exists);
  ASSERT_NE(www.exact, nullptr);
  EXPECT_EQ(www.exact->size(), 1u);
  // b.c.example.nl has no records but a.b.c.example.nl exists below it.
  for (const char* ent : {"b.c.example.nl", "C.Example.NL"}) {
    const auto m = z.match(dns::Name::parse(ent));
    EXPECT_TRUE(m.exists) << ent;
    EXPECT_EQ(m.exact, nullptr) << ent;
  }
  EXPECT_FALSE(z.match(dns::Name::parse("zzz.example.nl")).exists);
  EXPECT_FALSE(z.match(dns::Name::parse("www.other.org")).exists);
}

TEST(Zone, FindDelegationBelowApex) {
  const Zone z = make_zone();
  const auto* cut = z.match(dns::Name::parse("deep.child.example.nl")).cut;
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->name, dns::Name::parse("child.example.nl"));
  // The delegation point itself is also under the cut, and glue below the
  // cut is still reachable for referrals.
  EXPECT_NE(z.match(dns::Name::parse("child.example.nl")).cut, nullptr);
  EXPECT_NE(z.find(dns::Name::parse("ns1.child.example.nl"), dns::RRType::A),
            nullptr);
}

TEST(Zone, ApexNsIsNotADelegation) {
  const Zone z = make_zone();
  EXPECT_EQ(z.match(dns::Name::parse("www.example.nl")).cut, nullptr);
  const auto apex = z.match(z.origin());
  EXPECT_EQ(apex.cut, nullptr);
  EXPECT_TRUE(apex.exists);
}

TEST(Zone, WildcardMatchesUncoveredNames) {
  const Zone z = make_zone();
  const auto m = z.match(dns::Name::parse("anything.wild.example.nl"));
  EXPECT_FALSE(m.exists);
  ASSERT_NE(m.wildcard, nullptr);
  ASSERT_EQ(m.wildcard->size(), 1u);
  EXPECT_EQ(m.wildcard->front().type, dns::RRType::TXT);
  // The closest encloser is wild.example.nl even several labels down.
  EXPECT_EQ(z.match(dns::Name::parse("a.b.c.d.wild.example.nl")).wildcard,
            m.wildcard);
}

TEST(Zone, WildcardDoesNotShadowExistingNames) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  z.add(dns::ResourceRecord{dns::Name::parse("*.x.nl"), dns::RRClass::IN, 5,
                            dns::TxtRdata{{"wild"}}});
  z.add(dns::ResourceRecord{dns::Name::parse("real.x.nl"), dns::RRClass::IN,
                            5, dns::ARdata{net::IpAddress{1}}});
  EXPECT_NE(z.match(dns::Name::parse("other.x.nl")).wildcard, nullptr);
  const auto real = z.match(dns::Name::parse("real.x.nl"));
  EXPECT_TRUE(real.exists);
  EXPECT_EQ(real.wildcard, nullptr);
}

TEST(Zone, WildcardWrongTypeGivesNull) {
  // The wildcard only offers its own types; the engine picks the qtype.
  const Zone z = make_zone();
  const auto m = z.match(dns::Name::parse("anything.wild.example.nl"));
  ASSERT_NE(m.wildcard, nullptr);
  for (const auto& s : *m.wildcard) EXPECT_NE(s.type, dns::RRType::A);
  // No wildcard at the apex: an unknown name directly below it has none.
  EXPECT_EQ(z.match(dns::Name::parse("nope.example.nl")).wildcard, nullptr);
}

TEST(Zone, GlueForReturnsAddresses) {
  const Zone z = make_zone();
  std::vector<dns::ResourceRecord> glue;
  z.glue_for(dns::Name::parse("ns1.example.nl"), glue);
  ASSERT_EQ(glue.size(), 1u);
  EXPECT_EQ(glue[0].type(), dns::RRType::A);
  z.glue_for(dns::Name::parse("nobody.example.nl"), glue);
  z.glue_for(dns::Name::parse("ns1.other.org"), glue);
  EXPECT_EQ(glue.size(), 1u);
}

TEST(Zone, ValidateAcceptsHealthyZone) {
  EXPECT_TRUE(make_zone().validate().empty());
}

TEST(Zone, ValidateFlagsMissingSoaAndNs) {
  Zone z{dns::Name::parse("x.nl")};
  const auto problems = z.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("SOA"), std::string::npos);
  EXPECT_NE(problems[1].find("NS"), std::string::npos);
}

TEST(Zone, ValidateFlagsCnameAndOtherData) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60,
                            dns::NsRdata{dns::Name::parse("ns.x.nl")}});
  z.add(dns::ResourceRecord{dns::Name::parse("bad.x.nl"), dns::RRClass::IN,
                            60, dns::CnameRdata{dns::Name::parse("a.x.nl")}});
  z.add(dns::ResourceRecord{dns::Name::parse("bad.x.nl"), dns::RRClass::IN,
                            60, dns::ARdata{net::IpAddress{1}}});
  const auto problems = z.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("CNAME"), std::string::npos);
}

TEST(Zone, OwnerNamesInCanonicalOrder) {
  const auto all = make_zone().all_records();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].name.compare(all[i].name), 0);
  }
}

TEST(Zone, MergesRecordsIntoRRsets) {
  Zone z{dns::Name::parse("x.nl")};
  z.add(dns::ResourceRecord{dns::Name::parse("h.x.nl"), dns::RRClass::IN,
                            100, dns::ARdata{net::IpAddress{1}}});
  z.add(dns::ResourceRecord{dns::Name::parse("h.x.nl"), dns::RRClass::IN,
                            50, dns::ARdata{net::IpAddress{2}}});
  const auto* set = z.find(dns::Name::parse("h.x.nl"), dns::RRType::A);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2u);
  EXPECT_EQ(set->ttl, 50u);  // min TTL wins
}

TEST(Zone, DropsExactDuplicateRecords) {
  Zone z{dns::Name::parse("x.nl")};
  const auto h = dns::Name::parse("h.x.nl");
  z.add(dns::ResourceRecord{h, dns::RRClass::IN, 100,
                            dns::ARdata{net::IpAddress{1}}});
  z.add(dns::ResourceRecord{dns::Name::parse("H.X.NL"), dns::RRClass::IN, 50,
                            dns::ARdata{net::IpAddress{1}}});
  z.add(dns::ResourceRecord{h, dns::RRClass::IN, 100,
                            dns::ARdata{net::IpAddress{2}}});
  const auto* set = z.find(h, dns::RRType::A);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2u);  // the repeated 1 is dropped
  EXPECT_EQ(set->ttl, 50u);    // but its lower TTL still counts
  EXPECT_EQ(z.record_count(), 2u);

  // A master file that lists a record twice answers it once.
  const Zone text = Zone::from_text(dns::Name::parse("example.nl"), R"(
@    IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@    IN NS  ns1
ns1  IN A   192.0.2.1
www  IN TXT "once"
www  IN TXT "once"
)");
  const auto* txt = text.find(dns::Name::parse("www.example.nl"),
                              dns::RRType::TXT);
  ASSERT_NE(txt, nullptr);
  EXPECT_EQ(txt->size(), 1u);
}

}  // namespace
}  // namespace recwild::authns
