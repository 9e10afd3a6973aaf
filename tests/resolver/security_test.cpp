// Resolver hardening: out-of-bailiwick records must never enter the cache
// (classic Kashpureff-style poisoning), and responses that don't match an
// outstanding query (wrong id, wrong source, wrong question) are dropped.
#include <gtest/gtest.h>

#include "authns/server.hpp"
#include "resolver/resolver.hpp"

namespace recwild::resolver {
namespace {

/// A malicious "authoritative": answers every query with a valid-looking
/// answer PLUS a poisoned additional record claiming an address for a
/// victim name far outside its zone.
class EvilServer {
 public:
  EvilServer(net::Network& network, net::NodeId node, net::Endpoint ep,
             dns::Name victim, net::IpAddress villain_addr)
      : network_(network),
        node_(node),
        ep_(ep),
        victim_(std::move(victim)),
        villain_addr_(villain_addr) {
    network_.listen(node_, ep_, [this](const net::Datagram& d, net::NodeId) {
      on_datagram(d);
    });
  }

 private:
  void on_datagram(const net::Datagram& dgram) {
    dns::Message query;
    try {
      query = dns::decode_message(dgram.payload);
    } catch (const dns::WireError&) {
      return;
    }
    if (query.header.qr || query.questions.empty()) return;
    dns::Message resp = dns::Message::make_response(query);
    resp.header.aa = true;
    resp.answers.push_back(
        dns::ResourceRecord{query.question().qname, dns::RRClass::IN, 5,
                            dns::TxtRdata{{"evil"}}});
    // The poison: "www.bank.nl is at MY address, cache it for a day".
    resp.additionals.push_back(dns::ResourceRecord{
        victim_, dns::RRClass::IN, 86400, dns::ARdata{villain_addr_}});
    // Also poisoned authority claiming the victim's zone.
    resp.authorities.push_back(dns::ResourceRecord{
        victim_.parent(), dns::RRClass::IN, 86400,
        dns::NsRdata{dns::Name::parse("ns.evil.test")}});
    network_.send(node_, ep_, dgram.src, dns::encode_message(resp));
  }

  net::Network& network_;
  net::NodeId node_;
  net::Endpoint ep_;
  dns::Name victim_;
  net::IpAddress villain_addr_;
};

TEST(Security, OutOfBailiwickRecordsNotCached) {
  net::Simulation sim{4242};
  net::LatencyParams lp;
  lp.loss_rate = 0;
  net::Network network{sim, lp};
  const auto loc = [](const char* c) {
    return net::find_location(c)->point;
  };

  // A legitimate root delegates "evil.test" to the attacker-controlled
  // authoritative. Records the attacker returns are only trustworthy
  // within its own bailiwick (evil.test) — NOT for www.bank.nl.
  const net::IpAddress root_addr = network.allocate_address();
  const net::IpAddress evil_addr = network.allocate_address();
  const net::IpAddress villain = network.allocate_address();
  const dns::Name victim = dns::Name::parse("www.bank.nl");

  authns::Zone root_zone{dns::Name{}};
  dns::SoaRdata soa;
  soa.minimum = 60;
  root_zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
  root_zone.add({dns::Name{}, dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
  root_zone.add({dns::Name::parse("a.root-servers.net"), dns::RRClass::IN,
                 86400, dns::ARdata{root_addr}});
  root_zone.add({dns::Name::parse("evil.test"), dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("ns.evil.test")}});
  root_zone.add({dns::Name::parse("ns.evil.test"), dns::RRClass::IN, 86400,
                 dns::ARdata{evil_addr}});
  authns::AuthServerConfig rcfg_auth;
  rcfg_auth.identity = "root";
  authns::AuthServer root_server{network,
                                 network.add_node("root", loc("IAD")),
                                 net::Endpoint{root_addr, net::kDnsPort},
                                 rcfg_auth};
  root_server.add_zone(std::move(root_zone));
  root_server.start();

  EvilServer evil{network, network.add_node("evil", loc("FRA")),
                  net::Endpoint{evil_addr, net::kDnsPort}, victim,
                  villain};

  ResolverConfig rc;
  rc.name = "victim-resolver";
  RecursiveResolver res{network, network.add_node("res", loc("AMS")),
                        network.allocate_address(), rc,
                        {{dns::Name::parse("a.root-servers.net"),
                          root_addr}},
                        stats::Rng{17}};
  res.start();

  bool got_answer = false;
  res.resolve(dns::Question{dns::Name::parse("x.evil.test"),
                            dns::RRType::TXT, dns::RRClass::IN},
              [&](const ResolveOutcome& out) {
                got_answer = out.rcode == dns::Rcode::NoError;
              });
  sim.run();
  EXPECT_TRUE(got_answer);  // the in-bailiwick answer is accepted...

  // ...but the poison must NOT be in the cache: the A record for the
  // victim and the NS claim for its zone were outside the queried zone.
  EXPECT_EQ(res.cache().find(victim, dns::RRType::A, sim.now()), nullptr);
  EXPECT_EQ(res.cache().find(victim.parent(), dns::RRType::NS, sim.now()),
            nullptr);
}

TEST(Security, MismatchedResponsesIgnored) {
  net::Simulation sim{777};
  net::LatencyParams lp;
  lp.loss_rate = 0;
  net::Network network{sim, lp};
  const auto loc = [](const char* c) {
    return net::find_location(c)->point;
  };

  // Real authoritative, slow-ish (far away).
  const net::IpAddress auth_addr = network.allocate_address();
  authns::Zone zone{dns::Name{}};
  dns::SoaRdata soa;
  soa.minimum = 60;
  zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
  zone.add({dns::Name{}, dns::RRClass::IN, 86400,
            dns::NsRdata{dns::Name::parse("ns.test")}});
  zone.add({dns::Name::parse("ns.test"), dns::RRClass::IN, 86400,
            dns::ARdata{auth_addr}});
  zone.add({dns::Name::parse("target.test"), dns::RRClass::IN, 300,
            dns::TxtRdata{{"legit"}}});
  authns::AuthServerConfig acfg;
  acfg.identity = "auth";
  authns::AuthServer auth{network, network.add_node("auth", loc("SYD")),
                          net::Endpoint{auth_addr, net::kDnsPort}, acfg};
  auth.add_zone(std::move(zone));
  auth.start();

  ResolverConfig rc;
  rc.name = "res";
  const net::IpAddress res_addr = network.allocate_address();
  RecursiveResolver res{network, network.add_node("res", loc("AMS")),
                        res_addr, rc,
                        {{dns::Name::parse("ns.test"), auth_addr}},
                        stats::Rng{18}};
  res.start();

  // An off-path attacker floods forged responses at the resolver's
  // upstream socket while the genuine query is in flight: wrong txids and
  // a wrong source address. None may be accepted.
  const net::NodeId attacker =
      network.add_node("attacker", loc("AMS"));  // nearby = wins the race
  const net::IpAddress spoof_src = network.allocate_address();
  const net::Endpoint attacker_ep{spoof_src, 1234};
  network.listen(attacker, attacker_ep,
                 [](const net::Datagram&, net::NodeId) {});

  std::string answer;
  res.resolve(dns::Question{dns::Name::parse("target.test"),
                            dns::RRType::TXT, dns::RRClass::IN},
              [&](const ResolveOutcome& out) {
                for (const auto& rr : out.answers) {
                  if (rr.type() == dns::RRType::TXT) {
                    answer = std::get<dns::TxtRdata>(rr.rdata)
                                 .strings.at(0);
                  }
                }
              });

  // Fire 200 forgeries immediately (they arrive long before SYD answers).
  for (std::uint16_t id = 0; id < 200; ++id) {
    dns::Message forged = dns::Message::make_query(
        id, dns::Name::parse("target.test"), dns::RRType::TXT);
    forged.header.qr = true;
    forged.answers.push_back(
        dns::ResourceRecord{dns::Name::parse("target.test"),
                            dns::RRClass::IN, 86400,
                            dns::TxtRdata{{"forged"}}});
    network.send(attacker, attacker_ep,
                 net::Endpoint{res_addr, 10'053},  // the upstream socket
                 dns::encode_message(forged));
  }
  sim.run();

  // 16-bit id space, 200 guesses, and the source address must also match:
  // the genuine answer must have won.
  EXPECT_EQ(answer, "legit");
  const CacheEntry* cached =
      res.cache().find(dns::Name::parse("target.test"), dns::RRType::TXT,
                       sim.now());
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(std::get<dns::TxtRdata>(cached->rrset.rdatas[0]).strings[0],
            "legit");
}

TEST(Security, LateResponseAfterTimeoutIgnored) {
  // A response arriving after its query timed out must not disturb a
  // later resolution (the outstanding entry is gone).
  net::Simulation sim{909};
  net::LatencyParams lp;
  lp.loss_rate = 0;
  net::Network network{sim, lp};
  const auto loc = [](const char* c) {
    return net::find_location(c)->point;
  };
  const net::IpAddress auth_addr = network.allocate_address();
  authns::Zone zone{dns::Name{}};
  dns::SoaRdata soa;
  soa.minimum = 60;
  zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
  zone.add({dns::Name{}, dns::RRClass::IN, 86400,
            dns::NsRdata{dns::Name::parse("ns.test")}});
  zone.add({dns::Name::parse("ns.test"), dns::RRClass::IN, 86400,
            dns::ARdata{auth_addr}});
  zone.add({dns::Name::parse("slow.test"), dns::RRClass::IN, 5,
            dns::TxtRdata{{"late"}}});
  authns::AuthServerConfig acfg;
  acfg.identity = "slowpoke";
  // Processing delay beyond the resolver's max timeout: every answer is
  // late.
  acfg.processing_delay = net::Duration::seconds(3);
  authns::AuthServer auth{network, network.add_node("auth", loc("FRA")),
                          net::Endpoint{auth_addr, net::kDnsPort}, acfg};
  auth.add_zone(std::move(zone));
  auth.start();

  ResolverConfig rc;
  rc.name = "res";
  rc.max_timeout = net::Duration::seconds(1);
  rc.max_upstream_queries = 3;
  RecursiveResolver res{network, network.add_node("res", loc("AMS")),
                        network.allocate_address(), rc,
                        {{dns::Name::parse("ns.test"), auth_addr}},
                        stats::Rng{19}};
  res.start();

  dns::Rcode rcode = dns::Rcode::NoError;
  res.resolve(dns::Question{dns::Name::parse("slow.test"),
                            dns::RRType::TXT, dns::RRClass::IN},
              [&](const ResolveOutcome& out) { rcode = out.rcode; });
  sim.run();
  EXPECT_EQ(rcode, dns::Rcode::ServFail);
  EXPECT_GE(res.upstream_timeouts(), 3u);
  // The late answers arrived and were dropped without crashing; the
  // record was NOT cached from a dead transaction.
  EXPECT_EQ(res.cache().find(dns::Name::parse("slow.test"), dns::RRType::TXT,
                             sim.now()),
            nullptr);
}


TEST(Security, ResponseFromWrongSourcePortIgnored) {
  net::Simulation sim{2026};
  net::LatencyParams lp;
  lp.loss_rate = 0;
  net::Network network{sim, lp};
  const auto loc = [](const char* c) {
    return net::find_location(c)->point;
  };

  // An off-path attacker who shares the server's address (NAT sibling,
  // compromised unprivileged process on the server host) can forge the
  // txid and the question by sniffing NEITHER — here it gets both for
  // free by echoing the real query. The ONLY thing it cannot fake from an
  // unprivileged socket is the source port 53 the query was sent to, so
  // response matching must require it.
  const net::IpAddress auth_addr = network.allocate_address();
  const net::IpAddress res_addr = network.allocate_address();
  const net::NodeId auth_node = network.add_node("auth", loc("FRA"));
  int queries_seen = 0;
  network.listen(
      auth_node, net::Endpoint{auth_addr, net::kDnsPort},
      [&](const net::Datagram& d, net::NodeId) {
        dns::Message q;
        try {
          q = dns::decode_message(d.payload);
        } catch (const dns::WireError&) {
          return;
        }
        if (q.header.qr || q.questions.empty()) return;
        ++queries_seen;
        dns::Message resp = dns::Message::make_response(q);
        resp.header.aa = true;
        resp.answers.push_back(dns::ResourceRecord{
            q.question().qname, dns::RRClass::IN, 300,
            dns::TxtRdata{{queries_seen == 1 ? "forged" : "legit"}}});
        if (queries_seen == 1) {
          // Perfect forgery — right address, right txid, right question —
          // except the source port: 9999 instead of the 53 we queried.
          network.send(auth_node, net::Endpoint{auth_addr, 9999}, d.src,
                       dns::encode_message(resp));
        } else {
          // The retransmit gets a genuine answer from port 53.
          network.send(auth_node, d.dst, d.src, dns::encode_message(resp));
        }
      });

  ResolverConfig rc;
  rc.name = "res";
  RecursiveResolver res{network, network.add_node("res", loc("AMS")),
                        res_addr, rc,
                        {{dns::Name::parse("ns.test"), auth_addr}},
                        stats::Rng{20}};
  res.start();

  std::string answer;
  res.resolve(dns::Question{dns::Name::parse("target.test"),
                            dns::RRType::TXT, dns::RRClass::IN},
              [&](const ResolveOutcome& out) {
                for (const auto& rr : out.answers) {
                  if (rr.type() == dns::RRType::TXT) {
                    answer =
                        std::get<dns::TxtRdata>(rr.rdata).strings.at(0);
                  }
                }
              });
  sim.run();

  // The wrong-port forgery was ignored; the transaction survived to its
  // timeout and completed via the retransmit.
  EXPECT_EQ(answer, "legit");
  EXPECT_EQ(queries_seen, 2);
  EXPECT_GE(res.upstream_timeouts(), 1u);
}

}  // namespace
}  // namespace recwild::resolver
