#include "anycast/service.hpp"

#include <gtest/gtest.h>

#include "dnscore/codec.hpp"

namespace recwild::anycast {
namespace {

constexpr const char* kZoneText = R"(
@ IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* 5 IN TXT "anycast"
)";

struct Fixture {
  net::Simulation sim{5};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  Fixture() {
    params.loss_rate = 0;
    net_ = std::make_unique<net::Network>(sim, params);
  }
};

TEST(AnycastService, CreateBuildsSites) {
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "k-root",
                                    f.net_->allocate_address(),
                                    {"AMS", "NRT", "IAD"});
  EXPECT_EQ(svc.site_count(), 3u);
  EXPECT_TRUE(svc.is_anycast());
  EXPECT_EQ(svc.sites()[0].code, "AMS");
  EXPECT_EQ(svc.sites()[1].server->identity(), "k-root.NRT");
}

TEST(AnycastService, UnknownSiteCodeThrows) {
  Fixture f;
  EXPECT_THROW(AnycastService::create(*f.net_, "x",
                                      f.net_->allocate_address(), {"???"}),
               std::invalid_argument);
}

TEST(AnycastService, SingleSiteIsUnicast) {
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "uni",
                                    f.net_->allocate_address(), {"AMS"});
  EXPECT_FALSE(svc.is_anycast());
}

TEST(AnycastService, CatchmentIsNearestSite) {
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "root",
                                    f.net_->allocate_address(),
                                    {"FRA", "SYD", "IAD"});
  svc.add_zone(authns::Zone::from_text(dns::Name::parse("x.nl"), kZoneText));
  svc.start();
  const net::NodeId eu_client =
      f.net_->add_node("eu", net::find_location("AMS")->point);
  const net::NodeId au_client =
      f.net_->add_node("au", net::find_location("MEL")->point);
  const Site* eu_site = svc.catchment(eu_client);
  const Site* au_site = svc.catchment(au_client);
  ASSERT_NE(eu_site, nullptr);
  ASSERT_NE(au_site, nullptr);
  EXPECT_EQ(eu_site->code, "FRA");
  EXPECT_EQ(au_site->code, "SYD");
}

TEST(AnycastService, SitesAnswerWithSharedAddress) {
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "root",
                                    f.net_->allocate_address(),
                                    {"FRA", "SYD"});
  svc.add_zone(authns::Zone::from_text(dns::Name::parse("x.nl"), kZoneText));
  svc.start();

  const net::NodeId client =
      f.net_->add_node("client", net::find_location("AMS")->point);
  const net::Endpoint cep{f.net_->allocate_address(), 4000};
  std::vector<dns::Message> answers;
  f.net_->listen(client, cep, [&](const net::Datagram& d, net::NodeId) {
    EXPECT_EQ(d.src.addr, svc.address());  // reply from the shared address
    answers.push_back(dns::decode_message(d.payload));
  });
  f.net_->send(client, cep, net::Endpoint{svc.address(), net::kDnsPort},
               dns::encode_message(dns::Message::make_query(
                   1, dns::Name::parse("q.x.nl"), dns::RRType::TXT)));
  f.sim.run();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(answers[0].answers.at(0).rdata)
                .strings[0],
            "anycast");
  // Only the European site logged the query.
  EXPECT_EQ(svc.sites()[0].server->log().total(), 1u);
  EXPECT_EQ(svc.sites()[1].server->log().total(), 0u);
  EXPECT_EQ(svc.total_queries(), 1u);
}

TEST(AnycastService, SiteFailureLeavesCatchmentDark) {
  // Anycast failure mode: a down site keeps attracting its catchment (BGP
  // still routes there) but answers nothing — queries black-hole.
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "root",
                                    f.net_->allocate_address(),
                                    {"FRA", "SYD"});
  svc.add_zone(authns::Zone::from_text(dns::Name::parse("x.nl"), kZoneText));
  svc.start();
  svc.sites()[0].server->set_down(true);  // FRA dark

  const net::NodeId client =
      f.net_->add_node("client", net::find_location("AMS")->point);
  const net::Endpoint cep{f.net_->allocate_address(), 4000};
  int replies = 0;
  f.net_->listen(client, cep,
                 [&](const net::Datagram&, net::NodeId) { ++replies; });
  f.net_->send(client, cep, net::Endpoint{svc.address(), net::kDnsPort},
               dns::encode_message(dns::Message::make_query(
                   2, dns::Name::parse("q.x.nl"), dns::RRType::TXT)));
  f.sim.run();
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(svc.sites()[0].server->queries_received(), 1u);
  svc.sites()[0].server->set_down(false);
}

TEST(AnycastService, StopUnbindsAllSites) {
  Fixture f;
  auto svc = AnycastService::create(*f.net_, "root",
                                    f.net_->allocate_address(),
                                    {"FRA", "SYD"});
  svc.add_zone(authns::Zone::from_text(dns::Name::parse("x.nl"), kZoneText));
  svc.start();
  svc.stop();
  const net::NodeId client =
      f.net_->add_node("client", net::find_location("AMS")->point);
  EXPECT_FALSE(f.net_->send(client, net::Endpoint{},
                            net::Endpoint{svc.address(), net::kDnsPort},
                            {}));
}

}  // namespace
}  // namespace recwild::anycast
