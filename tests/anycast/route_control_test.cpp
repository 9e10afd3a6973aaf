// Dynamic anycast catchments: BGP-withdrawal timelines (Sinking loss, then
// transparent failover), graceful drains, time-varying catchment queries,
// the lowest-site-code tie-break and load-aware steering.
#include "anycast/route_control.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "anycast/service.hpp"
#include "dnscore/codec.hpp"
#include "obs/names.hpp"

namespace recwild::anycast {
namespace {

constexpr const char* kZoneText = R"(
@ IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* 5 IN TXT "anycast"
)";

net::SimTime at_s(double s) {
  return net::SimTime::origin() + net::Duration::seconds(s);
}

struct Fixture {
  net::Simulation sim{7};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  Fixture() {
    params.loss_rate = 0;
    net_ = std::make_unique<net::Network>(sim, params);
  }
};

/// A two-site (FRA, SYD) service, a client near FRA, and a harness that
/// fires one query at a chosen sim time and records which site answered.
struct Harness : Fixture {
  AnycastService svc;
  net::NodeId client;
  net::Endpoint client_ep;
  std::vector<std::uint16_t> answered_ids;

  Harness()
      : svc(AnycastService::create(*net_, "root", net_->allocate_address(),
                                   {"FRA", "SYD"})) {
    svc.add_zone(authns::Zone::from_text(dns::Name::parse("x.nl"),
                                         kZoneText));
    svc.start();
    client = net_->add_node("client", net::find_location("AMS")->point);
    client_ep = net::Endpoint{net_->allocate_address(), 4000};
    net_->listen(client, client_ep, [this](const net::Datagram& d,
                                           net::NodeId) {
      answered_ids.push_back(dns::decode_message(d.payload).header.id);
    });
  }

  void query_at(net::SimTime at, std::uint16_t id) {
    sim.at(at, [this, id] {
      net_->send(client, client_ep,
                 net::Endpoint{svc.address(), net::kDnsPort},
                 dns::encode_message(dns::Message::make_query(
                     id, dns::Name::parse("q.x.nl"), dns::RRType::TXT)));
    });
    sim.run();
  }

  [[nodiscard]] std::uint64_t fra_queries() const {
    return svc.sites()[0].server->queries_received();
  }
  [[nodiscard]] std::uint64_t syd_queries() const {
    return svc.sites()[1].server->queries_received();
  }
};

TEST(RouteControl, WithdrawalTimelineConvergesThenFailsOver) {
  Harness h;
  h.sim.trace().set_enabled(true);
  // FRA withdraws at t=10s, the client's routers converge at t=14s, and
  // FRA re-announces at t=30s.
  h.svc.route_control().add_outage(h.svc.sites()[0].node, "FRA",
                                   OutageWindow{at_s(10), at_s(14),
                                                at_s(30)});

  h.query_at(at_s(1), 1);   // before: FRA answers
  h.query_at(at_s(12), 2);  // Sinking: lost in the dead path
  h.query_at(at_s(20), 3);  // Withdrawn: SYD answers (failover)
  h.query_at(at_s(40), 4);  // re-announced: back to FRA

  ASSERT_EQ(h.answered_ids.size(), 3u);
  EXPECT_EQ(h.answered_ids[0], 1);
  EXPECT_EQ(h.answered_ids[1], 3);
  EXPECT_EQ(h.answered_ids[2], 4);
  EXPECT_EQ(h.fra_queries(), 2u);  // the sunk packet never reached FRA
  EXPECT_EQ(h.syd_queries(), 1u);

  const auto& metrics = h.sim.metrics();
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_value(obs::names::kAnycastLostInConvergence), 1u);
  // Two shifts on this flow: FRA>SYD at t=20, SYD>FRA at t=40.
  EXPECT_EQ(snap.counter_value(obs::names::kAnycastCatchmentShift), 2u);

  // The FRA>SYD shift happened 10s after the withdrawal — recorded in the
  // failover histogram and on the catchment_shift trace row.
  bool found_failover_row = false;
  for (const auto& hist : snap.histograms) {
    if (hist.name == obs::names::kAnycastFailoverLatencyMs) {
      EXPECT_EQ(hist.total, 1u);
      found_failover_row = true;
    }
  }
  EXPECT_TRUE(found_failover_row);
  bool found_shift_trace = false;
  for (const auto& e : h.sim.trace().events()) {
    if (e.kind != obs::TraceKind::CatchmentShift) continue;
    if (e.detail == "FRA>SYD") {
      EXPECT_DOUBLE_EQ(e.value, 10'000.0);  // ms since withdrawal
      found_shift_trace = true;
    }
  }
  EXPECT_TRUE(found_shift_trace);
}

TEST(RouteControl, CatchmentIsTimeVarying) {
  Harness h;
  h.svc.route_control().add_outage(h.svc.sites()[0].node, "FRA",
                                   OutageWindow{at_s(10), at_s(14),
                                                at_s(30)});
  // Pure function of (node, now): usable for past and future instants.
  EXPECT_EQ(h.svc.catchment(h.client, at_s(0))->code, "FRA");
  // During convergence the client's routers still steer to FRA.
  EXPECT_EQ(h.svc.catchment(h.client, at_s(12))->code, "FRA");
  EXPECT_EQ(h.svc.catchment(h.client, at_s(20))->code, "SYD");
  EXPECT_EQ(h.svc.catchment(h.client, at_s(35))->code, "FRA");

  EXPECT_EQ(h.svc.route_control().site_state(h.svc.sites()[0].node,
                                             at_s(12)),
            net::RouteState::Sinking);
  EXPECT_EQ(h.svc.route_control().site_state(h.svc.sites()[0].node,
                                             at_s(20)),
            net::RouteState::Withdrawn);
  h.svc.route_control().clear_outages();
  EXPECT_EQ(h.svc.route_control().site_state(h.svc.sites()[0].node,
                                             at_s(20)),
            net::RouteState::Announced);
}

TEST(RouteControl, DrainSteersWithoutLoss) {
  Harness h;
  h.svc.drain(0, at_s(10), at_s(30));  // maintenance window on FRA

  h.query_at(at_s(12), 1);  // during the drain: SYD answers immediately
  h.query_at(at_s(40), 2);  // after: FRA rejoined

  ASSERT_EQ(h.answered_ids.size(), 2u);
  EXPECT_EQ(h.syd_queries(), 1u);
  EXPECT_EQ(h.fra_queries(), 1u);
  const auto snap = h.sim.metrics().snapshot();
  // A drain is announced ahead of the window: no convergence-loss phase.
  EXPECT_EQ(snap.counter_value(obs::names::kAnycastLostInConvergence), 0u);
  EXPECT_EQ(snap.counter_value(obs::names::kAnycastSiteDrained), 1u);
}

TEST(RouteControl, DrainRejectsEmptyWindow) {
  Harness h;
  EXPECT_THROW(h.svc.drain(0, at_s(10), at_s(10)), std::invalid_argument);
  EXPECT_THROW(h.svc.drain(9, at_s(10), at_s(20)), std::out_of_range);
}

TEST(RouteControl, CatchmentTieBreaksOnLowestSiteCode) {
  // Two sites at the same point (bit-identical RTT): the catchment must
  // pin deterministically to the lowest site code, whatever the site
  // order.
  Fixture f;
  const auto loc = net::find_location("FRA")->point;
  std::vector<SitePlan> plans;
  plans.push_back({"BBB", loc, f.net_->add_node("svc@BBB", loc)});
  plans.push_back({"AAA", loc, f.net_->add_node("svc@AAA", loc)});
  auto svc = AnycastService::create_at(*f.net_, "svc",
                                       f.net_->allocate_address(), plans);
  const net::NodeId client =
      f.net_->add_node("client", net::find_location("AMS")->point);
  ASSERT_NE(svc.catchment(client, at_s(0)), nullptr);
  EXPECT_EQ(svc.catchment(client, at_s(0))->code, "AAA");
}

TEST(RouteControl, LoadCapShedsTheHotSiteOnly) {
  Fixture f;
  const net::IpAddress addr = f.net_->allocate_address();
  const net::NodeId hot = f.net_->add_node("hot", net::find_location("FRA")->point);
  const net::NodeId cold =
      f.net_->add_node("cold", net::find_location("IAD")->point);
  const net::NodeId from =
      f.net_->add_node("from", net::find_location("AMS")->point);
  RouteControl rc{*f.net_, addr, "svc"};
  rc.set_load_cap(0.6);
  // Feed an uneven selection history: 30 picks of `hot`, 2 of `cold`.
  for (int i = 0; i < 30; ++i) rc.on_selected(addr, from, hot, at_s(i));
  for (int i = 0; i < 2; ++i) rc.on_selected(addr, from, cold, at_s(40 + i));
  // Over the 60% cap with a less-loaded announced alternative: shed.
  EXPECT_EQ(rc.route_state(addr, hot, at_s(50)),
            net::RouteState::Withdrawn);
  // The cold site must never be shed — some site always stays announced.
  EXPECT_EQ(rc.route_state(addr, cold, at_s(50)),
            net::RouteState::Announced);
  // Other addresses are not managed by this control.
  EXPECT_EQ(rc.route_state(f.net_->allocate_address(), hot, at_s(50)),
            net::RouteState::Announced);
}

TEST(RouteControl, SetSiteDownStaysBlackholed) {
  // A crashed server whose route stays announced never leaves the
  // catchment, so its queries black-hole forever (what the withdraw path
  // is the engineered alternative to).
  Harness h;
  h.svc.sites()[0].server->set_down(true);
  h.query_at(at_s(5), 1);
  EXPECT_TRUE(h.answered_ids.empty());
  EXPECT_EQ(h.fra_queries(), 1u);  // still attracted the query
}

}  // namespace
}  // namespace recwild::anycast
