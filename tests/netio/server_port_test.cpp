// Ephemeral-port isolation: a netio::Server started on port 0 must bind a
// port no other socket holds. A UDP port another SO_REUSEPORT socket of the
// same user holds is accepted by the kernel, which then splits incoming
// datagrams between the two; a port a TCP socket holds makes the server's
// TCP bind fail. The tests hold many sockets on 127.0.0.2, so they cannot
// disturb servers of other tests on 127.0.0.1, and start a server many
// times.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <set>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "authns/responder.hpp"
#include "netio/fd.hpp"
#include "netio/server.hpp"

namespace recwild::netio {
namespace {

constexpr const char* kAddress = "127.0.0.2";
constexpr int kHeldSockets = 512;
constexpr int kStarts = 400;

/// Binds a socket of `type` to kAddress:0, with the server's reuse flags
/// when `reuse`, and keeps it in `held`. Returns its port, or 0 when the
/// socket could not be made.
std::uint16_t hold_port(std::vector<UniqueFd>& held, int type, bool reuse) {
  UniqueFd fd{::socket(AF_INET, type | SOCK_CLOEXEC, 0)};
  if (!fd) return 0;
  const int one = 1;
  if (reuse) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  ::inet_pton(AF_INET, kAddress, &sa.sin_addr);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    return 0;
  }
  socklen_t len = sizeof sa;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return 0;
  }
  held.push_back(std::move(fd));
  return ntohs(sa.sin_port);
}

ServerConfig two_workers_on_held_address() {
  ServerConfig cfg;
  cfg.bind_address = kAddress;
  cfg.port = 0;
  cfg.workers = 2;
  return cfg;
}

TEST(ServerPort, EphemeralPortIsNotShared) {
  std::vector<UniqueFd> held;
  std::set<std::uint16_t> held_ports;
  for (int i = 0; i < kHeldSockets; ++i) {
    const std::uint16_t port = hold_port(held, SOCK_DGRAM, /*reuse=*/true);
    ASSERT_NE(port, 0) << "could not hold reuse socket " << i;
    held_ports.insert(port);
  }

  const authns::Responder responder{authns::ResponderConfig{}};
  int shared = 0;
  for (int i = 0; i < kStarts; ++i) {
    Server server{responder, two_workers_on_held_address()};
    server.start();
    if (held_ports.count(server.port()) != 0) ++shared;
    server.stop();
  }
  EXPECT_EQ(shared, 0) << shared << " of " << kStarts
                       << " starts bound a port another socket held";
}

TEST(ServerPort, EphemeralPortIsFreeForTcp) {
  // Plain TCP sockets (no reuse flags, as a client connection's local port
  // is) conflict with the server's TCP bind on the same number.
  std::vector<UniqueFd> held;
  for (int i = 0; i < kHeldSockets; ++i) {
    ASSERT_NE(hold_port(held, SOCK_STREAM, /*reuse=*/false), 0)
        << "could not hold TCP socket " << i;
  }

  const authns::Responder responder{authns::ResponderConfig{}};
  int failed = 0;
  for (int i = 0; i < kStarts; ++i) {
    Server server{responder, two_workers_on_held_address()};
    try {
      server.start();
    } catch (const std::system_error&) {
      ++failed;
    }
    server.stop();
  }
  EXPECT_EQ(failed, 0) << failed << " of " << kStarts
                       << " starts failed to bind their ephemeral port";
}

}  // namespace
}  // namespace recwild::netio
