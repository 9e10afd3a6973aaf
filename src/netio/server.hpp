// Kernel-socket authoritative front-end: the second transport of the "one
// engine, two transports" design (docs/ARCHITECTURE.md).
//
// A Server binds one UDP socket and one TCP listener per worker, all on
// the same (address, port) via SO_REUSEPORT so the kernel shards incoming
// flows across workers with no user-space locking — the standard scaling
// idiom of NSD 4 and Knot. Each worker runs a private epoll loop:
// nonblocking reads, 2-byte length framing on TCP (RFC 1035 §4.2.2), and
// the pooled WireBuffer datapath for every encode. All query logic lives
// in the shared authns::Responder — the same object the simulated
// AuthServer delegates to — so a live reply is byte-identical to the
// simulated one (the transport-equivalence golden test pins this).
//
// Thread-safety: Responder::answer() is const and allocates per call;
// workers share one const reference and never synchronise. Stats are
// per-worker relaxed atomics summed on read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "authns/responder.hpp"
#include "authns/rrl.hpp"

namespace recwild::netio {

struct ServerConfig {
  /// Dotted-quad IPv4 address to bind (loopback by default: the repo's
  /// tests and benches never expose a socket beyond the host).
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port no UDP or TCP socket holds; the bound port
  /// is then readable via port() (tests and the smoke script rely on this).
  std::uint16_t port = 0;
  /// SO_REUSEPORT shards, one epoll loop + thread each.
  int workers = 1;
  /// Largest TCP frame accepted; larger advertised lengths drop the
  /// connection (a hostile peer can otherwise park 64 KiB per connection).
  std::size_t max_tcp_frame = 65535;
  /// Response-rate limiting on the UDP path (rate 0 = off). Accounting is
  /// per worker: SO_REUSEPORT hashes a client's flows to one worker, so
  /// per-client buckets stay coherent without cross-thread state.
  authns::RrlConfig rrl{};
};

/// Aggregated per-worker counters; names mirror the netio.* metrics in
/// docs/METRICS.md (plus `formerr`, folded into `authns.formerr`).
struct ServerStats {
  std::uint64_t udp_datagrams = 0;
  std::uint64_t tcp_connections = 0;
  std::uint64_t tcp_messages = 0;
  std::uint64_t responses = 0;
  std::uint64_t dropped = 0;
  std::uint64_t formerr = 0;
  std::uint64_t rrl_dropped = 0;
  std::uint64_t rrl_slipped = 0;
};

class Server {
 public:
  /// The responder must outlive the server and is shared by every worker.
  Server(const authns::Responder& responder, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds all sockets and spawns the worker threads. Throws
  /// std::system_error when a socket call fails (port in use, no perms).
  void start();
  /// Signals every worker, joins the threads, closes all sockets.
  /// Idempotent; also run by the destructor.
  void stop();

  /// The bound UDP/TCP port (resolved after start() when config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

  /// Sums the per-worker counters (callable from any thread, live).
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Worker;
  /// Makes every worker's sockets, all bound to bound_port_.
  void bind_workers();
  void run_worker(Worker& w);

  const authns::Responder& responder_;
  ServerConfig config_;
  std::uint16_t bound_port_ = 0;
  /// Written by start()/stop(), read by every worker loop.
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace recwild::netio
