// serve: the live path. An in-process netio::Server (one worker) wraps a
// Responder holding the root, .nl and test-domain zones the testbed
// serves; an open-loop UDP generator over loopback offers a fixed ladder
// of rates. No simulator runs during the measurement: codec, Responder and
// the kernel socket path do all the work.
//
// Inputs: the query mix is the authoritative-side query log of a small
// campaign run with the same seed, generated in a child process so this
// process's peak RSS is the server's and the generator's alone.
//
// Generator: one sender thread paces sends on a fixed schedule (open
// loop: it never waits for replies) and one receiver thread matches and
// checks replies. Each request is timed from its due send time, so a
// generator stall is charged to the requests it delays; the sender's own
// lateness is reported, and a rung where the sender fell behind is marked
// invalid rather than blamed on the server. A lost or refused request
// counts as missing the latency limit: it is charged the drain window, the
// longest wait the generator grants a reply.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dnscore/codec.hpp"
#include "experiment/campaign.hpp"
#include "experiment/deployments.hpp"
#include "layers.hpp"
#include "netio/server.hpp"
#include "obs/process.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace recwild;

namespace {

constexpr double kSloP99Us = 1000.0;     // latency limit on p99
constexpr double kSloLoss = 0.001;       // loss limit
constexpr double kMaxGenLagUs = 100.0;   // sender p99 lateness for a valid rung
constexpr double kReferenceRate = 20'000;  // rung reporting p50/p99
constexpr double kSaturationRate = 400'000;  // rung measuring capacity
constexpr std::int64_t kDrainNs = 50'000'000;  // replies later than this are lost
constexpr double kUnansweredUs = static_cast<double>(kDrainNs) / 1e3;
constexpr std::size_t kMaxQueryBytes = 512;     // a query template's ceiling
// Each thread keeps a CPU of its own (slots into the allowed CPUs): the
// server's worker, the generator's sender and receiver, and the main
// thread, which sleeps while a rung runs.
constexpr std::size_t kServerCpu = 0, kSenderCpu = 1, kReceiverCpu = 2,
                      kMainCpu = 3;

experiment::TestbedConfig serve_config(std::uint64_t seed, bool population,
                                       std::size_t probes) {
  experiment::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.build_population = population;
  cfg.population.probes = probes;
  cfg.test_sites = experiment::combination("2C").sites;
  return cfg;
}

/// The authoritative query log of a campaign, as "group qtype qname"
/// lines, made in a child process.
std::vector<layers::LoggedQuery> generate_mix(std::uint64_t seed, bool tiny) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int rc = 0;
    try {
      experiment::Testbed tb{serve_config(seed, true, tiny ? 100 : 1'000)};
      experiment::CampaignConfig cc;
      cc.queries_per_vp = tiny ? 6 : 31;
      experiment::run_campaign(tb, cc);
      std::ostringstream out;
      const std::pair<int, std::vector<anycast::AnycastService>*> groups[] = {
          {0, &tb.roots()}, {1, &tb.nl_services()}, {2, &tb.test_services()}};
      for (const auto& [g, services] : groups) {
        for (const auto& svc : *services) {
          for (const auto& site : svc.sites()) {
            for (const auto& e : site.server->log().entries()) {
              out << g << ' ' << static_cast<int>(e.qtype) << ' '
                  << e.qname.to_string() << '\n';
            }
          }
        }
      }
      const std::string s = out.str();
      std::size_t off = 0;
      while (off < s.size()) {
        const ssize_t n = ::write(fds[1], s.data() + off, s.size() - off);
        if (n <= 0) throw std::runtime_error("write failed");
        off += static_cast<std::size_t>(n);
      }
    } catch (...) {
      rc = 1;
    }
    ::close(fds[1]);
    ::_exit(rc);
  }
  ::close(fds[1]);
  std::string data;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("query-mix generator failed");
  }
  std::vector<layers::LoggedQuery> mix;
  std::istringstream in{data};
  int g = 0, t = 0;
  std::string name;
  while (in >> g >> t >> name) {
    mix.push_back({static_cast<layers::Group>(g), dns::Name::parse(name),
                   static_cast<dns::RRType>(t)});
  }
  if (mix.empty()) throw std::runtime_error("empty query mix");
  return mix;
}

/// A query template: its wire bytes and the reply the server must send,
/// both with transaction id 0.
struct Template {
  std::vector<std::uint8_t> query;
  std::vector<std::uint8_t> reply;
};

/// What the live server must answer, computed in-process with the same
/// Responder: the decode → answer → encode path netio::Server runs.
Template make_template(const authns::Responder& responder,
                       const layers::LoggedQuery& q) {
  Template t;
  const auto qw = dns::encode_message(
      layers::make_upstream_query(0, q.qname, q.qtype));
  t.query.assign(qw.data(), qw.data() + qw.size());
  if (t.query.size() > kMaxQueryBytes) {
    throw std::runtime_error("query template larger than the send buffer");
  }
  const dns::Message decoded = dns::decode_message(t.query);
  net::WireBuffer out;
  const dns::Message resp = responder.answer(decoded, false, &out);
  if (out.empty()) out = dns::encode_message(resp);
  t.reply.assign(out.data(), out.data() + out.size());
  return t;
}

/// One ladder rung's outcome.
struct Rung {
  double rate = 0.0;
  std::size_t offered = 0;
  std::size_t refused = 0;     // send() failed
  std::size_t answered = 0;    // matching, byte-correct replies
  std::size_t lost = 0;        // no reply within the drain window
  std::size_t mismatched = 0;  // wrong bytes, unknown id or duplicate
  double p50_us = 0.0;
  double p99_us = 0.0;
  double gen_lag_p99_us = 0.0;
  bool valid = false;   // the generator kept its schedule
  bool passed = false;  // p99 and loss within the limits
  double server_cpu_s = 0.0;
  double delivered_qps = 0.0;  // replies per second, first due to last reply
  double step_ns = 1.0;  // the reference step's length around the trial
};

class Generator {
 public:
  Generator(std::uint16_t port, const std::vector<Template>& templates,
            const std::vector<std::uint32_t>& order)
      : templates_(templates), order_(order) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int buf = 8 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
    timeval tv{0, 20'000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~Generator() { ::close(fd_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Offers `rate` queries/s for `seconds`; `sample_every` > 0 records
  /// every n-th request as spans. One Generator serves one rung: a fresh
  /// socket keeps late replies of an earlier rung out of this one.
  Rung run(double rate, double seconds, const CpuRotation& cpus,
           Tracer& tracer, std::uint64_t parent_span,
           std::size_t sample_every) {
    Rung r;
    r.rate = rate;
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    r.offered = n;
    sent_.assign(n, 0);
    recv_.assign(n, 0);
    status_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
    period_ns_ = 1e9 / rate;
    start_ = now_ns() + 2'000'000;  // the threads start up first

    double sender_cpu = 0.0, receiver_cpu = 0.0;
    const double main_cpu0 = thread_cpu_s();
    const double proc_cpu0 = process_cpu_s();
    std::thread receiver([&] {
      cpus.pin(kReceiverCpu);
      const double c0 = thread_cpu_s();
      receive();
      receiver_cpu = thread_cpu_s() - c0;
    });
    std::thread sender([&] {
      cpus.pin(kSenderCpu);
      const double c0 = thread_cpu_s();
      send_all(n);
      sender_cpu = thread_cpu_s() - c0;
    });
    sender.join();
    // Replies may trail the last send by up to the drain window.
    const std::int64_t drain_until = now_ns() + kDrainNs;
    while (now_ns() < drain_until && settled_.load(std::memory_order_acquire) < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_.store(true, std::memory_order_release);
    receiver.join();
    const double main_cpu = thread_cpu_s() - main_cpu0;
    r.server_cpu_s = std::max(
        0.0, process_cpu_s() - proc_cpu0 - sender_cpu - receiver_cpu - main_cpu);

    std::int64_t last_reply = start_;
    std::vector<double> lat, lag;
    lat.reserve(n);
    lag.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = due_ns(i);
      lag.push_back(static_cast<double>(sent_[i] - due) / 1e3);
      const std::uint8_t st = status_[i].load(std::memory_order_relaxed);
      if (st == kAnswered) {
        ++r.answered;
        last_reply = std::max(last_reply, recv_[i]);
        lat.push_back(static_cast<double>(recv_[i] - due) / 1e3);
      } else {
        if (st == kRefused) ++r.refused;
        if (st == kPending) ++r.lost;
        lat.push_back(kUnansweredUs);
      }
      if (sample_every > 0 && i % sample_every == 0) {
        const std::uint64_t req = tracer.next_request();
        const std::int64_t end = st == kAnswered ? recv_[i] : sent_[i];
        const std::uint64_t s =
            tracer.add("serve.request", due, end, parent_span, req);
        tracer.add("serve.gen_send", due, sent_[i], s, req);
        if (st == kAnswered) {
          tracer.add("serve.server_and_loopback", sent_[i], recv_[i], s, req);
        }
      }
    }
    r.mismatched = mismatched_;
    std::sort(lat.begin(), lat.end());
    std::sort(lag.begin(), lag.end());
    r.p50_us = percentile_sorted(lat, 0.50);
    r.p99_us = percentile_sorted(lat, 0.99);
    r.gen_lag_p99_us = percentile_sorted(lag, 0.99);
    if (last_reply > start_) {
      r.delivered_qps = static_cast<double>(r.answered) * 1e9 /
                        static_cast<double>(last_reply - start_);
    }
    r.valid = r.gen_lag_p99_us <= kMaxGenLagUs;
    const double failed =
        static_cast<double>(r.offered - r.answered) / static_cast<double>(n);
    r.passed = r.p99_us <= kSloP99Us && failed <= kSloLoss && r.mismatched == 0;
    return r;
  }

 private:
  static constexpr std::uint8_t kPending = 0, kAnswered = 1, kRefused = 2;

  /// When request i is due: the schedule, independent of how late the
  /// sender runs.
  std::int64_t due_ns(std::size_t i) const {
    return start_ + static_cast<std::int64_t>(static_cast<double>(i) * period_ns_);
  }
  /// The query template request i sends.
  std::uint32_t template_of(std::size_t i) const {
    return order_[i % order_.size()];
  }

  void send_all(std::size_t n) {
    std::uint8_t buf[kMaxQueryBytes];
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = due_ns(i);
      while (now_ns() < due) {
      }  // open loop: pace to the schedule, never wait for replies
      const auto& q = templates_[template_of(i)].query;
      std::memcpy(buf, q.data(), q.size());
      // The transaction id is the request index modulo 2^16.
      buf[0] = static_cast<std::uint8_t>((i >> 8) & 0xff);
      buf[1] = static_cast<std::uint8_t>(i & 0xff);
      sent_[i] = now_ns();
      sent_count_.store(i + 1, std::memory_order_release);
      if (::send(fd_, buf, q.size(), 0) < 0) {
        status_[i].store(kRefused, std::memory_order_relaxed);
        settled_.fetch_add(1, std::memory_order_release);
      }
    }
  }

  void receive() {
    std::uint8_t buf[65536];
    while (!stop_.load(std::memory_order_acquire)) {
      const ssize_t len = ::recv(fd_, buf, sizeof buf, 0);
      if (len < 0) continue;  // timeout: re-check the stop flag
      const std::int64_t at = now_ns();
      // The request this reply answers: the latest sent index whose id
      // matches. Loopback queues hold milliseconds of traffic, far less
      // than 2^16 requests, so the match is unambiguous.
      const std::size_t sent = sent_count_.load(std::memory_order_acquire);
      if (len < 2 || sent == 0) {
        ++mismatched_;
        continue;
      }
      const std::uint16_t id =
          static_cast<std::uint16_t>((buf[0] << 8) | buf[1]);
      const std::size_t back =
          static_cast<std::uint16_t>(static_cast<std::uint16_t>(sent - 1) - id);
      if (back >= sent) {
        ++mismatched_;
        continue;
      }
      const std::size_t i = sent - 1 - back;
      const auto& want = templates_[template_of(i)].reply;
      if (status_[i].load(std::memory_order_relaxed) != kPending ||
          static_cast<std::size_t>(len) != want.size() ||
          std::memcmp(buf + 2, want.data() + 2, want.size() - 2) != 0) {
        ++mismatched_;
        continue;
      }
      recv_[i] = at;
      status_[i].store(kAnswered, std::memory_order_relaxed);
      settled_.fetch_add(1, std::memory_order_release);
    }
  }

  int fd_ = -1;
  const std::vector<Template>& templates_;
  const std::vector<std::uint32_t>& order_;
  std::int64_t start_ = 0;
  double period_ns_ = 0.0;
  // Per request, by index in the rung: sent_ is written by the sender
  // before sent_count_ is released, recv_ by the receiver, status_ by the
  // thread that settles the request.
  std::vector<std::int64_t> sent_, recv_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> status_;
  std::atomic<std::size_t> sent_count_{0};
  std::atomic<std::size_t> settled_{0};  // answered + refused
  std::atomic<bool> stop_{false};
  std::size_t mismatched_ = 0;  // receiver-only until join
};

/// The live server and everything it serves.
struct Live {
  std::shared_ptr<const experiment::WorldSnapshot> world;
  std::shared_ptr<const authns::Responder> responder;
  std::unique_ptr<netio::Server> server;  // declared last: stops first
};

Live start_live(std::uint64_t seed, Tracer& tr, std::uint64_t parent,
                std::uint64_t req) {
  Live l;
  {
    ScopedSpan s{tr, "experiment.world_build", parent, req};
    l.world = experiment::WorldSnapshot::build(serve_config(seed, false, 0));
  }
  {
    ScopedSpan s{tr, "authns.responder_build", parent, req};
    l.responder = layers::make_combined_responder(*l.world);
  }
  {
    ScopedSpan s{tr, "netio.server_start", parent, req};
    l.server = std::make_unique<netio::Server>(*l.responder,
                                               netio::ServerConfig{});
    l.server->start();
  }
  return l;
}

}  // namespace

Report run_serve_workload(const Options& opt, Tracer& tracer) {
  const auto t_start = Clock::now();
  const bool tiny = opt.size == Size::Tiny;
  Report rep;
  rep.workload = "serve";

  // Inputs (not timed): the campaign's authoritative query mix, in a
  // seeded order.
  const std::vector<layers::LoggedQuery> mix = generate_mix(opt.seed, tiny);

  // Set-up: zones (world build), Responder, Server::start — sampled at
  // least kMinSetups times (more while they take under kSetupSeconds in
  // all); the last one serves the ladder.
  constexpr std::size_t kMinSetups = 21, kMaxSetups = 201;
  constexpr double kSetupSeconds = 0.3;
  std::vector<double> setup_s, setup_ref;
  Live live;
  // Set-up runs on the server's CPU, so the worker thread Server::start
  // makes is pinned there too.
  CpuRotation cpus;
  cpus.pin(kServerCpu);
  const std::uint64_t setup_req = tracer.next_request();
  const std::uint64_t setup_span = tracer.open("serve.setup", 0, setup_req);
  while (setup_s.size() < kMinSetups ||
         (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
              kSetupSeconds &&
          setup_s.size() < kMaxSetups)) {
    live = Live{};
    const double step_ns = reference_step_ns();
    const auto t0 = Clock::now();
    live = start_live(opt.seed, tracer, setup_span, setup_req);
    setup_s.push_back(secs_since(t0));
    setup_ref.push_back(setup_s.back() / step_ns);
  }
  tracer.close(setup_span);
  cpus.pin(kMainCpu);
  // The reference step on the server's CPU, taken while the server idles.
  auto server_step_ns = [&cpus] {
    cpus.pin(kServerCpu);
    const double ns = reference_step_ns();
    cpus.pin(kMainCpu);
    return ns;
  };

  std::vector<Template> templates;
  templates.reserve(mix.size());
  for (const auto& q : mix) templates.push_back(make_template(*live.responder, q));
  std::vector<std::uint32_t> order(templates.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  stats::Rng rng{opt.seed};
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }

  // The ladder is walked kPasses times, ascending each time. A rung meets
  // the limit when most of its passes do, and reports the median of its
  // passes, so one pass disturbed by other load on the host cannot move
  // the knee. The last rung offers more than one worker can answer; the
  // rate it delivers is the server's capacity. It is offered
  // kSaturationTrials times per pass, in short trials, and the capacity is
  // their median: every trial offers the same load, so a trial that other
  // load on the host disturbed, or spared, falls to either side of it.
  constexpr int kPasses = 3;
  constexpr int kSaturationTrials = 10;
  const std::vector<double> ladder =
      tiny ? std::vector<double>{5'000, kReferenceRate, kSaturationRate}
           : std::vector<double>{5'000,   kReferenceRate, 40'000,  60'000,
                                 80'000,  100'000,        120'000, 140'000,
                                 160'000, kSaturationRate};
  // The trials share the time inputs and set-up left over equally. Each
  // also pays thread start-up, its own bookkeeping and, above capacity, the
  // drain window: before each trial, what is left is shared among the
  // trials still to run, less the overhead the trials so far paid each.
  const std::size_t n_trials =
      (ladder.size() - 1 + kSaturationTrials) * kPasses;
  std::size_t trials_done = 0;
  double measured_s = 0.0;  // the trials' own measuring time so far
  const auto t_ladder = Clock::now();
  auto next_trial_s = [&] {
    const double overhead =
        trials_done == 0
            ? static_cast<double>(kDrainNs) * 1e-9 + 0.01
            : (secs_since(t_ladder) - measured_s) /
                  static_cast<double>(trials_done);
    const double left = opt.seconds - secs_since(t_start);
    return std::max(0.05, left / static_cast<double>(n_trials - trials_done) -
                              overhead);
  };
  std::vector<std::vector<Rung>> trials(ladder.size());
  const std::uint64_t ladder_req = tracer.next_request();
  const std::uint64_t ladder_span = tracer.open("serve.ladder", 0, ladder_req);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const std::uint64_t s = tracer.open(
          "serve.rung_" + std::to_string(static_cast<long>(ladder[k])),
          ladder_span, ladder_req);
      const bool saturation = k + 1 == ladder.size();
      for (int t = 0; t < (saturation ? kSaturationTrials : 1); ++t) {
        const double trial_s = next_trial_s();
        Generator gen{live.server->port(), templates, order};
        const double step_before = server_step_ns();
        trials[k].push_back(gen.run(ladder[k], trial_s, cpus, tracer, s,
                                    opt.trace ? 1000 : 0));
        trials[k].back().step_ns = 0.5 * (step_before + server_step_ns());
        ++trials_done;
        measured_s += trial_s;
      }
      tracer.close(s);
    }
  }
  tracer.close(ladder_span);
  const netio::ServerStats stats = live.server->stats();
  live.server->stop();

  double qps_at_slo = 0.0, server_cpu = 0.0, server_cpu_ref = 0.0;
  double ref_p50 = 0.0, ref_p99 = 0.0, ref_lag = 0.0;
  std::size_t answered = 0, mismatched = 0, ref_samples = 0;
  int ref_valid = 0;
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    std::vector<double> p50, p99, lag;
    std::size_t offered = 0, ok = 0, lost = 0, refused = 0, bad = 0;
    int meets = 0, valid = 0;
    for (const Rung& r : trials[k]) {
      offered += r.offered;
      ok += r.answered;
      lost += r.lost;
      refused += r.refused;
      bad += r.mismatched;
      server_cpu += r.server_cpu_s;
      server_cpu_ref += r.server_cpu_s / r.step_ns;
      p50.push_back(r.p50_us);
      p99.push_back(r.p99_us);
      lag.push_back(r.gen_lag_p99_us);
      valid += r.valid ? 1 : 0;
      meets += r.valid && r.passed ? 1 : 0;
    }
    rep.attempted += offered;
    answered += ok;
    mismatched += bad;
    // A wrong reply is a failure anywhere. Loss above the reference rung is
    // what the ladder looks for; at or below it, it counts as unanswered.
    rep.failed += bad;
    if (ladder[k] <= kReferenceRate) rep.unanswered += lost + refused;
    if (2 * meets > static_cast<int>(trials[k].size())) {
      qps_at_slo = std::max(qps_at_slo, ladder[k]);
    }
    if (ladder[k] == kReferenceRate) {
      ref_p50 = median(p50);
      ref_p99 = median(p99);
      ref_lag = median(lag);
      ref_samples = offered;
      ref_valid = valid;
    }
    std::ostringstream line;
    line << "rung " << static_cast<long>(ladder[k]) << "/s x"
         << trials[k].size() << ": offered " << offered << ", answered "
         << ok << ", lost " << lost << ", refused " << refused
         << ", mismatched " << bad
         << ", median p50 " << median(p50) << " us, median p99 "
         << median(p99) << " us, median gen lag p99 " << median(lag)
         << " us, " << valid << "/" << trials[k].size() << " valid, " << meets
         << "/" << trials[k].size() << " meet the limit";
    rep.notes.push_back(line.str());
  }

  // Output checks: every reply the receiver accepted was byte-equal to the
  // in-process answer; anything else is counted here.
  rep.check("serve.replies_byte_equal", mismatched == 0,
            std::to_string(answered) + " replies byte-equal to Responder::"
            "answer, " + std::to_string(mismatched) + " mismatched");
  // A late generator invalidates a rung's latency, not the server's
  // output, so it is reported rather than checked.
  rep.notes.push_back("reference rung: " + std::to_string(ref_valid) + "/" +
                      std::to_string(kPasses) +
                      " passes kept the schedule, median generator lag p99 " +
                      std::to_string(ref_lag) + " us");

  // Times are in reference seconds (see reference_step_ns): a trial's
  // reply rate per reference second is its rate per second times the
  // step's length in ns.
  rep.e2e("setup_s", median(setup_ref), "s");
  // CPU per reply is the server's at capacity too: the median over the
  // saturation trials.
  std::vector<double> capacity, capacity_wall, capacity_cpu_us;
  for (const Rung& r : trials.back()) {
    capacity.push_back(r.delivered_qps * r.step_ns);
    capacity_wall.push_back(r.delivered_qps);
    if (r.answered == 0) continue;
    capacity_cpu_us.push_back(r.server_cpu_s / r.step_ns * 1e6 /
                              static_cast<double>(r.answered));
  }
  rep.e2e("qps", median(capacity), "1/s");
  rep.e2e("cpu_us_per_query", median(capacity_cpu_us), "us");
  rep.e2e("peak_rss_mb", static_cast<double>(obs::peak_rss_kb()) / 1024.0,
          "MB");
  rep.notes.push_back(
      "qps is the reply rate delivered when offered " +
      std::to_string(static_cast<long>(kSaturationRate)) +
      "/s (median of " + std::to_string(trials.back().size()) +
      " trials), per reference second; per wall second " +
      std::to_string(median(capacity_wall)) +
      "; server CPU over the whole ladder " +
      std::to_string(answered > 0 ? server_cpu * 1e6 /
                                        static_cast<double>(answered)
                                  : 0.0) +
      " us per reply (" +
      std::to_string(answered > 0 ? server_cpu_ref * 1e6 /
                                        static_cast<double>(answered)
                                  : 0.0) +
      " reference us); " + std::to_string(setup_s.size()) +
      " set-ups, median " + std::to_string(median(setup_s)) +
      " s; qps_at_slo " +
      std::to_string(static_cast<long>(qps_at_slo)) +
      "/s is the highest rung where most passes kept the schedule with p99 "
      "<= 1 ms and loss <= 0.1%");
  rep.notes.push_back("reference rung " +
                      std::to_string(static_cast<long>(kReferenceRate)) +
                      "/s: p50 " + std::to_string(ref_p50) + " us, p99 " +
                      std::to_string(ref_p99) + " us, " +
                      std::to_string(ref_samples) + " requests");

  if (opt.trace) {
    const std::uint64_t req = tracer.next_request();
    ScopedSpan s{tracer, "layers", 0, req};
    rep.layer("serve.qps_at_slo", qps_at_slo, "1/s");
    rep.layer("serve.p50_us", ref_p50, "us");
    rep.layer("serve.p99_us", ref_p99, "us");
    rep.layer("serve.latency_samples", static_cast<double>(ref_samples),
              "count");
    rep.layer("serve.gen_lag_p99_us", ref_lag, "us");
    rep.layer("netio.dropped_ratio",
              stats.udp_datagrams > 0
                  ? static_cast<double>(stats.dropped) /
                        static_cast<double>(stats.udp_datagrams)
                  : 0.0,
              "ratio");
    const layers::GroupResponders one{live.responder, live.responder,
                                      live.responder};
    std::vector<layers::LoggedQuery> sample;
    for (std::size_t i = 0; i < mix.size() && sample.size() < 4096;
         i += std::max<std::size_t>(1, mix.size() / 4096)) {
      sample.push_back(mix[order[i]]);
    }
    const auto codec = layers::measure_codec(sample, one);
    rep.layer("dnscore.encode_ns", codec.encode_ns, "ns");
    rep.layer("dnscore.decode_ns", codec.decode_ns, "ns");
    rep.layer("dnscore.allocs_per_decode", codec.allocs_per_decode, "count");
    rep.layer("dnscore.response_bytes", codec.response_bytes, "bytes");
    rep.layer("authns.answer_ns", codec.answer_ns, "ns");
  }
  return rep;
}

}  // namespace perfbench
