// Shared plumbing of the perfbench binary: the run options, the report it
// prints, the benchmark-side span recorder and small measurement
// helpers (clocks, CPU time, medians, digests).
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Workload sizes: Full is what BENCHMARK.json measures; Tiny runs every
/// workload in seconds for the self-check.
enum class Size { Full, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string spans_path;  // traced runs write their spans here
};

using Clock = std::chrono::steady_clock;

inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + system) of the whole process or the calling thread.
inline double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
inline double process_cpu_s() { return cpu_seconds(RUSAGE_SELF); }
inline double thread_cpu_s() { return cpu_seconds(RUSAGE_THREAD); }

/// The length, in ns, of one *reference step* on the calling thread's CPU
/// now: one link of a chain of dependent 64-bit multiply-adds, whose
/// latency in core cycles is fixed. On a shared host the cores' clock moves
/// with other tenants' load, by a quarter within minutes, and every time
/// measured here moves with it; a time divided by the step's length reads
/// in *reference seconds*, what it would take on a core where one step
/// takes 1 ns. The best of a few short chains, so an interrupt in one does
/// not count.
inline double reference_step_ns() {
  constexpr std::uint64_t kSteps = 200'000;
  double best = 0.0;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t x = static_cast<std::uint64_t>(r) + 1;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x = x * 0x9E3779B97F4A7C15ull + i;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(kSteps);
    asm volatile("" : : "r"(x));  // keeps the chain
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

/// Pins the calling thread to one allowed CPU (or run of CPUs) after
/// another; restores the thread's original CPU set when destroyed. Threads
/// started while pinned inherit the pin, so code that starts threads runs
/// under a pin as wide as its threads.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the k-th allowed CPU and the `width` - 1
  /// after it (cyclically). Any thread may call it; only the thread that
  /// made the rotation gets its CPU set back.
  void pin(std::size_t k, std::size_t width = 1) const {
    if (cpus_.empty()) return;
    cpu_set_t some;
    CPU_ZERO(&some);
    for (std::size_t i = 0; i < std::min(width, cpus_.size()); ++i) {
      CPU_SET(cpus_[(k + i) % cpus_.size()], &some);
    }
    sched_setaffinity(0, sizeof some, &some);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]) of an already sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// FNV-1a 64 over a byte string; digests pin output bytes across runs.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v);

/// One measured number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One output check: its name, whether it held, and a short detail.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One term of the per-query budget: a layer's cost per call times the
/// calls each query makes (taken from the metric registry).
struct BudgetTerm {
  std::string layer;
  double ns_per_call = 0.0;
  double calls_per_query = 0.0;
  std::string calls_base;  // which counters the call ratio divides
};

/// Everything one workload run reports. main() serialises it as one
/// JSON object; run.py turns it into the benchmark's result line.
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  /// Operations whose output was wrong: a mismatched live reply, or every
  /// operation of a repetition whose output checks failed.
  std::uint64_t failed = 0;
  /// Operations that got no answer although the program worked as
  /// designed: probes the simulated network timed out, SERVFAIL names and
  /// lookups, live requests lost or refused at or below the reference rung.
  /// With `failed`, this is the failure ratio's numerator.
  std::uint64_t unanswered = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<BudgetTerm> budget;
  double budget_measured_ns_per_query = 0.0;
  std::string budget_query_unit;
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// Span recorder: the benchmark's own trace. Spans are kept in memory and
/// written as JSON lines when the run ends. A span covers one call into a
/// layer's public function; `request` groups the spans of one request (a
/// workload repetition, a replay batch, or one live query).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint64_t open(std::string name, std::uint64_t parent,
                     std::uint64_t request) {
    if (!enabled_) return 0;
    spans_.push_back({std::move(name), now_ns(), 0, spans_.size() + 1, parent,
                      request});
    return spans_.size();
  }
  void close(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }
  /// Records an already measured interval (e.g. a phase reported by the
  /// library's run stats) as a child span.
  std::uint64_t add(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent,
                    std::uint64_t request) {
    if (!enabled_) return 0;
    spans_.push_back(
        {std::move(name), start_ns, end_ns, spans_.size() + 1, parent, request});
    return spans_.size();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t next_request() noexcept { return ++requests_; }

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::uint64_t requests_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::uint64_t parent,
             std::uint64_t request)
      : tracer_(t), id_(t.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Allocations made so far by the calling thread (alloc_counter.cpp
/// replaces the global operator new of this binary to count them).
std::uint64_t allocation_count() noexcept;

}  // namespace perfbench
