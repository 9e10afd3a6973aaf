// perfbench: runs one benchmark workload in this process and prints its
// report — a human-readable summary, then one JSON object as the last line
// of stdout (run.py turns it into the benchmark's result line).
//
//   perfbench --workload campaign|scan|production|serve --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]
//             [--rev REV]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// JSON has no infinity or NaN: such a value is written as null, which
/// run.py rejects as a metric value.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Failures (wrong outputs and unanswered operations) per attempt.
double fail_ratio(const Report& r) {
  return r.attempted > 0 ? static_cast<double>(r.failed + r.unanswered) /
                               static_cast<double>(r.attempted)
                         : 0.0;
}

std::string report_json(const Report& r, const Options& opt,
                        const std::string& rev) {
  std::ostringstream o;
  o << "{\"schema\": \"recwild.perfbench/1\", \"workload\": "
    << json_str(r.workload) << ", \"seed\": " << opt.seed
    << ", \"git_rev\": " << json_str(rev) << ", \"host\": {\"cores\": "
    << std::thread::hardware_concurrency() << ", \"cpu\": "
    << json_str(cpu_model()) << ", \"compiler\": "
    << json_str(std::string{"gcc "} + __VERSION__)
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE) << "}"
    << ", \"size\": " << json_str(opt.size == Size::Tiny ? "tiny" : "full")
    << ", \"trace\": " << (opt.trace ? 1 : 0)
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"unanswered\": " << r.unanswered << ", \"fail_ratio\": "
    << json_num(fail_ratio(r))
    << ", \"end_to_end\": " << metrics_json(r.end_to_end)
    << ", \"per_layer\": " << metrics_json(r.per_layer) << ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    o << (i > 0 ? ", " : "") << "{\"name\": " << json_str(r.checks[i].name)
      << ", \"ok\": " << (r.checks[i].ok ? "true" : "false")
      << ", \"detail\": " << json_str(r.checks[i].detail) << "}";
  }
  o << "], \"digests\": {";
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    o << (i > 0 ? ", " : "") << json_str(r.digests[i].first) << ": "
      << json_str(r.digests[i].second);
  }
  o << "}";
  if (!r.budget.empty()) {
    double sum = 0.0;
    o << ", \"per_query_budget\": {\"query_unit\": "
      << json_str(r.budget_query_unit) << ", \"layers\": [";
    for (std::size_t i = 0; i < r.budget.size(); ++i) {
      const auto& t = r.budget[i];
      const double ns = t.ns_per_call * t.calls_per_query;
      sum += ns;
      o << (i > 0 ? ", " : "") << "{\"layer\": " << json_str(t.layer)
        << ", \"ns_per_call\": " << json_num(t.ns_per_call)
        << ", \"calls_per_query\": " << json_num(t.calls_per_query)
        << ", \"calls_base\": " << json_str(t.calls_base)
        << ", \"ns_per_query\": " << json_num(ns) << "}";
    }
    const double measured = r.budget_measured_ns_per_query;
    o << "], \"sum_ns_per_query\": " << json_num(sum)
      << ", \"measured_ns_per_query\": " << json_num(measured)
      << ", \"measured_base\": \"process CPU ns / " << r.budget_query_unit
      << "s completed\", \"unexplained_ns_per_query\": "
      << json_num(measured - sum) << ", \"explained_ratio\": "
      << json_num(measured > 0.0 ? sum / measured : 0.0) << "}";
  }
  o << ", \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    o << (i > 0 ? ", " : "") << json_str(r.notes[i]);
  }
  o << "]}";
  return o.str();
}

void print_summary(const Report& r) {
  std::printf(
      "workload %s: attempted %llu, failed %llu, unanswered %llu, "
      "fail_ratio %.6g\n",
      r.workload.c_str(), static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.unanswered), fail_ratio(r));
  for (const auto& m : r.end_to_end) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : r.per_layer) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& c : r.checks) {
    std::printf("  check %-40s %s (%s)\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }
  for (const auto& n : r.notes) std::printf("  note: %s\n", n.c_str());
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"name\": " << json_str(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string rev = "unknown";
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string val = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = val;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (flag == "--trace") {
        opt.trace = val == "1";
      } else if (flag == "--size") {
        opt.size = val == "tiny" ? Size::Tiny : Size::Full;
      } else if (flag == "--spans") {
        opt.spans_path = val;
      } else if (flag == "--rev") {
        rev = val;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.workload != "campaign" && opt.workload != "scan" &&
      opt.workload != "production" && opt.workload != "serve") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  Tracer tracer{opt.trace};
  Report r;
  try {
    r = opt.workload == "serve" ? run_serve_workload(opt, tracer)
                                : run_sim_workload(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !opt.spans_path.empty()) {
    if (!tracer.write(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
    r.notes.push_back(std::to_string(tracer.spans().size()) +
                      " spans written to " + opt.spans_path);
  }
  print_summary(r);
  std::printf("%s\n", report_json(r, opt, rev).c_str());
  return 0;
}
