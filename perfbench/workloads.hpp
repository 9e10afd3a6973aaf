// The four benchmark workloads. Each runs in its own process (one
// perfbench invocation per workload) and fills a Report.
#pragma once

#include "common.hpp"

namespace perfbench {

/// campaign, scan and production: the simulated engines.
Report run_sim_workload(const Options& opt, Tracer& tracer);

/// serve: the live epoll authoritative under an open-loop UDP generator.
Report run_serve_workload(const Options& opt, Tracer& tracer);

}  // namespace perfbench
