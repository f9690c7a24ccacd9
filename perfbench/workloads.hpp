// The benchmark's workloads. Each runs the real serving stack (or the
// fleet simulator) for a given wall time and returns its end-to-end
// metrics, its per-layer metrics when traced, and its output checks.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadParams {
  /// Wall time of the measured phase.
  double seconds = 10.0;
  /// Wrap the models in timing decorators and collect per-layer metrics.
  bool traced = false;
  /// Set-ups timed per run; setup_s is their median.
  int setups = 9;
  /// fleet_steady only: vehicles per simulation.
  int vehicles = 2000;
};

using WorkloadFn = RunResult (*)(const Options&, const WorkloadParams&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

/// edge_closed, serve_open, serve_overload, fleet_steady.
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace perfbench
