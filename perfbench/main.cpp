// darnet_perfbench -- the repo benchmark. Drives the serving stack (HTTP
// edge -> Router -> Server -> EnsembleClassifier -> nn) and the fleet
// simulator through their public entry points, checks every verdict, and
// prints one metric per line followed by a one-line JSON result.
//
//   darnet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced for half the time each and
// reports the per-layer metrics (README.md lists them all).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "models.hpp"
#include "parallel/pool.hpp"
#include "tensor/kernels.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Every per-layer metric of a traced run besides the nn.* layer table
// (whose names follow the models' layers).
const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "http.rtt_us.p50", "http.rtt_us.p99", "http.edge_us.p50",
      "http.edge_us.p99", "http.inline_503", "http.bad_requests",
      "http.request_bytes", "loadgen.lag_p99_ms", "router.submit_us.p50",
      "router.submit_us.p99", "router.quota_rejected_share",
      "server.latency_us.p50", "server.latency_us.p99", "server.wake_us.p50",
      "server.wake_us.p99", "server.batch_rows_mean", "server.batches_per_s",
      "server.shed_share", "server.timeout_share",
      "server.degraded_batch_share", "engine.frame_cnn_us_per_row",
      "engine.bilstm_us_per_row", "engine.batch_us.p50", "engine.batch_us.p99",
      "engine.busy_share", "engine.combine_us_b8", "sim.events_per_s",
      "collection.bytes_per_request", "collection.decode_batch_us",
      "collection.aligned_window_us", "trace_overhead_share"};
  return names;
}

// Layers a workload never enters are measured by a short probe run of the
// workload that does; each probe fills the metrics under these prefixes.
struct Probe {
  const char* workload;
  std::vector<std::string> prefixes;
};
const std::vector<Probe>& probes() {
  static const std::vector<Probe> all = {
      {"serve_open", {"loadgen.", "router.", "server.", "engine."}},
      {"edge_closed", {"http."}},
      {"fleet_steady", {"sim.", "collection."}},
  };
  return all;
}
constexpr double kProbeSeconds = 1.5;
constexpr int kProbeVehicles = 400;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "darnet_perfbench: %s\nusage: darnet_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--commit id]\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opts.workload = value;
      else if (flag == "--seed") opts.seed = std::stoull(value);
      else if (flag == "--seconds") opts.seconds = std::stod(value);
      else if (flag == "--trace") opts.trace = std::stoi(value) != 0;
      else if (flag == "--commit") opts.commit = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!find_workload(opts.workload)) usage("unknown or missing --workload");
  if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
  return opts;
}

void print_header(const Options& opts) {
  char date[64];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  const char* threads_env = std::getenv("DARNET_THREADS");
  namespace kernels = darnet::tensor::kernels;
  std::printf("# darnet_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::printf("# build=%s compiler=\"%s\" flags=\"%s\" commit=%s date=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              opts.commit.c_str(), date);
  std::printf("# kernel_isa=%s thread_count=%d DARNET_THREADS=%s nproc=%ld\n",
              kernels::isa_name(kernels::active()),
              darnet::parallel::thread_count(),
              threads_env ? threads_env : "unset", sysconf(_SC_NPROCESSORS_ONLN));
  std::fflush(stdout);
}

bool wanted(const std::string& name, const Probe& probe) {
  for (const std::string& prefix : probe.prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Folds a secondary run's counts and checks into the reported result.
void absorb(RunResult& into, const RunResult& from, const std::string& label) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& f : from.check_failures) into.fail(label + ": " + f);
  for (const std::string& n : from.notes) into.notes.push_back(label + ": " + n);
}

/// The traced run: untraced and traced halves, layer replays, probes for
/// layers the workload never enters, and the where-the-time-went table.
RunResult traced_run(const Options& opts, const Workload& workload) {
  WorkloadParams half;
  half.seconds = opts.seconds / 2.0;
  half.setups = 1;
  RunResult result;
  const RunResult untraced = workload.run(opts, half);
  half.traced = true;
  const RunResult traced = workload.run(opts, half);
  absorb(result, untraced, "untraced half");
  absorb(result, traced, "traced half");
  result.input_digest = traced.input_digest;
  result.layer = traced.layer;

  // Tracing overhead: the traced half's client p50 latency (throughput on
  // fleet_steady, whose latency is virtual) against the untraced half's.
  const bool fleet = std::string(workload.name) == "fleet_steady";
  const std::string basis = fleet ? "throughput_rps" : "latency_p50_ms";
  const double u = untraced.end_to_end.value(basis);
  const double t = traced.end_to_end.value(basis);
  result.layer.set("trace_overhead_share",
                   (u > 0 && t > 0) ? (fleet ? u / t - 1.0 : t / u - 1.0) : 0.0,
                   "share", 2);

  const InputPool pool = make_input_pool(opts.seed, 8, false);
  std::vector<std::string> table;
  replay_layers(pool, result.layer, table);

  for (const Probe& probe : probes()) {
    if (probe.workload == opts.workload) continue;
    bool needed = false;
    for (const std::string& name : layer_metric_names()) {
      needed |= !result.layer.find(name) && wanted(name, probe);
    }
    if (!needed) continue;
    WorkloadParams p;
    p.seconds = kProbeSeconds;
    p.traced = true;
    p.setups = 1;
    p.vehicles = kProbeVehicles;
    const RunResult pr = find_workload(probe.workload)->run(opts, p);
    absorb(result, pr, std::string("probe ") + probe.workload);
    result.layer.fill_missing(pr.layer, std::string("probe:") + probe.workload);
  }
  for (const std::string& name : layer_metric_names()) {
    if (!result.layer.find(name)) result.fail("per-layer metric missing: " + name);
  }

  // Where the time went, per request at the median, from this workload's
  // own traffic (or its probes where it never enters a layer).
  const MetricSet& L = result.layer;
  const double client_us = traced.end_to_end.value("latency_p50_ms") * 1e3;
  auto row = [&](const char* stage, double us, const char* note) {
    char line[200];
    std::snprintf(line, sizeof(line), "%-30s %10.1f %7.1f%%  %s", stage, us,
                  client_us > 0 ? 100.0 * us / client_us : 0.0, note);
    result.breakdown.emplace_back(line);
  };
  char head[200];
  std::snprintf(head, sizeof(head), "%-30s %10s %8s  %s", "stage (p50)", "us",
                "client", "source");
  result.breakdown.emplace_back(head);
  const double server_us = L.value("server.latency_us.p50");
  const double batch_us = L.value("engine.batch_us.p50");
  if (std::string(workload.name) == "edge_closed") {
    row("http edge (rtt - server)", L.value("http.edge_us.p50"),
        "connect, body bytes, JSON parse, submit, wake, reply");
  } else if (!fleet) {
    row("generator lag (p99)", L.value("loadgen.lag_p99_ms") * 1e3, "load generator");
    row("router submit", L.value("router.submit_us.p50"), "quota, hash, admission");
    row("wake (client - rest)", L.value("server.wake_us.p50"), "future to collector");
  }
  if (!fleet) {
    row("queue + batching window", server_us - batch_us,
        "server latency - engine batch; window is 2000 us");
    row("engine batch compute", batch_us, "frame CNN + BiLSTM per batch");
    row("client latency", client_us, "end to end");
  } else {
    row("(virtual-time workload)", 0.0,
        "layer timings below come from probes");
  }
  char busy[200];
  std::snprintf(busy, sizeof(busy), "engine.busy_share=%.3f  batch_rows_mean=%.2f",
                L.value("engine.busy_share"), L.value("server.batch_rows_mean"));
  result.breakdown.emplace_back(busy);
  for (const std::string& line : table) result.breakdown.push_back("nn " + line);
  return result;
}

void print_result(const Options& opts, RunResult& result) {
  const MetricSet& metrics = opts.trace ? result.layer : result.end_to_end;
  for (const Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) result.fail("metric " + m.name + " is not finite");
  }
  for (const std::string& line : result.breakdown) std::printf("# %s\n", line.c_str());
  for (const std::string& line : result.notes) std::printf("# note: %s\n", line.c_str());
  std::printf("# input_digest=%016llx\n",
              static_cast<unsigned long long>(result.input_digest));
  std::printf("# %-40s %16s %-8s %10s  %s\n", "metric", "value", "unit",
              "samples", "source");
  for (const Metric& m : metrics.all()) {
    std::printf("# %-40s %16.6f %-8s %10llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.source.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  // Intra-op fan-out stays on one thread unless DARNET_THREADS asks for
  // more: the serving stack already runs 2 shard workers plus clients, and
  // fanning every batch out over the shared VM's 4 vCPUs made set-up and
  // p50 latency up to 3x slower whenever the host was busy (README.md).
  if (!std::getenv("DARNET_THREADS")) darnet::parallel::set_thread_count(1);
  print_header(opts);
  const Workload& workload = *find_workload(opts.workload);
  RunResult result;
  try {
    if (opts.trace) {
      result = traced_run(opts, workload);
    } else {
      WorkloadParams params;
      params.seconds = opts.seconds;
      result = workload.run(opts, params);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "darnet_perfbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) result.fail("nothing was attempted");
  print_result(opts, result);
  return result.check_failures.empty() ? 0 : 1;
}
