#include "http/edge.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "obs/obs.hpp"

namespace darnet::http {

namespace {

using tensor::Tensor;

/// Locates `"key"` at top level and returns the offset just past the
/// following ':', or npos. Tolerant of whitespace, not of nesting -- the
/// classify body is flat by contract.
[[nodiscard]] std::size_t value_offset(const std::string& body,
                                       const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = body.find(quoted);
  if (pos == std::string::npos) return std::string::npos;
  pos = body.find(':', pos + quoted.size());
  if (pos == std::string::npos) return std::string::npos;
  return pos + 1;
}

[[nodiscard]] bool parse_u64(const std::string& body, const std::string& key,
                             std::uint64_t& out) {
  const std::size_t pos = value_offset(body, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(body.c_str() + pos, &end, 10);
  if (end == body.c_str() + pos || errno == ERANGE) return false;
  out = value;
  return true;
}

/// Parses the flat float array after `key` into a tensor of `shape`.
/// Returns false on absent key, malformed array, length mismatch or an
/// element that is not a finite float (nan, inf, or out of float range
/// like 1e999): one such row would poison its session's EWMA.
[[nodiscard]] bool parse_tensor(const std::string& body,
                                const std::string& key,
                                const std::vector<int>& shape, Tensor& out) {
  std::size_t pos = value_offset(body, key);
  if (pos == std::string::npos) return false;
  pos = body.find('[', pos);
  const std::size_t close = body.find(']', pos);
  if (pos == std::string::npos || close == std::string::npos) return false;

  Tensor parsed(shape);
  const char* cursor = body.c_str() + pos + 1;
  const char* limit = body.c_str() + close;
  for (std::size_t i = 0; i < parsed.numel(); ++i) {
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor || end > limit) return false;
    parsed[i] = static_cast<float>(value);
    if (!std::isfinite(parsed[i])) return false;
    cursor = end;
    while (cursor < limit && (*cursor == ',' || *cursor == ' ' ||
                              *cursor == '\n' || *cursor == '\t')) {
      ++cursor;
    }
  }
  // Trailing elements mean the array is longer than the shape.
  if (cursor < limit && *cursor != ']') return false;
  out = std::move(parsed);
  return true;
}

[[nodiscard]] Response json_error(int status, const std::string& message) {
  Response response;
  response.status = status;
  response.body = "{\"error\":\"" + message + "\"}";
  return response;
}

}  // namespace

Edge::Edge(serve::Router& router, EdgeConfig config)
    : router_(router),
      config_(std::move(config)),
      server_([this](const Request& request) { return handle(request); },
              config_.http) {}

Response Edge::handle(const Request& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET") return json_error(405, "GET only");
    Response response;
    response.body = "{\"status\":\"ok\",\"shards\":" +
                    std::to_string(router_.shards()) + ",\"version\":" +
                    std::to_string(router_.snapshot_version()) + "}";
    return response;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") return json_error(405, "GET only");
    Response response;
    response.body = metrics_json();
    return response;
  }
  if (request.target == "/classify") {
    if (request.method != "POST") return json_error(405, "POST only");
    DARNET_COUNTER_ADD("http/classify_requests_total", 1);
    return handle_classify(request);
  }
  return json_error(404, "no such route");
}

std::string Edge::metrics_json() const {
  const serve::Router::Stats route = router_.stats();
  const HttpServer::Stats http = server_.stats();
  using Shard = serve::Server::Stats;
  const auto sum = [&route](std::uint64_t Shard::*field) {
    std::uint64_t total = 0;
    for (const Shard& shard : route.per_shard) total += shard.*field;
    return total;
  };
  // The one place /metrics names a serving count: darnet_analyze reads its
  // first argument like a DARNET_* macro's, against docs/OBSERVABILITY.md.
  std::string out = "{\"serving\":{";
  const auto serving_count = [&out](std::string_view name,
                                    std::uint64_t value) {
    if (out.back() != '{') out += ',';
    out.append("\"").append(name).append("\":") += std::to_string(value);
  };
  serving_count("http/bad_requests_total", http.bad_requests);
  serving_count("http/connections_total", http.connections);
  serving_count("http/overload_rejected_total", http.overloaded);
  serving_count("http/requests_total", http.requests);
  serving_count("route/quota_rejected_total", route.quota_rejected);
  serving_count("route/requests_routed_total", route.routed);
  serving_count("route/shards", route.per_shard.size());
  serving_count("route/snapshot_swaps_total", route.snapshot_swaps);
  serving_count("serve/batch_rows_total", sum(&Shard::batched_rows));
  serving_count("serve/batches_degraded_total", sum(&Shard::degraded_batches));
  serving_count("serve/batches_executed_total", sum(&Shard::batches));
  serving_count("serve/ensemble_swaps_total", sum(&Shard::ensemble_swaps));
  serving_count("serve/requests_completed_total", sum(&Shard::completed));
  serving_count("serve/requests_failed_total", sum(&Shard::failed));
  serving_count("serve/requests_rejected_total", sum(&Shard::rejected));
  serving_count("serve/requests_shed_total", sum(&Shard::shed));
  serving_count("serve/requests_submitted_total", sum(&Shard::submitted));
  serving_count("serve/requests_timeout_total", sum(&Shard::timeouts));
  // The registry snapshot joins as sibling keys: drop its opening brace.
  out += "},";
  out.append(obs::registry().to_json(), 1);
  return out;
}

Response Edge::handle_classify(const Request& request) {
  engine::ClassifyRequest classify;
  if (!parse_u64(request.body, "session", classify.session_id)) {
    return json_error(400, "missing or malformed session");
  }
  (void)parse_u64(request.body, "tenant", classify.tenant_id);
  if (!parse_tensor(request.body, "frame", config_.frame_shape,
                    classify.frame)) {
    return json_error(400, "frame must be a flat array of finite numbers "
                           "matching the configured shape");
  }
  classify.imu_window = Tensor(config_.imu_shape);
  if (value_offset(request.body, "imu") != std::string::npos &&
      !parse_tensor(request.body, "imu", config_.imu_shape,
                    classify.imu_window)) {
    return json_error(400, "imu must be a flat array of finite numbers "
                           "matching the configured shape");
  }
  if (config_.deadline_us > 0) {
    classify.deadline = router_.clock_now() +
                        std::chrono::microseconds(config_.deadline_us);
  }

  const std::uint64_t session = classify.session_id;
  serve::Server::Submission submission =
      router_.submit(std::move(classify));
  serve::Response served = submission.response.get();

  if (served.status != serve::Status::kOk) {
    Response response;
    // Quota/backpressure rejections are the client's pacing problem
    // (429); shed and timeout are server-side load (503).
    response.status =
        served.status == serve::Status::kRejected ? 429 : 503;
    response.body = std::string("{\"session\":") + std::to_string(session) +
                    ",\"status\":\"" +
                    serve::status_name(served.status) + "\"}";
    return response;
  }

  const engine::StreamingVerdict& verdict = served.result.verdict;
  char confidence[32];
  std::snprintf(confidence, sizeof(confidence), "%.6f",
                static_cast<double>(
                    verdict.distribution.at(0, verdict.predicted)));
  Response response;
  response.body =
      "{\"session\":" + std::to_string(session) +
      ",\"status\":\"ok\",\"class\":" + std::to_string(verdict.predicted) +
      ",\"confidence\":" + confidence +
      std::string(",\"alert\":") + (verdict.alert ? "true" : "false") +
      ",\"degraded\":" + (served.result.degraded ? "true" : "false") +
      ",\"latency_us\":" + std::to_string(served.result.latency_us) +
      ",\"version\":" + std::to_string(router_.snapshot_version()) + "}";
  return response;
}

}  // namespace darnet::http
