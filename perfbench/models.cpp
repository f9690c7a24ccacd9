#include "models.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "engine/architectures.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace engine = darnet::engine;
namespace nn = darnet::nn;
namespace serve = darnet::serve;
namespace tensor = darnet::tensor;

namespace {

/// Appends the shortest text of `value`, then returns what that text
/// parses back to through strtod (the HTTP edge's parser), as a float.
float append_number(std::string& out, float value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  *res.ptr = '\0';
  out.append(buf, res.ptr);
  return static_cast<float>(std::strtod(buf, nullptr));
}

/// Fills `t` from `gen` and, when `json` is set, renders it as a flat
/// JSON array; the tensor keeps the parsed-back values.
template <typename Gen>
void fill(Tensor& t, Gen&& gen, std::string* json) {
  if (json) json->push_back('[');
  for (std::size_t i = 0; i < t.numel(); ++i) {
    float v = gen();
    if (json) {
      if (i) json->push_back(',');
      v = append_number(*json, v);
    }
    t[i] = v;
  }
  if (json) json->push_back(']');
}

/// Frames are 8-bit pixels (k/256) around a per-entry brightness, IMU
/// windows are 1/1024-quantised readings; both are exact in binary, so
/// their shortest decimal text round-trips through float.
void make_entry(darnet::util::Rng& rng, Tensor& frame, Tensor& imu,
                std::string* frame_json, std::string* imu_json) {
  const double brightness = rng.uniform(0.2, 0.8);
  fill(
      frame,
      [&] {
        const double v = brightness + rng.uniform(-0.2, 0.2);
        return static_cast<float>(std::floor(std::clamp(v, 0.0, 0.99) * 256.0) /
                                  256.0);
      },
      frame_json);
  const double tilt = rng.uniform(-1.0, 1.0);
  fill(
      imu,
      [&] {
        const double v = tilt + rng.uniform(-1.0, 1.0);
        return static_cast<float>(std::round(v * 1024.0) / 1024.0);
      },
      imu_json);
}

/// The synthetic batch every replica's combiner is fitted on: fixed seed,
/// every class represented.
struct FitBatch {
  Tensor frames;
  Tensor imu;
  std::vector<int> labels;
};

const FitBatch& fit_batch() {
  static const FitBatch batch = [] {
    constexpr int kSamples = 48;
    darnet::util::Rng rng(0x5eedf17bULL);
    FitBatch b;
    b.frames = Tensor({kSamples, 1, kFrameEdge, kFrameEdge});
    b.imu = Tensor({kSamples, kImuSteps, kImuChannels});
    std::vector<Tensor> frames;
    std::vector<Tensor> imu;
    for (int i = 0; i < kSamples; ++i) {
      Tensor f({1, 1, kFrameEdge, kFrameEdge});
      Tensor w({1, kImuSteps, kImuChannels});
      make_entry(rng, f, w, nullptr, nullptr);
      frames.push_back(std::move(f));
      imu.push_back(std::move(w));
      b.labels.push_back(i % kClasses);
    }
    b.frames = tensor::stack_rows(frames);
    b.imu = tensor::stack_rows(imu);
    return b;
  }();
  return batch;
}

std::array<float, kClasses> row_of(const Tensor& t, int row) {
  std::array<float, kClasses> out{};
  for (int c = 0; c < kClasses; ++c) out[static_cast<std::size_t>(c)] = t.at(row, c);
  return out;
}

// --- layer replay -----------------------------------------------------------

/// Times `fn` repeatedly (about 20 ms worth, 5..200 reps) and returns the
/// median microseconds per call.
template <typename Fn>
double time_median_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const double first = to_us(Clock::now() - t0);
  const int reps = std::clamp(static_cast<int>(20000.0 / std::max(first, 1.0)),
                              5, 200);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto s = Clock::now();
    fn();
    samples.push_back(to_us(Clock::now() - s));
  }
  return median(std::move(samples));
}

/// Positions a weight is applied at, from the layer's output shape:
/// N*H*W for feature maps, N*T for sequences, N for vectors.
double positions(const tensor::Shape& out) {
  double p = out.empty() ? 0.0 : static_cast<double>(out[0]);
  if (out.size() == 4) p *= static_cast<double>(out[2] * out[3]);
  if (out.size() == 3) p *= static_cast<double>(out[1]);
  return p;
}

struct LayerCost {
  double flops{0.0};
  double bytes{0.0};
};

/// FLOPs and bytes from tensor shapes alone: 2 FLOPs per multiply-add of
/// every weight matrix (rank >= 2 parameter) at every output position, or
/// one op per input element for parameter-free layers; bytes are input +
/// output activations + parameters, fp32.
LayerCost layer_cost(nn::Layer& layer, const Tensor& in, const Tensor& out) {
  LayerCost cost;
  double params = 0.0;
  for (nn::Param* p : layer.params()) {
    const auto n = static_cast<double>(p->value.numel());
    params += n;
    if (p->value.shape().size() >= 2) cost.flops += 2.0 * n * positions(out.shape());
  }
  if (cost.flops == 0.0) cost.flops = static_cast<double>(in.numel());
  cost.bytes = 4.0 * (static_cast<double>(in.numel() + out.numel()) + params);
  return cost;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

void replay_model(const std::string& label, nn::Sequential& model,
                  const Tensor& b1, const Tensor& b8, MetricSet& out,
                  std::vector<std::string>& table) {
  Tensor x1 = b1;
  Tensor x8 = b8;
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    Tensor y1 = layer.forward(x1, false);
    Tensor y8 = layer.forward(x8, false);
    const double us1 = time_median_us([&] { (void)layer.forward(x1, false); });
    const double us8 = time_median_us([&] { (void)layer.forward(x8, false); });
    const LayerCost cost = layer_cost(layer, x8, y8);
    const double gflops = cost.flops / (us8 * 1e3);
    const std::string base =
        "nn." + label + "." + std::to_string(i) + "_" + lower(layer.name());
    out.set(base + ".us_b1", us1, "us", 1, "replay");
    out.set(base + ".us_b8", us8, "us", 1, "replay");
    out.set(base + ".gflops_b8", gflops, "GFLOP/s", 1, "replay");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%-34s %10.1f %10.1f %12.0f %11.0f %9.3f", base.c_str(), us1,
                  us8, cost.flops, cost.bytes, gflops);
    table.emplace_back(line);
    x1 = std::move(y1);
    x8 = std::move(y8);
  }
}

}  // namespace

InputPool make_input_pool(std::uint64_t seed, int entries, bool with_json) {
  InputPool pool;
  darnet::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int e = 0; e < entries; ++e) {
    Tensor frame({1, 1, kFrameEdge, kFrameEdge});
    Tensor imu({1, kImuSteps, kImuChannels});
    std::string fj;
    std::string ij;
    make_entry(rng, frame, imu, with_json ? &fj : nullptr,
               with_json ? &ij : nullptr);
    digest = fnv1a(frame.data(), frame.numel() * sizeof(float), digest);
    digest = fnv1a(imu.data(), imu.numel() * sizeof(float), digest);
    pool.frames.push_back(std::move(frame));
    pool.imu.push_back(std::move(imu));
    pool.frame_json.push_back(std::move(fj));
    pool.imu_json.push_back(std::move(ij));
  }
  pool.digest = digest;
  return pool;
}

TimedClassifier::TimedClassifier(
    std::shared_ptr<engine::ProbabilisticClassifier> inner,
    std::shared_ptr<ReplicaTrace> trace, bool frame)
    : inner_(std::move(inner)), trace_(std::move(trace)), frame_(frame) {}

Tensor TimedClassifier::probabilities(const Tensor& inputs) {
  const auto start = Clock::now();
  Tensor out = inner_->probabilities(inputs);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  trace_->calls.push_back(CallRecord{start, ns, inputs.dim(0), frame_});
  return out;
}

std::shared_ptr<engine::EnsembleClassifier> build_paper_ensemble(
    std::shared_ptr<ReplicaTrace> trace) {
  auto frame_net = std::make_shared<nn::Sequential>(
      engine::build_frame_cnn(engine::FrameCnnConfig{}));
  auto imu_net = std::make_shared<nn::Sequential>(
      engine::build_imu_rnn(engine::ImuRnnConfig{}));
  const int imu_classes = engine::ImuRnnConfig{}.num_classes;
  std::shared_ptr<engine::ProbabilisticClassifier> frame =
      std::make_shared<engine::NeuralClassifier>(frame_net, kClasses,
                                                 "frame-cnn");
  std::shared_ptr<engine::ProbabilisticClassifier> imu =
      std::make_shared<engine::NeuralClassifier>(imu_net, imu_classes,
                                                 "imu-bilstm");
  if (trace) {
    frame = std::make_shared<TimedClassifier>(frame, trace, true);
    imu = std::make_shared<TimedClassifier>(imu, trace, false);
  }
  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      frame, imu, darnet::bayes::ClassMap::darnet_default());
  const FitBatch& batch = fit_batch();
  ensemble->fit(batch.frames, batch.imu, batch.labels);
  return ensemble;
}

PaperStack build_paper_stack(const serve::RouterConfig& config, bool traced) {
  PaperStack stack;
  serve::Router::Snapshot snapshot;
  snapshot.version = 1;
  for (int s = 0; s < config.shards; ++s) {
    auto trace = traced ? std::make_shared<ReplicaTrace>() : nullptr;
    if (trace) trace->calls.reserve(1 << 16);
    stack.traces.push_back(trace);
    snapshot.replicas.push_back(build_paper_ensemble(trace));
  }
  stack.router = std::make_unique<serve::Router>(std::move(snapshot), config);
  return stack;
}

Reference make_reference(const InputPool& pool) {
  auto ensemble = build_paper_ensemble();
  Reference ref;
  constexpr std::size_t kChunk = 8;
  for (std::size_t begin = 0; begin < pool.size(); begin += kChunk) {
    const std::size_t end = std::min(pool.size(), begin + kChunk);
    const std::span<const Tensor> frames(pool.frames.data() + begin, end - begin);
    const std::span<const Tensor> imu(pool.imu.data() + begin, end - begin);
    const Tensor f = tensor::stack_rows(frames);
    const Tensor w = tensor::stack_rows(imu);
    const Tensor full = ensemble->classify_batch(f, w);
    const Tensor degraded = ensemble->classify_batch_degraded(f, w);
    for (std::size_t r = 0; r < end - begin; ++r) {
      ref.full.push_back(row_of(full, static_cast<int>(r)));
      ref.degraded.push_back(row_of(degraded, static_cast<int>(r)));
    }
  }
  return ref;
}

void check_verdicts(const std::vector<Observed>& observed,
                    const Reference& reference,
                    const engine::StreamingConfig& streaming,
                    RunResult& result) {
  // The repo's vector-ISA tolerance: batched and single-row passes agree
  // to 1e-4 per element, so classes may differ only on near-ties.
  constexpr float kTol = 1e-4f;
  std::unordered_map<std::uint64_t, engine::SessionState> states;
  std::unordered_set<std::uint64_t> tied;
  std::uint64_t checked = 0;
  std::array<std::uint64_t, kClasses> classes{};
  for (const Observed& o : observed) {
    if (!o.ok || tied.contains(o.session)) continue;
    if (o.pool_index >= reference.full.size()) {
      result.fail("verdict for unknown input " + std::to_string(o.pool_index));
      continue;
    }
    const auto& src = o.degraded ? reference.degraded[o.pool_index]
                                 : reference.full[o.pool_index];
    Tensor fused({1, kClasses});
    for (int c = 0; c < kClasses; ++c) fused.at(0, c) = src[static_cast<std::size_t>(c)];
    const engine::StreamingVerdict v =
        engine::advance(states[o.session], fused, streaming);
    ++checked;
    if (v.predicted >= 0 && v.predicted < kClasses) ++classes[static_cast<std::size_t>(v.predicted)];
    const std::string who = "session " + std::to_string(o.session) +
                            " step " + std::to_string(states[o.session].steps);

    std::array<float, kClasses> sorted{};
    for (int c = 0; c < kClasses; ++c) sorted[static_cast<std::size_t>(c)] = v.distribution.at(0, c);
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const bool near_tie = sorted[0] - sorted[1] <= kTol;

    if (o.confidence_only) {
      if (o.predicted >= 0 && o.predicted < kClasses &&
          std::abs(v.distribution.at(0, o.predicted) - o.confidence) >
              kTol + 1e-6f) {
        result.fail(who + ": confidence differs from replay");
      }
    } else {
      for (int c = 0; c < kClasses; ++c) {
        if (std::abs(v.distribution.at(0, c) -
                     o.distribution[static_cast<std::size_t>(c)]) > kTol) {
          result.fail(who + ": distribution differs from replay");
          break;
        }
      }
    }
    if (v.predicted != o.predicted) {
      // A near-tie may legitimately flip the class; the session's later
      // debounce state can then diverge, so stop checking it.
      if (near_tie) tied.insert(o.session);
      else result.fail(who + ": class " + std::to_string(o.predicted) +
                       " != replay " + std::to_string(v.predicted));
      continue;
    }
    if (v.alert != o.alert) result.fail(who + ": alert differs from replay");
  }
  if (checked == 0) result.fail("no ok verdict was checked");
  std::string note = "verdicts checked=" + std::to_string(checked) +
                     " near-tie sessions=" + std::to_string(tied.size()) +
                     " replayed classes=[";
  for (int c = 0; c < kClasses; ++c) {
    note += (c ? "," : "") + std::to_string(classes[static_cast<std::size_t>(c)]);
  }
  result.notes.push_back(note + "]");
}

void replay_layers(const InputPool& pool, MetricSet& out,
                   std::vector<std::string>& table) {
  nn::Sequential cnn = engine::build_frame_cnn(engine::FrameCnnConfig{});
  nn::Sequential rnn = engine::build_imu_rnn(engine::ImuRnnConfig{});
  const std::size_t n8 = std::min<std::size_t>(8, pool.size());
  const std::span<const Tensor> frames8(pool.frames.data(), n8);
  const std::span<const Tensor> imu8(pool.imu.data(), n8);
  char head[200];
  std::snprintf(head, sizeof(head), "%-34s %10s %10s %12s %11s %9s", "layer",
                "us_b1", "us_b8", "flops_b8", "bytes_b8", "GFLOP/s");
  table.emplace_back(head);
  replay_model("frame_cnn", cnn, pool.frames[0], tensor::stack_rows(frames8),
               out, table);
  replay_model("imu_rnn", rnn, pool.imu[0], tensor::stack_rows(imu8), out,
               table);

  // Bayesian combine at batch 8 on a fitted combiner.
  auto ensemble = build_paper_ensemble();
  Tensor p_img({8, kClasses});
  Tensor p_imu({8, 3});
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < kClasses; ++c) p_img.at(r, c) = 1.0f / kClasses;
    for (int c = 0; c < 3; ++c) p_imu.at(r, c) = 1.0f / 3.0f;
  }
  const darnet::bayes::BayesianCombiner& combiner = ensemble->combiner();
  constexpr int kInner = 64;
  const double us = time_median_us([&] {
    for (int i = 0; i < kInner; ++i) (void)combiner.combine(p_img, p_imu);
  });
  out.set("engine.combine_us_b8", us / kInner, "us", kInner, "replay");
}

void summarise_engine(const std::vector<std::shared_ptr<ReplicaTrace>>& traces,
                      Clock::time_point window_start,
                      Clock::time_point window_end, MetricSet& out) {
  double frame_ns = 0.0, imu_ns = 0.0;
  double frame_rows = 0.0, imu_rows = 0.0;
  std::vector<double> batch_us;
  for (const auto& trace : traces) {
    if (!trace) continue;
    // The IMU model runs in every batch (full and degraded) and always
    // after the frame model, so it closes a batch.
    double pending_frame_ns = 0.0;
    for (const CallRecord& call : trace->calls) {
      if (call.start < window_start || call.start > window_end) continue;
      const auto ns = static_cast<double>(call.ns);
      if (call.frame) {
        frame_ns += ns;
        frame_rows += call.rows;
        pending_frame_ns = ns;
      } else {
        imu_ns += ns;
        imu_rows += call.rows;
        batch_us.push_back((pending_frame_ns + ns) / 1e3);
        pending_frame_ns = 0.0;
      }
    }
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             window_end - window_start).count();
  const auto batches = static_cast<std::uint64_t>(batch_us.size());
  out.set("engine.frame_cnn_us_per_row",
          frame_rows > 0 ? frame_ns / frame_rows / 1e3 : 0.0, "us",
          static_cast<std::uint64_t>(frame_rows));
  out.set("engine.bilstm_us_per_row",
          imu_rows > 0 ? imu_ns / imu_rows / 1e3 : 0.0, "us",
          static_cast<std::uint64_t>(imu_rows));
  out.set("engine.batch_us.p50", quantile(batch_us, 0.50), "us", batches);
  out.set("engine.batch_us.p99", quantile(batch_us, 0.99), "us", batches);
  out.set("engine.busy_share",
          wall_ns > 0 ? (frame_ns + imu_ns) /
                            (wall_ns * static_cast<double>(traces.size()))
                      : 0.0,
          "share", batches);
}

}  // namespace perfbench
