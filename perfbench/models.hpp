// The paper's models as the benchmark serves them: seeded inputs, the
// CNN + BiLSTM ensemble replicas behind a Router, the timing decorators
// of the traced run, the replay reference the output checks compare
// against, and the layer-by-layer replays.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "harness.hpp"
#include "serve/router.hpp"

namespace perfbench {

using darnet::tensor::Tensor;

// Repo defaults of engine::build_frame_cnn / engine::build_imu_rnn.
inline constexpr int kFrameEdge = 48;
inline constexpr int kImuSteps = 20;
inline constexpr int kImuChannels = 13;
inline constexpr int kClasses = 6;

/// Seeded request inputs, generated before any timing starts. Every float
/// is stored as the value its JSON text parses back to, so a frame sent
/// over HTTP reaches the engine bit-identical to the tensor kept here.
struct InputPool {
  std::vector<Tensor> frames;  // [1, 1, 48, 48] each
  std::vector<Tensor> imu;     // [1, 20, 13] each
  std::vector<std::string> frame_json;  // "[v,v,...]"
  std::vector<std::string> imu_json;
  std::uint64_t digest{0};

  [[nodiscard]] std::size_t size() const noexcept { return frames.size(); }
};
[[nodiscard]] InputPool make_input_pool(std::uint64_t seed, int entries,
                                        bool with_json);

/// One model call seen by a timing decorator.
struct CallRecord {
  Clock::time_point start;
  std::int64_t ns{0};
  int rows{0};
  bool frame{false};
};

/// Per-replica call log of the traced run. Both decorators of one replica
/// are only ever called from that shard's single worker (the shard
/// serialises batches on its exec lock), so the log needs no lock; it is
/// read after the router has drained.
struct ReplicaTrace {
  std::vector<CallRecord> calls;
};

/// Timing decorator over a per-modality classifier: forwards every call
/// and appends a CallRecord to its replica's trace.
class TimedClassifier final
    : public darnet::engine::ProbabilisticClassifier {
 public:
  TimedClassifier(
      std::shared_ptr<darnet::engine::ProbabilisticClassifier> inner,
      std::shared_ptr<ReplicaTrace> trace, bool frame);

  [[nodiscard]] Tensor probabilities(const Tensor& inputs) override;
  [[nodiscard]] int num_classes() const override {
    return inner_->num_classes();
  }
  [[nodiscard]] std::string describe() const override {
    return "timed(" + inner_->describe() + ")";
  }

 private:
  std::shared_ptr<darnet::engine::ProbabilisticClassifier> inner_;
  std::shared_ptr<ReplicaTrace> trace_;
  bool frame_;
};

/// One fitted CNN + BiLSTM ensemble replica at the repo's default
/// architectures and seeds. With `trace` set, both classifiers are wrapped
/// in TimedClassifier decorators logging into it.
[[nodiscard]] std::shared_ptr<darnet::engine::EnsembleClassifier>
build_paper_ensemble(std::shared_ptr<ReplicaTrace> trace = nullptr);

/// A router over fresh paper-ensemble replicas, plus the traces of its
/// replicas (empty pointers when untraced).
struct PaperStack {
  std::unique_ptr<darnet::serve::Router> router;
  std::vector<std::shared_ptr<ReplicaTrace>> traces;
};
[[nodiscard]] PaperStack build_paper_stack(
    const darnet::serve::RouterConfig& config, bool traced);

/// Fused distributions of every pool entry through a reference replica,
/// full and degraded: the values engine::advance is replayed with.
struct Reference {
  std::vector<std::array<float, kClasses>> full;
  std::vector<std::array<float, kClasses>> degraded;
};
[[nodiscard]] Reference make_reference(const InputPool& pool);

/// What the client saw for one request, in per-session submission order.
struct Observed {
  std::uint64_t session{0};
  std::uint32_t pool_index{0};
  bool ok{false};
  bool degraded{false};
  int predicted{0};
  bool alert{false};
  /// Served smoothed distribution (in-process workloads) or only the
  /// confidence of the predicted class (HTTP: `confidence_only`).
  std::array<float, kClasses> distribution{};
  bool confidence_only{false};
  float confidence{0.0f};
};

/// Replays every ok verdict through engine::advance on the reference
/// distributions and records mismatches in `result`. `observed` must list
/// each session's requests in the order they were submitted.
void check_verdicts(const std::vector<Observed>& observed,
                    const Reference& reference,
                    const darnet::engine::StreamingConfig& streaming,
                    RunResult& result);

/// Traced-run replays on a private replica: every nn layer of both models
/// at batch 1 and 8 (time, FLOPs and bytes from tensor shapes) and the
/// Bayesian combine at batch 8. Adds metrics to `out`; prints the layer
/// table to `table`.
void replay_layers(const InputPool& pool, MetricSet& out,
                   std::vector<std::string>& table);

/// The layer -> per-layer metrics of one traced serving run, derived from
/// the replica call logs over [window_start, window_end].
void summarise_engine(const std::vector<std::shared_ptr<ReplicaTrace>>& traces,
                      Clock::time_point window_start,
                      Clock::time_point window_end, MetricSet& out);

}  // namespace perfbench
