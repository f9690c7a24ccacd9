// Per-driver session state: the temporal smoothing + debounced alerting
// recurrence, extracted into a copyable value type.
//
// Historically this state lived twice -- inside `StreamingClassifier`
// (online) and re-implemented inside `smooth_timeline` (offline). The
// serving tier (src/serve) needs the same recurrence a third time, per
// concurrent driver session, so the single implementation now lives here:
// `SessionState` is a plain value and `advance` applies one fused
// distribution to it. `StreamingClassifier`, `smooth_timeline` and the
// serve scheduler are all thin wrappers over this function, which is what
// makes the batched server's verdict stream bit-identical to the
// single-threaded reference (see tests/test_serve.cpp).
//
// This header deliberately depends only on the tensor layer so that both
// engine/engine.hpp (request/result types) and engine/streaming.hpp can
// include it without a cycle.
#pragma once

#include <optional>

#include "tensor/tensor.hpp"

namespace darnet::engine {

using tensor::Tensor;

struct StreamingConfig {
  /// EWMA weight of the newest fused distribution (1.0 = no smoothing).
  double smoothing_alpha = 0.6;
  /// Consecutive distracted steps before an alert fires.
  int alert_streak = 2;
  /// The class index treated as "not distracted".
  int normal_class = 0;
};

/// Throws std::invalid_argument unless alpha is in (0, 1] and
/// alert_streak >= 1. `who` prefixes the diagnostic.
void validate(const StreamingConfig& config, const char* who);

struct StreamingVerdict {
  int predicted{0};
  Tensor distribution;    // smoothed, [1, C]
  bool alert{false};      // a debounced distraction alert fired this step
  bool alert_onset{false};  // first step of a new alert episode
};

/// The temporal state of one driver session. Copyable and movable: the
/// serve tier keeps one per session id, StreamingClassifier keeps one per
/// instance, smooth_timeline keeps one per call.
struct SessionState {
  /// EWMA-smoothed fused distribution ([1, C]); empty before step one.
  std::optional<Tensor> smoothed;
  /// Consecutive steps whose smoothed argmax was not `normal_class`.
  int streak{0};
  /// Total steps advanced (monotonic; survives reset_temporal).
  int steps{0};
  /// Total debounced alert episodes begun (monotonic).
  int alerts{0};

  /// Drop the temporal recurrence (new trip, same session object); the
  /// monotonic steps/alerts counters are preserved.
  void reset_temporal() {
    smoothed.reset();
    streak = 0;
  }
};

/// Apply one fused per-step distribution (`fused`, shape [1, C]) to the
/// session: EWMA-smooth, argmax, update the debounce streak, and count.
/// Bitwise-identical to the historical StreamingClassifier::step /
/// smooth_timeline arithmetic. Throws std::invalid_argument, leaving
/// `state` untouched, on a row that is not [1, C] or holds a non-finite
/// value. The config is NOT validated here (callers validate once up front
/// with `validate`).
StreamingVerdict advance(SessionState& state, const Tensor& fused,
                         const StreamingConfig& config);

}  // namespace darnet::engine
