#include "engine/session.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/ops.hpp"

namespace darnet::engine {

void validate(const StreamingConfig& config, const char* who) {
  if (config.smoothing_alpha <= 0.0 || config.smoothing_alpha > 1.0) {
    throw std::invalid_argument(std::string(who) +
                                ": smoothing_alpha must be in (0, 1]");
  }
  if (config.alert_streak < 1) {
    throw std::invalid_argument(std::string(who) +
                                ": alert_streak must be >= 1");
  }
}

StreamingVerdict advance(SessionState& state, const Tensor& fused,
                         const StreamingConfig& config) {
  if (fused.rank() != 2 || fused.dim(0) != 1) {
    throw std::invalid_argument("engine::advance: [1, C] rows required");
  }
  // Refused before any state changes: one non-finite row would pin the
  // EWMA (and so the argmax) for the rest of the session.
  for (const float p : fused.flat()) {
    if (!std::isfinite(p)) {
      throw std::invalid_argument("engine::advance: non-finite row");
    }
  }
  if (!state.smoothed) {
    state.smoothed = fused;
  } else {
    if (state.smoothed->numel() != fused.numel()) {
      throw std::invalid_argument(
          "engine::advance: class count changed mid-session");
    }
    const auto alpha = static_cast<float>(config.smoothing_alpha);
    float* s = state.smoothed->data();
    const float* f = fused.data();
    for (std::size_t i = 0; i < fused.numel(); ++i) {
      s[i] = (1.0f - alpha) * s[i] + alpha * f[i];
    }
  }

  StreamingVerdict verdict;
  verdict.distribution = *state.smoothed;
  verdict.predicted = tensor::argmax(std::span<const float>(
      state.smoothed->data(), state.smoothed->numel()));

  if (verdict.predicted != config.normal_class) {
    ++state.streak;
  } else {
    state.streak = 0;
  }
  verdict.alert = state.streak >= config.alert_streak;
  verdict.alert_onset = state.streak == config.alert_streak;
  if (verdict.alert_onset) ++state.alerts;
  ++state.steps;
  return verdict;
}

}  // namespace darnet::engine
