// Tests for the analytics engine: classifier adapters, the ensemble, and
// the stream->model registry.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "engine/architectures.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "imu/imu.hpp"
#include "nn/dense.hpp"

namespace {

using namespace darnet;
using engine::ArchitectureKind;
using tensor::Tensor;

TEST(Architectures, FrameCnnShapesAndValidation) {
  engine::FrameCnnConfig cfg;
  cfg.input_size = 48;
  cfg.num_classes = 6;
  nn::Sequential cnn = engine::build_frame_cnn(cfg);
  Tensor out = cnn.forward(Tensor({2, 1, 48, 48}), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 6}));
  EXPECT_GT(cnn.parameter_count(), 1000u);

  cfg.input_size = 20;  // not divisible by 8
  EXPECT_THROW((void)engine::build_frame_cnn(cfg), std::invalid_argument);
}

TEST(Architectures, ImuRnnShapesMatchPaperWindow) {
  engine::ImuRnnConfig cfg;
  nn::Sequential rnn = engine::build_imu_rnn(cfg);
  Tensor out = rnn.forward(
      Tensor({3, imu::kWindowSteps, imu::kImuChannels}), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 3}));
}

TEST(Architectures, ImuRnnIsDeepAndBidirectional) {
  // Two stacked BiLstm layers (paper: "2 bidirectional LSTM cells").
  engine::ImuRnnConfig cfg;
  cfg.layers = 2;
  nn::Sequential rnn = engine::build_imu_rnn(cfg);
  // layers: BiLstm, BiLstm, TemporalMeanPool, Dense.
  EXPECT_EQ(rnn.size(), 4u);
  EXPECT_EQ(rnn.layer(0).name(), "BiLstm");
  EXPECT_EQ(rnn.layer(1).name(), "BiLstm");
}

TEST(NeuralClassifier, EmitsNormalisedDistributions) {
  util::Rng rng(1);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  engine::NeuralClassifier classifier(engine::borrow(model), 3, "toy");
  const Tensor p = classifier.probabilities(Tensor::uniform({5, 4}, 1.0f, rng));
  ASSERT_EQ(p.shape(), (std::vector<int>{5, 3}));
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) sum += p.at(i, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_EQ(classifier.describe(), "toy");
}

TEST(NeuralClassifier, DetectsClassCountMismatch) {
  util::Rng rng(2);
  nn::Sequential model;
  model.emplace<nn::Dense>(4, 3, rng);
  engine::NeuralClassifier classifier(engine::borrow(model), 5, "bad");
  EXPECT_THROW((void)classifier.probabilities(Tensor({1, 4})),
               std::logic_error);
}

TEST(SvmClassifier, AcceptsWindowTensorsDirectly) {
  svm::LinearSvm model(imu::kWindowSteps * imu::kImuChannels, 3);
  util::Rng rng(3);
  Tensor windows = Tensor::uniform(
      {8, imu::kWindowSteps, imu::kImuChannels}, 1.0f, rng);
  std::vector<int> labels{0, 1, 2, 0, 1, 2, 0, 1};
  model.fit(imu::flatten_windows(windows), labels);
  engine::SvmClassifier classifier(engine::borrow(model));
  const Tensor p = classifier.probabilities(windows);  // un-flattened input
  EXPECT_EQ(p.shape(), (std::vector<int>{8, 3}));
}

TEST(Ensemble, CnnOnlyDegradesToFrameModel) {
  util::Rng rng(4);
  nn::Sequential frame_model;
  frame_model.emplace<nn::Dense>(10, 6, rng);
  engine::NeuralClassifier frames(engine::borrow(frame_model), 6, "cnn");
  engine::EnsembleClassifier ensemble(engine::borrow(frames), nullptr,
                                      bayes::ClassMap::darnet_default());
  EXPECT_FALSE(ensemble.has_imu_model());

  Tensor x = Tensor::uniform({4, 10}, 1.0f, rng);
  const Tensor direct = frames.probabilities(x);
  const Tensor fused = ensemble.classify_batch(x, Tensor({4, 1, 1}));
  for (std::size_t i = 0; i < direct.numel(); ++i) {
    EXPECT_FLOAT_EQ(direct[i], fused[i]);
  }
}

TEST(Ensemble, RejectsClassMapMismatch) {
  util::Rng rng(5);
  nn::Sequential frame_model;
  frame_model.emplace<nn::Dense>(10, 4, rng);  // 4 != 6 image classes
  engine::NeuralClassifier frames(engine::borrow(frame_model), 4, "cnn");
  EXPECT_THROW(engine::EnsembleClassifier(engine::borrow(frames), nullptr,
                                          bayes::ClassMap::darnet_default()),
               std::invalid_argument);
}

TEST(Ensemble, FusionImprovesOnConfusedFrameModel) {
  // Frame model: uninformative between classes 0 and 2 (always 50/50).
  // IMU model: reliable. The fitted ensemble must beat the frame model.
  util::Rng rng(6);
  const int n = 300;
  Tensor frame_inputs({n, 2});   // feature: which of {0,2} the CNN "sees"
  Tensor imu_inputs({n, 3});     // one-hot-ish IMU evidence
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    const int y = (i % 2) ? 2 : 0;
    labels[static_cast<std::size_t>(i)] = y;
    frame_inputs.at(i, 0) = 1.0f;  // constant: the CNN learns nothing
    frame_inputs.at(i, 1) = 0.0f;
    for (int c = 0; c < 3; ++c) imu_inputs.at(i, c) = 0.05f;
    const int imu_verdict = rng.chance(0.93) ? (y == 2 ? 2 : 0)
                                             : (y == 2 ? 0 : 2);
    imu_inputs.at(i, imu_verdict) = 0.9f;
  }

  nn::Sequential frame_model;
  frame_model.emplace<nn::Dense>(2, 6, rng);
  engine::NeuralClassifier frames(engine::borrow(frame_model), 6, "cnn");

  // Identity "model" over the IMU evidence distribution.
  struct Identity final : engine::ProbabilisticClassifier {
    Tensor probabilities(const Tensor& inputs) override { return inputs; }
    int num_classes() const override { return 3; }
    std::string describe() const override { return "identity"; }
  } imu_model;

  engine::EnsembleClassifier ensemble(engine::borrow(frames),
                                      engine::borrow(imu_model),
                                      bayes::ClassMap::darnet_default());
  ensemble.fit(frame_inputs, imu_inputs, labels);
  const auto cm = ensemble.evaluate(frame_inputs, imu_inputs, labels);
  EXPECT_GT(cm.accuracy(), 0.85);  // frame model alone would be ~17-50%
}

TEST(Registry, OneToOneMappingEnforced) {
  util::Rng rng(7);
  nn::Sequential m1, m2;
  m1.emplace<nn::Dense>(4, 3, rng);
  m2.emplace<nn::Dense>(4, 3, rng);
  engine::NeuralClassifier c1(engine::borrow(m1), 3, "a");
  engine::NeuralClassifier c2(engine::borrow(m2), 3, "b");

  engine::AnalyticsEngine registry;
  registry.register_stream("camera", engine::borrow(c1));
  EXPECT_TRUE(registry.has_stream("camera"));
  EXPECT_THROW(registry.register_stream("camera", engine::borrow(c2)),
               std::invalid_argument);
  registry.register_stream("imu", engine::borrow(c2));
  EXPECT_EQ(registry.streams(),
            (std::vector<std::string>{"camera", "imu"}));
  EXPECT_EQ(registry.model_for("imu").describe(), "b");
  EXPECT_THROW((void)registry.model_for("lidar"), std::out_of_range);
}

TEST(Architectures, Names) {
  EXPECT_STREQ(engine::architecture_name(ArchitectureKind::kCnnOnly), "CNN");
  EXPECT_STREQ(engine::architecture_name(ArchitectureKind::kCnnSvm),
               "CNN+SVM");
  EXPECT_STREQ(engine::architecture_name(ArchitectureKind::kCnnRnn),
               "CNN+RNN");
}

// One non-finite row must not poison a session: advance() refuses it
// before touching the state, and the next finite row is served exactly as
// if the bad one had never arrived.
TEST(SessionState, NonFiniteRowIsRefusedWithoutTouchingState) {
  const engine::StreamingConfig config;
  auto row = [](float a, float b, float c) {
    Tensor t({1, 3});
    t.at(0, 0) = a;
    t.at(0, 1) = b;
    t.at(0, 2) = c;
    return t;
  };
  engine::SessionState state;
  (void)engine::advance(state, row(0.2f, 0.7f, 0.1f), config);
  (void)engine::advance(state, row(0.1f, 0.8f, 0.1f), config);
  const engine::SessionState reference = state;
  ASSERT_TRUE(reference.smoothed.has_value());

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Tensor& bad : {row(nan, 0.5f, 0.5f), row(0.5f, inf, 0.5f),
                            row(0.5f, 0.5f, -inf)}) {
    EXPECT_THROW((void)engine::advance(state, bad, config),
                 std::invalid_argument);
    ASSERT_TRUE(state.smoothed.has_value());
    EXPECT_EQ(std::memcmp(state.smoothed->data(), reference.smoothed->data(),
                          3 * sizeof(float)),
              0);
    EXPECT_EQ(state.streak, reference.streak);
    EXPECT_EQ(state.steps, reference.steps);
    EXPECT_EQ(state.alerts, reference.alerts);
  }

  engine::SessionState clean = reference;
  const Tensor next = row(0.6f, 0.3f, 0.1f);
  const engine::StreamingVerdict got = engine::advance(state, next, config);
  const engine::StreamingVerdict want = engine::advance(clean, next, config);
  EXPECT_EQ(got.predicted, want.predicted);
  EXPECT_EQ(got.alert, want.alert);
  EXPECT_EQ(got.alert_onset, want.alert_onset);
  EXPECT_EQ(std::memcmp(got.distribution.data(), want.distribution.data(),
                        3 * sizeof(float)),
            0);
  EXPECT_EQ(state.streak, clean.streak);
  EXPECT_EQ(state.steps, clean.steps);
}

}  // namespace
