#include "nn/trainer.h"

#include <gtest/gtest.h>

#include <sstream>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace noodle::nn {
namespace {

/// Two Gaussian blobs, linearly separable with margin.
void make_blobs(std::size_t n, Matrix& x, std::vector<int>& y, std::uint64_t seed) {
  util::Rng rng(seed);
  x = Matrix(n, 8);
  y.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    y.push_back(label);
    const double center = label == 1 ? 1.5 : -1.5;
    for (std::size_t c = 0; c < 8; ++c) x(i, c) = rng.normal(center, 1.0);
  }
}

TEST(Optimizer, SgdMinimizesQuadratic) {
  // One parameter, loss = (w-3)^2; gradient descent must approach w = 3.
  double w = 0.0, g = 0.0;
  const std::vector<ParamView> params = {{&w, &g, 1}};
  Sgd optimizer(0.1);
  for (int i = 0; i < 200; ++i) {
    g = 2.0 * (w - 3.0);
    optimizer.step(params);
  }
  EXPECT_NEAR(w, 3.0, 1e-4);
}

TEST(Optimizer, SgdMomentumAcceleratesDescent) {
  double w1 = 0.0, g1 = 0.0, w2 = 0.0, g2 = 0.0;
  Sgd plain(0.01), momentum(0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    g1 = 2.0 * (w1 - 3.0);
    plain.step({{&w1, &g1, 1}});
    g2 = 2.0 * (w2 - 3.0);
    momentum.step({{&w2, &g2, 1}});
  }
  EXPECT_GT(std::abs(w2 - 0.0), std::abs(w1 - 0.0));  // momentum moved further
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  double w = 10.0, g = 0.0;
  Adam optimizer(0.1);
  for (int i = 0; i < 500; ++i) {
    g = 2.0 * (w - 3.0);
    optimizer.step({{&w, &g, 1}});
  }
  EXPECT_NEAR(w, 3.0, 1e-2);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  double w = 1.0, g = 0.0;  // zero task gradient, pure decay
  Sgd optimizer(0.1, 0.0, 0.5);
  for (int i = 0; i < 10; ++i) {
    g = 0.0;
    optimizer.step({{&w, &g, 1}});
  }
  EXPECT_LT(w, 1.0);
}

TEST(Optimizer, ChangedParameterListThrows) {
  double w = 0.0, g = 0.0, w2 = 0.0, g2 = 0.0;
  Adam optimizer;
  optimizer.step({{&w, &g, 1}});
  EXPECT_THROW(optimizer.step({{&w, &g, 1}, {&w2, &g2, 1}}), std::invalid_argument);
}

TEST(Trainer, LearnsSeparableBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(160, x, y, 3);

  util::Rng rng(7);
  Sequential model = make_mlp(8, {16}, 1, rng);
  TrainConfig config;
  config.epochs = 60;
  config.validation_fraction = 0.0;
  const TrainResult result = train_binary_classifier(model, x, y, config);
  EXPECT_GT(result.epochs_run, 0u);
  EXPECT_LT(result.final_train_loss, 0.2);

  // Training accuracy should be high on separable data.
  const std::vector<double> probs = predict_proba(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    correct += ((probs[i] > 0.5) == (y[i] == 1)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(y.size()), 0.95);
}

TEST(Trainer, CnnFactoryLearnsBlobs) {
  Matrix x;
  std::vector<int> y;
  make_blobs(120, x, y, 11);
  util::Rng rng(5);
  Sequential model = make_cnn(8, rng);
  TrainConfig config;
  config.epochs = 40;
  config.validation_fraction = 0.0;
  train_binary_classifier(model, x, y, config);
  const std::vector<double> probs = predict_proba(model, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    correct += ((probs[i] > 0.5) == (y[i] == 1)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(y.size()), 0.9);
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  // Pure-noise labels: validation loss cannot keep improving, so the
  // patience counter must fire well before the epoch budget.
  util::Rng noise_rng(13);
  Matrix x(100, 8);
  for (double& v : x.data()) v = noise_rng.normal();
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) y.push_back(noise_rng.bernoulli(0.5) ? 1 : 0);
  util::Rng rng(9);
  Sequential model = make_mlp(8, {8}, 1, rng);
  TrainConfig config;
  config.epochs = 500;
  config.validation_fraction = 0.25;
  config.patience = 5;
  const TrainResult result = train_binary_classifier(model, x, y, config);
  EXPECT_LT(result.epochs_run, 500u);  // stopped early
  EXPECT_FALSE(result.validation_loss_curve.empty());
}

TEST(Trainer, DeterministicGivenSeed) {
  Matrix x;
  std::vector<int> y;
  make_blobs(60, x, y, 17);
  TrainConfig config;
  config.epochs = 10;
  config.seed = 99;

  util::Rng rng_a(21);
  Sequential a = make_mlp(8, {8}, 1, rng_a);
  train_binary_classifier(a, x, y, config);
  util::Rng rng_b(21);
  Sequential b = make_mlp(8, {8}, 1, rng_b);
  train_binary_classifier(b, x, y, config);

  EXPECT_EQ(predict_proba(a, x), predict_proba(b, x));
}

TEST(Trainer, RejectsBadInput) {
  Sequential model;
  Matrix empty;
  const std::vector<int> y = {};
  TrainConfig config;
  EXPECT_THROW(train_binary_classifier(model, empty, y, config),
               std::invalid_argument);
}

TEST(Trainer, PredictProbaRequiresSingleLogit) {
  util::Rng rng(1);
  Sequential model = make_mlp(4, {}, 2, rng);
  Matrix x(1, 4);
  EXPECT_THROW(predict_proba(model, x), std::invalid_argument);
}

TEST(Trainer, MakeCnnRejectsNarrowInput) {
  util::Rng rng(1);
  EXPECT_THROW(make_cnn(4, rng), std::invalid_argument);
}

TEST(Model, SaveLoadRoundTrip) {
  util::Rng rng(31);
  Sequential a = make_mlp(6, {12}, 1, rng);
  std::stringstream blob;
  a.save_weights(blob);

  util::Rng rng2(99);  // different init
  Sequential b = make_mlp(6, {12}, 1, rng2);
  Matrix x(3, 6, 0.5);
  EXPECT_NE(a.forward(x, false).data(), b.forward(x, false).data());
  b.load_weights(blob);
  EXPECT_EQ(a.forward(x, false).data(), b.forward(x, false).data());
}

TEST(Model, LoadRejectsArchitectureMismatch) {
  util::Rng rng(1);
  Sequential a = make_mlp(6, {12}, 1, rng);
  std::stringstream blob;
  a.save_weights(blob);
  Sequential b = make_mlp(6, {13}, 1, rng);
  EXPECT_THROW(b.load_weights(blob), std::runtime_error);
}

}  // namespace
}  // namespace noodle::nn
