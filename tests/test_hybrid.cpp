// Tests for the hybrid prediction model (linear combiner) and its fit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/rng.hpp"
#include "encode/backend.hpp"
#include "hybrid/hybrid.hpp"
#include "sz/delta_codec.hpp"

namespace xfc {
namespace {

/// A model with the given weights and bias zero, built through the
/// serialized form (the only way to set arbitrary coefficients).
HybridModel model_with(const std::vector<double>& weights) {
  ByteWriter w;
  w.varint(weights.size());
  for (double x : weights) w.f64(x);
  w.f64(0.0);
  const auto bytes = w.take();
  ByteReader r(bytes);
  return HybridModel::deserialize(r);
}

/// `k` independent columns of uniform integers in [-1000, 1000).
std::vector<std::vector<std::int32_t>> random_columns(std::size_t k,
                                                      std::size_t n,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int32_t>> cols(k, std::vector<std::int32_t>(n));
  for (auto& col : cols)
    for (auto& v : col)
      v = static_cast<std::int32_t>(rng.uniform_index(2000)) - 1000;
  return cols;
}

std::vector<std::span<const std::int32_t>> spans_of(
    const std::vector<std::vector<std::int32_t>>& cols) {
  return {cols.begin(), cols.end()};
}

/// `model`'s prediction for every point of `cols`.
std::vector<std::int32_t> predict(
    const HybridModel& model,
    const std::vector<std::vector<std::int32_t>>& cols) {
  std::vector<std::int32_t> out(cols.front().size());
  std::array<std::int64_t, 4> p{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t c = 0; c < cols.size(); ++c) p[c] = cols[c][i];
    out[i] = static_cast<std::int32_t>(
        model.combine(std::span<const std::int64_t>(p.data(), cols.size())));
  }
  return out;
}

/// Bytes of `y`'s delta payload under `model` after the lossless stage, as
/// a cross-field stream stores it.
std::size_t coded_bytes(const HybridModel& model,
                        const std::vector<std::vector<std::int32_t>>& cols,
                        const std::vector<std::int32_t>& y) {
  const auto p = predict(model, cols);
  const std::vector<std::int64_t> preds(p.begin(), p.end());
  return lossless_compress(encode_deltas(y, preds, kDefaultQuantRadius))
      .size();
}

/// Fits to targets that are exactly the rounded planted blend, then checks
/// that the fitted blend reproduces every target (all deltas zero), on more
/// points than the score samples.
void expect_planted_blend_recovered(const std::vector<double>& planted,
                                    std::uint64_t seed) {
  const auto cols = random_columns(planted.size(), 100000, seed);
  const auto y = predict(model_with(planted), cols);
  const auto fitted = HybridModel::fit(spans_of(cols), y);
  EXPECT_EQ(predict(fitted, cols), y);
  EXPECT_EQ(fitted.bias(), 0.0);
}

TEST(Hybrid, FitRecoversPlantedFourPredictorBlend) {
  // The uniform start (1/4 each) lies on the 1/64 lattice, so every
  // lattice blend is reachable by pair moves.
  expect_planted_blend_recovered({23.0 / 64, 9.0 / 64, 20.0 / 64, 12.0 / 64},
                                 1);
  expect_planted_blend_recovered({50.0 / 64, 0.0, 3.0 / 64, 11.0 / 64}, 2);
}

TEST(Hybrid, FitRecoversPlantedThreePredictorBlend) {
  // With a dominant predictor the search starts from its one-hot blend,
  // which lies on the lattice (the uniform 1/3 does not).
  expect_planted_blend_recovered({48.0 / 64, 12.0 / 64, 4.0 / 64}, 3);
  expect_planted_blend_recovered({5.0 / 64, 13.0 / 64, 46.0 / 64}, 4);
}

TEST(Hybrid, FitIgnoresConstantCandidate) {
  // A constant column carries no information; the informative predictor
  // keeps all the weight.
  Rng rng(5);
  std::vector<std::int32_t> flat(5000, 7), good(5000), y(5000);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<std::int32_t>(rng.uniform_index(2000)) - 1000;
    good[i] = y[i] + static_cast<std::int32_t>(rng.uniform_index(3)) - 1;
  }
  const auto model = HybridModel::fit({flat, good}, y);
  EXPECT_EQ(model.weights(), (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(model.bias(), 0.0);
}

TEST(Hybrid, FitWithOnePredictor) {
  // k = 1 has no pair to move weight between: weight 1, bias from the
  // bias candidates only.
  Rng rng(6);
  std::vector<std::int32_t> c(3000), y(3000);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = static_cast<std::int32_t>(rng.uniform_index(500));
    y[i] = c[i] + static_cast<std::int32_t>(rng.uniform_index(5)) - 2;
  }
  const auto model = HybridModel::fit({c}, y);
  EXPECT_EQ(model.weights(), (std::vector<double>{1.0}));
  EXPECT_EQ(model.bias(), 0.0);
}

TEST(Hybrid, FitHandlesFieldsShorterThanTheSampleCap) {
  // Fewer points than the score's 32768-point sample, down to one, so the
  // score reads every point: the fit still returns a blend (weights summing
  // to one) that codes no larger than the uniform average or any single
  // predictor.
  for (std::size_t n : {1u, 2u, 7u, 1000u}) {
    const auto cols = random_columns(3, n, 10 + n);
    const auto y = predict(model_with({0.25, 0.5, 0.25}), cols);
    const auto model = HybridModel::fit(spans_of(cols), y);
    ASSERT_EQ(model.num_predictors(), 3u);
    double sum = 0.0;
    for (double w : model.weights()) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12) << "n = " << n;
    const std::size_t fitted = coded_bytes(model, cols, y);
    EXPECT_LE(fitted, coded_bytes(HybridModel(3), cols, y)) << "n = " << n;
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<double> one_hot(3, 0.0);
      one_hot[c] = 1.0;
      EXPECT_LE(fitted, coded_bytes(model_with(one_hot), cols, y))
          << "n = " << n << ", predictor " << c;
    }
  }
  const std::vector<std::int32_t> none;
  EXPECT_THROW(HybridModel::fit({none}, none), InvalidArgument);
  const std::vector<std::int32_t> two(2), three(3);
  EXPECT_THROW(HybridModel::fit({two, three}, two), InvalidArgument);
}

TEST(Hybrid, FitIsDeterministic) {
  // Noisy targets, so the search takes several moves and a bias.
  const auto cols = random_columns(3, 70000, 9);
  Rng rng(10);
  auto y = predict(model_with({0.5, 0.3, 0.2}), cols);
  for (auto& v : y) v += static_cast<std::int32_t>(rng.uniform_index(41)) - 20;
  const auto a = HybridModel::fit(spans_of(cols), y);
  const auto b = HybridModel::fit(spans_of(cols), y);
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.bias(), b.bias());
}

TEST(Hybrid, CombineRoundsToNearest) {
  HybridModel m(2);  // weights {0.5, 0.5}, bias 0
  const std::array<std::int64_t, 2> p{3, 4};
  EXPECT_EQ(m.combine(p), 4);  // 3.5 -> banker's/nearest even is fine: 4 or 3
  const std::array<std::int64_t, 2> q{4, 4};
  EXPECT_EQ(m.combine(q), 4);
}

TEST(Hybrid, CombineChecksArity) {
  HybridModel m(3);
  const std::array<std::int64_t, 2> p{1, 2};
  EXPECT_THROW(m.combine(p), InvalidArgument);
}

TEST(Hybrid, SgdLossDecreasesMonotonically) {
  Rng rng(4);
  const std::size_t n = 3000;
  std::vector<std::int32_t> c0(n), c1(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    c0[i] = static_cast<std::int32_t>(rng.uniform_index(200)) - 100;
    c1[i] = static_cast<std::int32_t>(rng.uniform_index(200)) - 100;
    y[i] = static_cast<std::int32_t>(std::lround(0.9 * c0[i] - 0.2 * c1[i]));
  }
  std::vector<double> losses;
  const auto model = HybridModel::fit_sgd({c0, c1}, y, 50, 0.5, &losses);
  ASSERT_EQ(losses.size(), 50u);
  EXPECT_LT(losses.back(), losses.front());
  // Most steps should not increase the loss (full-batch GD).
  int increases = 0;
  for (std::size_t i = 1; i < losses.size(); ++i)
    if (losses[i] > losses[i - 1] * 1.001) ++increases;
  EXPECT_LE(increases, 5);
}

TEST(Hybrid, SerializeRoundtrip) {
  Rng rng(5);
  std::vector<std::int32_t> c0(100), c1(100), c2(100), y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    c0[i] = static_cast<std::int32_t>(i);
    c1[i] = static_cast<std::int32_t>(2 * i);
    c2[i] = static_cast<std::int32_t>(rng.uniform_index(50));
    y[i] = c0[i] + c1[i];
  }
  const auto model = HybridModel::fit({c0, c1, c2}, y);

  ByteWriter w;
  model.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto restored = HybridModel::deserialize(r);

  EXPECT_EQ(restored.weights(), model.weights());
  EXPECT_EQ(restored.bias(), model.bias());
  const std::array<std::int64_t, 3> p{10, 20, 30};
  EXPECT_EQ(restored.combine(p), model.combine(p));
}

TEST(Hybrid, ParamCountMatchesPaperTable3) {
  // 2D: 3 predictors + bias = 4; 3D: 4 predictors + bias = 5.
  EXPECT_EQ(HybridModel(3).param_count(), 4u);
  EXPECT_EQ(HybridModel(4).param_count(), 5u);
}

TEST(Hybrid, UniformFallbackAverages) {
  HybridModel m(4);
  const std::array<std::int64_t, 4> p{4, 8, 12, 16};
  EXPECT_EQ(m.combine(p), 10);
}

TEST(Hybrid, DegenerateConstantCandidate) {
  // A constant candidate column must not destabilise the fit.
  std::vector<std::int32_t> c0(500, 7), y(500);
  for (std::size_t i = 0; i < 500; ++i)
    y[i] = static_cast<std::int32_t>(i % 13);
  const auto model = HybridModel::fit({c0}, y);
  // Prediction should approximate the mean of y.
  const std::array<std::int64_t, 1> p{7};
  EXPECT_NEAR(static_cast<double>(model.combine(p)), 6.0, 1.5);
}

TEST(Hybrid, DeserializeRejectsBadCounts) {
  ByteWriter w;
  w.varint(0);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(HybridModel::deserialize(r), CorruptStream);
}

}  // namespace
}  // namespace xfc
