#ifndef XFC_HYBRID_HYBRID_HPP
#define XFC_HYBRID_HYBRID_HPP

/// \file hybrid.hpp
/// The hybrid prediction model (paper §III-D.3): a learned linear
/// combination of the n+1 candidate predictions (n cross-field directional
/// predictors + Lorenzo), plus a bias. Deliberately tiny — decompression is
/// sequential, so the per-point cost must stay near a dot product — and its
/// parameter count matches the paper's Table III (4 for 2D, 5 for 3D:
/// n+1 weights + bias).
///
/// Two fitting paths:
///  - fit(): the production fit, a search scored by what the delta coder
///    pays;
///  - fit_sgd(): epoch-based gradient descent exposing the loss curve
///    (reproduces the right panel of paper Fig. 5).

#include <cstdint>
#include <span>
#include <vector>

#include "encode/backend.hpp"
#include "io/bytebuffer.hpp"
#include "sz/delta_codec.hpp"

namespace xfc {

class HybridModel {
 public:
  HybridModel() = default;

  /// Uniform-average model over `k` predictors (untrained fallback).
  explicit HybridModel(std::size_t k)
      : weights_(k, k > 0 ? 1.0 / static_cast<double>(k) : 0.0) {}

  /// The production fit. `candidates[c][i]` is predictor c's prediction
  /// for point i; `targets[i]` the true quantization code. The search
  /// starts from whichever of the uniform average and each single
  /// predictor codes smallest (delta payload after `backend`). It then
  /// takes the best move of 1/4, 1/8, ..., 1/64 weight between two
  /// predictors while that lowers the score, and last tries biases of
  /// +-0.5 and +-1. A blend's score is the Shannon entropy of its zigzag
  /// delta symbols over every ceil(n/32768)-th point; symbols at or past
  /// the coder's escape (2 * quant_radius, capped at the default radius's)
  /// share one bucket. The searched blend replaces the start only if it
  /// codes smaller. Serial and deterministic.
  static HybridModel fit(
      const std::vector<std::span<const std::int32_t>>& candidates,
      std::span<const std::int32_t> targets,
      std::uint32_t quant_radius = kDefaultQuantRadius,
      LosslessBackend backend = LosslessBackend::kAuto);

  /// Gradient-descent fit returning per-epoch MSE (Fig. 5, right panel).
  static HybridModel fit_sgd(
      const std::vector<std::span<const std::int32_t>>& candidates,
      std::span<const std::int32_t> targets, std::size_t epochs,
      double learning_rate, std::vector<double>* epoch_losses);

  std::size_t num_predictors() const { return weights_.size(); }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Parameter count as reported in Table III (weights + bias).
  std::size_t param_count() const { return weights_.size() + 1; }

  /// Combines one point's candidate predictions into the final integer
  /// prediction. Must be bit-identical on encoder and decoder: all math is
  /// double with serialised coefficients.
  std::int64_t combine(std::span<const std::int64_t> preds) const;

  void serialize(ByteWriter& out) const;
  static HybridModel deserialize(ByteReader& in);

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace xfc

#endif  // XFC_HYBRID_HYBRID_HPP
