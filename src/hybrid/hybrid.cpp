#include "hybrid/hybrid.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/utils.hpp"
#include "encode/backend.hpp"
#include "sz/delta_codec.hpp"

namespace xfc {
namespace {

/// The search scores blends on every ceil(n / kScorePoints)-th point.
constexpr std::size_t kScorePoints = 32768;

/// Writes `model`'s blend of `cols` (one int32 column per predictor) for
/// every point to `out`, before rounding: combine()'s sums in combine()'s
/// order, a column at a time so the loops vectorize.
template <class Columns>
void blend(const HybridModel& model, const Columns& cols,
           std::span<double> out) {
  std::fill(out.begin(), out.end(), model.bias());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const double w = model.weights()[c];
    const std::int32_t* col = cols[c].data();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += w * col[i];
  }
}

/// combine()'s rounding of a blended sum: clamped to the int32 range first,
/// where the 1.5 * 2^52 shift rounds to nearest-even exactly.
std::int64_t round_blend(double sum) {
  sum = std::min(std::max(sum, static_cast<double>(INT32_MIN)),
                 static_cast<double>(INT32_MAX));
  return static_cast<std::int64_t>((sum + 0x1.8p52) - 0x1.8p52);
}

/// Scores a blend by the Shannon entropy, in bits, of the delta symbols it
/// leaves on a fixed subsample: what the Huffman stage pays, give or take
/// its table. Symbols at or past `escape` share the escape's bucket.
class BlendScorer {
 public:
  BlendScorer(const std::vector<std::span<const std::int32_t>>& candidates,
              std::span<const std::int32_t> targets, std::uint32_t escape)
      : escape_(escape), hist_(escape + 1, 0) {
    const std::size_t stride =
        (targets.size() + kScorePoints - 1) / kScorePoints;
    auto sample = [&](std::span<const std::int32_t> from) {
      std::vector<std::int32_t> to;
      for (std::size_t i = 0; i < from.size(); i += stride)
        to.push_back(from[i]);
      return to;
    };
    for (const auto& c : candidates) columns_.push_back(sample(c));
    targets_ = sample(targets);
    sums_.resize(targets_.size());
    symbols_.resize(targets_.size());
  }

  double operator()(const HybridModel& model) {
    blend(model, columns_, sums_);
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      const std::uint64_t zz =
          zigzag_encode64(targets_[i] - round_blend(sums_[i]));
      symbols_[i] = static_cast<std::uint32_t>(std::min(zz, escape_));
    }
    for (std::uint32_t sym : symbols_)
      if (hist_[sym]++ == 0) seen_.push_back(sym);
    const double m = static_cast<double>(symbols_.size());
    double bits = 0.0;
    for (std::uint32_t sym : seen_) {
      const double count = hist_[sym];
      bits += count * std::log2(m / count);
      hist_[sym] = 0;
    }
    seen_.clear();
    return bits;
  }

 private:
  std::uint64_t escape_;
  std::vector<std::vector<std::int32_t>> columns_;  // sampled candidates
  std::vector<std::int32_t> targets_;               // sampled codes
  std::vector<double> sums_;
  std::vector<std::uint32_t> symbols_;
  std::vector<std::uint32_t> hist_;  // all zero between calls
  std::vector<std::uint32_t> seen_;  // buckets this call has touched
};

}  // namespace

HybridModel HybridModel::fit(
    const std::vector<std::span<const std::int32_t>>& candidates,
    std::span<const std::int32_t> targets, std::uint32_t quant_radius,
    LosslessBackend backend) {
  expects(!candidates.empty(), "HybridModel::fit: no candidate predictors");
  const std::size_t k = candidates.size();
  for (const auto& c : candidates)
    expects(c.size() == targets.size(),
            "HybridModel::fit: candidate size mismatch");
  expects(!targets.empty(), "HybridModel::fit: no samples");

  // What the stream stores for a blend: its delta payload after the
  // lossless stage, as cross_field_compress codes it.
  std::vector<double> sums(targets.size());
  std::vector<std::int64_t> preds(targets.size());
  auto coded_bytes = [&](const HybridModel& m) {
    blend(m, candidates, sums);
    for (std::size_t i = 0; i < sums.size(); ++i)
      preds[i] = round_blend(sums[i]);
    return lossless_compress(encode_deltas(targets, preds, quant_radius),
                             backend)
        .size();
  };

  // Start from whichever of the uniform average and the single predictors
  // codes smallest.
  HybridModel start(k);
  std::size_t start_bytes = coded_bytes(start);
  for (std::size_t c = 0; c < k; ++c) {
    HybridModel one;
    one.weights_.assign(k, 0.0);
    one.weights_[c] = 1.0;
    const std::size_t bytes = coded_bytes(one);
    if (bytes < start_bytes) {
      start = std::move(one);
      start_bytes = bytes;
    }
  }

  // The histogram is capped at the default radius's alphabet; past it, a
  // wider radius only moves rare symbols out of the escape bucket.
  BlendScorer score(candidates, targets,
                    2 * std::min(quant_radius, kDefaultQuantRadius));
  HybridModel best = start;
  double best_bits = score(best);
  auto consider = [&](HybridModel m) {
    const double bits = score(m);
    if (bits >= best_bits) return false;
    best = std::move(m);
    best_bits = bits;
    return true;
  };

  // Coarse to fine, take the best move of `step` weight from one predictor
  // to another while it lowers the score.
  for (double step = 1.0 / 4; step >= 1.0 / 64; step /= 2) {
    for (bool moved = true; moved;) {
      const HybridModel here = best;
      moved = false;
      for (std::size_t from = 0; from < k; ++from)
        for (std::size_t to = 0; to < k; ++to) {
          if (from == to) continue;
          HybridModel m = here;
          m.weights_[from] -= step;
          m.weights_[to] += step;
          moved = consider(std::move(m)) || moved;
        }
    }
  }
  const HybridModel unbiased = best;
  for (double bias : {-1.0, -0.5, 0.5, 1.0}) {
    HybridModel m = unbiased;
    m.bias_ = bias;
    consider(std::move(m));
  }

  // The score leaves out the Huffman table and the lossless stage, so the
  // search's blend must also code smaller than its start to replace it.
  return coded_bytes(best) < start_bytes ? best : start;
}

HybridModel HybridModel::fit_sgd(
    const std::vector<std::span<const std::int32_t>>& candidates,
    std::span<const std::int32_t> targets, std::size_t epochs,
    double learning_rate, std::vector<double>* epoch_losses) {
  expects(!candidates.empty() && epochs > 0,
          "HybridModel::fit_sgd: bad arguments");
  const std::size_t k = candidates.size();
  const std::size_t n = targets.size();
  for (const auto& c : candidates)
    expects(c.size() == n, "HybridModel::fit_sgd: candidate size mismatch");

  // Scale features by the target RMS so one learning rate works across
  // error bounds (codes grow as eb shrinks).
  double rms = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    rms += static_cast<double>(targets[i]) * targets[i];
  rms = std::sqrt(rms / static_cast<double>(n));
  const double s = rms > 1e-12 ? 1.0 / rms : 1.0;

  HybridModel model(k);  // start from the uniform average
  if (epoch_losses != nullptr) epoch_losses->clear();

  for (std::size_t e = 0; e < epochs; ++e) {
    // Full-batch gradient of the scaled MSE.
    std::vector<double> gw(k, 0.0);
    double gb = 0.0;
    double loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double pred = model.bias_;
      for (std::size_t c = 0; c < k; ++c)
        pred += model.weights_[c] * candidates[c][i];
      const double err = (pred - targets[i]) * s;
      loss += err * err;
      const double g = 2.0 * err * s;
      for (std::size_t c = 0; c < k; ++c) gw[c] += g * candidates[c][i];
      gb += g;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    loss *= inv_n;
    for (std::size_t c = 0; c < k; ++c)
      model.weights_[c] -= learning_rate * gw[c] * inv_n;
    model.bias_ -= learning_rate * gb * inv_n;
    if (epoch_losses != nullptr) epoch_losses->push_back(loss);
  }
  return model;
}

std::int64_t HybridModel::combine(std::span<const std::int64_t> preds) const {
  expects(preds.size() == weights_.size(),
          "HybridModel::combine: predictor count mismatch");
  double acc = bias_;
  for (std::size_t c = 0; c < preds.size(); ++c)
    acc += weights_[c] * static_cast<double>(preds[c]);
  const double r = std::nearbyint(acc);
  if (r > static_cast<double>(INT32_MAX)) return INT32_MAX;
  if (r < static_cast<double>(INT32_MIN)) return INT32_MIN;
  return static_cast<std::int64_t>(r);
}

void HybridModel::serialize(ByteWriter& out) const {
  out.varint(weights_.size());
  for (double w : weights_) out.f64(w);
  out.f64(bias_);
}

HybridModel HybridModel::deserialize(ByteReader& in) {
  HybridModel m;
  const std::uint64_t k = in.varint();
  if (k == 0 || k > 64) throw CorruptStream("HybridModel: bad predictor count");
  m.weights_.resize(k);
  for (double& w : m.weights_) w = in.f64();
  m.bias_ = in.f64();
  return m;
}

}  // namespace xfc
