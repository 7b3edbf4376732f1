#ifndef XFC_CROSSFIELD_CROSSFIELD_HPP
#define XFC_CROSSFIELD_CROSSFIELD_HPP

/// \file crossfield.hpp
/// The paper's contribution, end to end: error-bounded compression of a
/// target field using cross-field information from anchor fields.
///
/// Pipeline (paper Fig. 2):
///   anchor fields -> backward differences -> CFNN -> predicted target
///   differences -> n directional value predictors; hybrid model combines
///   them with Lorenzo; dual-quant delta coding as in the baseline.
///
/// Anchor protocol: encoder and decoder must feed *identical* anchor bytes.
/// In a multi-field store the anchors are compressed first (baseline) and
/// their reconstructions are used on both sides — dual quantization makes
/// the encoder-side reconstruction (sz_reconstruct) bit-exact with the
/// decoder's output, so this is easy to honour; MultiFieldCompressor
/// (multifield.hpp) automates it.
///
/// The CFNN + hybrid coefficients are embedded in the stream and counted
/// in the compressed size, exactly as the paper accounts for model cost.

#include <cstdint>
#include <span>
#include <vector>

#include "cfnn/cfnn.hpp"
#include "cfnn/trainer.hpp"
#include "core/field.hpp"
#include "encode/backend.hpp"
#include "hybrid/hybrid.hpp"
#include "quant/error_bound.hpp"
#include "sz/compressor.hpp"

namespace xfc {

struct CrossFieldOptions {
  ErrorBound eb = ErrorBound::relative(1e-3);
  LosslessBackend backend = LosslessBackend::kAuto;
  std::uint32_t quant_radius = kDefaultQuantRadius;
};

/// Trains a CFNN for (target <- anchors) on *original* data; the returned
/// model is reusable across error bounds (paper §III-D.2). Anchor order is
/// part of the model contract.
CfnnModel train_cross_field_model(const Field& target,
                                  const std::vector<const Field*>& anchors,
                                  const CfnnConfig& config,
                                  const CfnnTrainOptions& train_options);

/// Everything the encoder derives before entropy coding; exposed for the
/// prediction-accuracy experiments (paper Figs. 6/7) and ablations.
struct CrossFieldAnalysis {
  double abs_eb = 0.0;
  I32Array codes;                      // prequantized target
  std::vector<I32Array> candidates;    // n directional cross preds, then Lorenzo
  HybridModel hybrid;                  // fitted combination
  std::vector<I32Array> diff_codes;    // quantized CFNN difference predictions
};

/// Runs prequantization, CFNN inference, candidate construction and the
/// hybrid fit — the compression front half.
///
/// `precomputed_diffs` may pass the output of model.infer() on the anchor
/// difference tensor; CFNN inference is eb-independent, so sweeps over many
/// error bounds (Table II, Fig. 8) reuse one inference per field.
CrossFieldAnalysis cross_field_analyze(
    const Field& target, const std::vector<const Field*>& anchors,
    const CfnnModel& model, const CrossFieldOptions& options,
    const nn::Tensor* precomputed_diffs = nullptr);

/// Compresses `target` using `anchors` + a trained model.
std::vector<std::uint8_t> cross_field_compress(
    const Field& target, const std::vector<const Field*>& anchors,
    const CfnnModel& model, const CrossFieldOptions& options,
    SzStats* stats = nullptr,
    const nn::Tensor* precomputed_diffs = nullptr);

/// Decompresses; `anchors` must match the encoder's anchors bit-exactly
/// (same fields, same order).
Field cross_field_decompress(std::span<const std::uint8_t> stream,
                             const std::vector<const Field*>& anchors);

}  // namespace xfc

#endif  // XFC_CROSSFIELD_CROSSFIELD_HPP
