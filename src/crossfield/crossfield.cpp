#include "crossfield/crossfield.hpp"

#include <array>
#include <cmath>

#include "cfnn/difference.hpp"
#include "core/error.hpp"
#include "core/utils.hpp"
#include "encode/backend.hpp"
#include "quant/dual_quant.hpp"
#include "sz/container.hpp"
#include "sz/delta_codec.hpp"

namespace xfc {
namespace {

void check_anchors(const Field& target,
                   const std::vector<const Field*>& anchors) {
  expects(!anchors.empty(), "cross-field: at least one anchor is required");
  expects(target.shape().ndim() >= 2,
          "cross-field: target must be 2D or 3D (CFNN operates on slices)");
  for (const Field* a : anchors)
    expects(a != nullptr && a->shape() == target.shape(),
            "cross-field: anchors must match the target shape");
}

/// Neighbour code along `axis` with the SZ zero-boundary convention.
inline std::int64_t neighbor_code(const I32Array& codes, const Shape& s,
                                  std::size_t i, std::size_t j, std::size_t k,
                                  std::size_t axis) {
  if (axis == 0) return i == 0 ? 0 : codes.data()[
      s.ndim() == 2 ? (i - 1) * s[1] + j : ((i - 1) * s[1] + j) * s[2] + k];
  if (axis == 1) return j == 0 ? 0 : codes.data()[
      s.ndim() == 2 ? i * s[1] + (j - 1) : (i * s[1] + (j - 1)) * s[2] + k];
  return k == 0 ? 0 : codes.data()[(i * s[1] + j) * s[2] + (k - 1)];
}

/// Converts the CFNN's real-valued difference predictions to the integer
/// quantization-code domain once, up front (both sides derive this from
/// identical anchor bytes + model bytes, so it is reproducible).
std::vector<I32Array> quantize_diff_predictions(const nn::Tensor& diffs,
                                                const Shape& shape,
                                                double abs_eb) {
  std::vector<F32Array> axes = tensor_to_axis_arrays(diffs, shape);
  std::vector<I32Array> out;
  out.reserve(axes.size());
  const double inv = 1.0 / (2.0 * abs_eb);
  for (const F32Array& a : axes) {
    I32Array q(shape);
    const float* src = a.data();
    std::int32_t* dst = q.data();
    parallel_for_chunked(0, a.size(), 0, [&](std::size_t lo,
                                             std::size_t hi) {
      for (std::size_t idx = lo; idx < hi; ++idx) {
        const double scaled = static_cast<double>(src[idx]) * inv;
        // Saturate rather than throw: a wild CFNN output must not be able
        // to crash decompression; the hybrid fit will down-weight it
        // anyway.
        double r = std::nearbyint(scaled);
        if (r > static_cast<double>(kMaxQuantCode)) r = static_cast<double>(kMaxQuantCode);
        if (r < -static_cast<double>(kMaxQuantCode)) r = -static_cast<double>(kMaxQuantCode);
        dst[idx] = static_cast<std::int32_t>(r);
      }
    });
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

CfnnModel train_cross_field_model(const Field& target,
                                  const std::vector<const Field*>& anchors,
                                  const CfnnConfig& config,
                                  const CfnnTrainOptions& train_options) {
  check_anchors(target, anchors);
  const std::size_t ndim = target.shape().ndim();
  const nn::Tensor inputs = fields_to_difference_tensor(anchors);
  const nn::Tensor targets = fields_to_difference_tensor({&target});

  CfnnModel model(anchors.size() * ndim, ndim, config, train_options.seed);
  train_cfnn(model, inputs, targets, train_options);
  return model;
}

CrossFieldAnalysis cross_field_analyze(
    const Field& target, const std::vector<const Field*>& anchors,
    const CfnnModel& model, const CrossFieldOptions& options,
    const nn::Tensor* precomputed_diffs) {
  check_anchors(target, anchors);
  const Shape& shape = target.shape();
  const std::size_t ndim = shape.ndim();
  expects(model.in_channels() == anchors.size() * ndim &&
              model.out_channels() == ndim,
          "cross_field_analyze: model geometry does not match anchors");

  CrossFieldAnalysis a;
  a.abs_eb = options.eb.absolute_for(target.value_range());
  a.codes = prequantize(target.array(), a.abs_eb);

  if (precomputed_diffs != nullptr) {
    a.diff_codes =
        quantize_diff_predictions(*precomputed_diffs, shape, a.abs_eb);
  } else {
    const nn::Tensor anchor_diffs = fields_to_difference_tensor(anchors);
    const nn::Tensor pred_diffs = model.infer(anchor_diffs);
    a.diff_codes = quantize_diff_predictions(pred_diffs, shape, a.abs_eb);
  }

  // Directional cross-field candidates: pred_axis(p) = q(p - e_axis) + d̂q.
  for (std::size_t axis = 0; axis < ndim; ++axis) {
    I32Array cand(shape);
    const I32Array& dq = a.diff_codes[axis];
    if (ndim == 2) {
      parallel_for_chunked(0, shape[0], 0, [&](std::size_t lo,
                                               std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          for (std::size_t j = 0; j < shape[1]; ++j) {
            const std::int64_t v =
                neighbor_code(a.codes, shape, i, j, 0, axis) + dq(i, j);
            cand(i, j) = static_cast<std::int32_t>(
                std::clamp(v, static_cast<std::int64_t>(INT32_MIN),
                           static_cast<std::int64_t>(INT32_MAX)));
          }
      });
    } else {
      parallel_for_chunked(0, shape[0], 0, [&](std::size_t lo,
                                               std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          for (std::size_t j = 0; j < shape[1]; ++j)
            for (std::size_t k = 0; k < shape[2]; ++k) {
              const std::int64_t v =
                  neighbor_code(a.codes, shape, i, j, k, axis) + dq(i, j, k);
              cand(i, j, k) = static_cast<std::int32_t>(
                  std::clamp(v, static_cast<std::int64_t>(INT32_MIN),
                             static_cast<std::int64_t>(INT32_MAX)));
            }
      });
    }
    a.candidates.push_back(std::move(cand));
  }
  {
    // Candidates are stored clamped to int32; the decoder applies the same
    // clamp to its unclamped lorenzo_at_* predictions, so both sides see
    // identical candidate values.
    const I64Array lorenzo = lorenzo_predict_all(a.codes, LorenzoOrder::kOne);
    I32Array cand(shape);
    parallel_for_chunked(0, cand.size(), 0, [&](std::size_t lo,
                                                std::size_t hi) {
      for (std::size_t idx = lo; idx < hi; ++idx)
        cand[idx] = static_cast<std::int32_t>(
            std::clamp(lorenzo[idx], static_cast<std::int64_t>(INT32_MIN),
                       static_cast<std::int64_t>(INT32_MAX)));
    });
    a.candidates.push_back(std::move(cand));
  }

  // Fit the hybrid combination on what the coder pays, not on squared
  // error (which the outlier tail dominates): the search scores blends by
  // the entropy of the delta symbols they leave, and its blend must code
  // smaller than the best of the uniform average and each single
  // predictor. The result is often a genuine blend, sometimes a single
  // dominant predictor, mirroring the paper's observed weight
  // distributions.
  std::vector<std::span<const std::int32_t>> spans;
  spans.reserve(a.candidates.size());
  for (const auto& c : a.candidates) spans.push_back(c.span());
  a.hybrid = HybridModel::fit(spans, a.codes.span(), options.quant_radius,
                             options.backend);
  return a;
}

std::vector<std::uint8_t> cross_field_compress(
    const Field& target, const std::vector<const Field*>& anchors,
    const CfnnModel& model, const CrossFieldOptions& options,
    SzStats* stats, const nn::Tensor* precomputed_diffs) {
  CrossFieldAnalysis a =
      cross_field_analyze(target, anchors, model, options, precomputed_diffs);
  const Shape& shape = target.shape();
  const std::size_t ndim = shape.ndim();
  const std::size_t k = a.candidates.size();

  // Final per-point integer predictions from the hybrid combination, kept
  // in int64: the decoder feeds combine() straight into DeltaDecoder::next,
  // and narrowing here would diverge from it whenever a combination leaves
  // the int32 range.
  I64Array preds(shape);
  parallel_for_chunked(0, preds.size(), 0, [&](std::size_t lo,
                                               std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      std::array<std::int64_t, 4> c{};
      for (std::size_t p = 0; p < k; ++p) c[p] = a.candidates[p][idx];
      preds[idx] =
          a.hybrid.combine(std::span<const std::int64_t>(c.data(), k));
    }
  });

  const auto payload =
      encode_deltas(a.codes.span(), preds.span(), options.quant_radius);

  ByteWriter body;
  write_shape(body, shape);
  body.str(target.name());
  body.u8(static_cast<std::uint8_t>(options.eb.mode()));
  body.f64(options.eb.value());
  body.f64(a.abs_eb);
  body.varint(options.quant_radius);
  body.varint(anchors.size());
  for (const Field* an : anchors) body.str(an->name());
  body.blob(model.save_bytes());
  a.hybrid.serialize(body);
  body.blob(lossless_compress(payload, options.backend));

  auto stream = frame_container(CodecId::kCrossField, body.bytes());
  if (stats != nullptr) {
    stats->original_bytes = target.size() * sizeof(float);
    stats->compressed_bytes = stream.size();
    stats->compression_ratio =
        static_cast<double>(stats->original_bytes) / stream.size();
    stats->bit_rate = 8.0 * stream.size() / static_cast<double>(target.size());
    stats->abs_eb = a.abs_eb;
  }
  (void)ndim;
  return stream;
}

Field cross_field_decompress(std::span<const std::uint8_t> stream,
                             const std::vector<const Field*>& anchors) {
  const auto parsed = parse_container(stream);
  if (parsed.codec != CodecId::kCrossField)
    throw CorruptStream("cross_field_decompress: not a cross-field stream");
  ByteReader in(parsed.body);

  const Shape shape = read_shape(in);
  const std::string name = in.str();
  in.u8();
  in.f64();
  const double abs_eb = in.f64();
  if (!(abs_eb > 0.0))
    throw CorruptStream("cross_field_decompress: bad error bound");
  const std::uint64_t radius = in.varint();
  if (radius < 2 || radius > (1u << 24))
    throw CorruptStream("cross_field_decompress: bad quant radius");

  const std::uint64_t n_anchors = in.varint();
  if (n_anchors != anchors.size())
    throw InvalidArgument(
        "cross_field_decompress: anchor count does not match the stream");
  for (std::uint64_t i = 0; i < n_anchors; ++i) {
    const std::string an = in.str();
    expects(anchors[i] != nullptr && anchors[i]->shape() == shape,
            "cross_field_decompress: anchor shape mismatch");
    if (anchors[i]->name() != an)
      throw InvalidArgument(
          "cross_field_decompress: anchor '" + anchors[i]->name() +
          "' does not match stream anchor '" + an + "'");
  }

  const CfnnModel model = CfnnModel::load_bytes(in.blob_view());
  const HybridModel hybrid = HybridModel::deserialize(in);
  const std::size_t ndim = shape.ndim();
  if (hybrid.num_predictors() != ndim + 1 ||
      model.in_channels() != anchors.size() * ndim ||
      model.out_channels() != ndim)
    throw CorruptStream("cross_field_decompress: model geometry mismatch");

  nn::Workspace& ws = nn::tls_workspace();
  const nn::ScratchScope scratch(ws);
  const auto payload = lossless_decompress_view(in.blob_view(), ws);
  DeltaDecoder decoder(payload, static_cast<std::uint32_t>(radius));

  // Recompute the CFNN difference predictions from the shared anchors.
  const nn::Tensor anchor_diffs = fields_to_difference_tensor(anchors);
  const nn::Tensor pred_diffs = model.infer(anchor_diffs);
  const std::vector<I32Array> diff_codes =
      quantize_diff_predictions(pred_diffs, shape, abs_eb);

  I32Array codes(shape);
  std::array<std::int64_t, 4> cand{};
  const std::size_t k = ndim + 1;

  auto reconstruct_point = [&](std::size_t i, std::size_t j, std::size_t kk,
                               std::size_t flat) {
    // Clamps mirror the encoder's bulk candidate construction exactly —
    // predictions must be bit-identical on both sides.
    for (std::size_t axis = 0; axis < ndim; ++axis)
      cand[axis] = std::clamp(neighbor_code(codes, shape, i, j, kk, axis) +
                                  diff_codes[axis][flat],
                              static_cast<std::int64_t>(INT32_MIN),
                              static_cast<std::int64_t>(INT32_MAX));
    cand[ndim] = std::clamp(
        ndim == 2 ? lorenzo_at_2d(codes, i, j, LorenzoOrder::kOne)
                  : lorenzo_at_3d(codes, i, j, kk, LorenzoOrder::kOne),
        static_cast<std::int64_t>(INT32_MIN),
        static_cast<std::int64_t>(INT32_MAX));
    const std::int64_t pred =
        hybrid.combine(std::span<const std::int64_t>(cand.data(), k));
    codes[flat] = decoder.next(pred);
  };

  if (ndim == 2) {
    for (std::size_t i = 0; i < shape[0]; ++i)
      for (std::size_t j = 0; j < shape[1]; ++j)
        reconstruct_point(i, j, 0, i * shape[1] + j);
  } else {
    for (std::size_t i = 0; i < shape[0]; ++i)
      for (std::size_t j = 0; j < shape[1]; ++j)
        for (std::size_t kk = 0; kk < shape[2]; ++kk)
          reconstruct_point(i, j, kk, (i * shape[1] + j) * shape[2] + kk);
  }

  return Field(name, dequantize(codes, abs_eb, shape));
}

}  // namespace xfc
