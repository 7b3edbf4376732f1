// End-to-end tests of the cross-field compressor: bound guarantee,
// encoder/decoder agreement, anchor protocol, multi-field orchestration.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "archive/tile.hpp"
#include "core/rng.hpp"
#include "crossfield/crossfield.hpp"
#include "crossfield/multifield.hpp"
#include "data/dataset.hpp"
#include "encode/backend.hpp"
#include "metrics/metrics.hpp"
#include "quant/dual_quant.hpp"
#include "sz/compressor.hpp"
#include "sz/delta_codec.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

/// Small correlated multi-field set: target is a nonlinear function of the
/// anchors plus its own structure.
struct TinySet {
  Field target;
  Field a0, a1;
};

TinySet make_tiny(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  TinySet s{Field("TGT", F32Array(shape)), Field("A0", F32Array(shape)),
            Field("A1", F32Array(shape))};
  const std::size_t w = shape[shape.ndim() - 1];
  for (std::size_t i = 0; i < s.target.size(); ++i) {
    const double x = static_cast<double>(i % w) / 6.0;
    const double y = static_cast<double>(i / w) / 9.0;
    const double base = std::sin(x) * std::cos(y) * 15.0;
    const double second = std::cos(x * 0.7) * 8.0;
    s.a0.array()[i] = static_cast<float>(base + rng.normal(0, 0.05));
    s.a1.array()[i] = static_cast<float>(second + rng.normal(0, 0.05));
    s.target.array()[i] = static_cast<float>(
        0.8 * base + 0.3 * second * second / 8.0 + rng.normal(0, 0.05));
  }
  return s;
}

CfnnTrainOptions quick_train() {
  CfnnTrainOptions t;
  t.epochs = 6;
  t.patches_per_epoch = 24;
  t.patch = 16;
  t.batch = 8;
  return t;
}

CfnnConfig tiny_cfnn() { return CfnnConfig{8, 4, 3}; }

class CrossFieldBound : public ::testing::TestWithParam<double> {};

TEST_P(CrossFieldBound, RoundtripWithinBound2D) {
  const double rel_eb = GetParam();
  const TinySet s = make_tiny(Shape{48, 64}, 42);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};

  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());

  CrossFieldOptions opt;
  opt.eb = ErrorBound::relative(rel_eb);
  SzStats stats;
  const auto stream =
      cross_field_compress(s.target, anchors, model, opt, &stats);
  const Field out = cross_field_decompress(stream, anchors);

  const double abs_eb = opt.eb.absolute_for(s.target.value_range());
  EXPECT_LE(
      max_abs_error(s.target.array().span(), out.array().span()),
      test::bound_tolerance(abs_eb, s.target));
  EXPECT_EQ(out.name(), "TGT");
  EXPECT_GT(stats.compression_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, CrossFieldBound,
                         ::testing::Values(5e-3, 1e-3, 5e-4, 1e-4));

TEST(CrossField, RoundtripWithinBound3D) {
  const TinySet s = make_tiny(Shape{6, 24, 24}, 43);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());

  CrossFieldOptions opt;
  opt.eb = ErrorBound::relative(1e-3);
  const auto stream = cross_field_compress(s.target, anchors, model, opt);
  const Field out = cross_field_decompress(stream, anchors);
  const double abs_eb = opt.eb.absolute_for(s.target.value_range());
  EXPECT_LE(max_abs_error(s.target.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, s.target));
}

TEST(CrossField, DecompressionMatchesPrequantReconstructionExactly) {
  // Dual quantization: decoded values must be exactly 2*eb*prequant codes.
  const TinySet s = make_tiny(Shape{32, 32}, 44);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());

  CrossFieldOptions opt;
  opt.eb = ErrorBound::relative(1e-3);
  const auto stream = cross_field_compress(s.target, anchors, model, opt);
  const Field out = cross_field_decompress(stream, anchors);

  const double abs_eb = opt.eb.absolute_for(s.target.value_range());
  const I32Array codes = prequantize(s.target.array(), abs_eb);
  const F32Array expect = dequantize(codes, abs_eb, s.target.shape());
  EXPECT_EQ(out.array().vec(), expect.vec());
}

TEST(CrossField, UntrainedModelStillBoundCorrect) {
  // Even a random CFNN cannot break the error bound — only the ratio.
  const TinySet s = make_tiny(Shape{32, 40}, 45);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model(anchors.size() * 2, 2, tiny_cfnn(), 7);

  CrossFieldOptions opt;
  opt.eb = ErrorBound::relative(1e-3);
  const auto stream = cross_field_compress(s.target, anchors, model, opt);
  const Field out = cross_field_decompress(stream, anchors);
  const double abs_eb = opt.eb.absolute_for(s.target.value_range());
  EXPECT_LE(max_abs_error(s.target.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, s.target));
}

TEST(CrossField, AnchorCountMismatchRejected) {
  const TinySet s = make_tiny(Shape{32, 32}, 46);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());
  const auto stream =
      cross_field_compress(s.target, anchors, model, CrossFieldOptions{});

  const std::vector<const Field*> wrong{&s.a0};
  EXPECT_THROW(cross_field_decompress(stream, wrong), InvalidArgument);
}

TEST(CrossField, AnchorNameMismatchRejected) {
  const TinySet s = make_tiny(Shape{32, 32}, 47);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());
  const auto stream =
      cross_field_compress(s.target, anchors, model, CrossFieldOptions{});

  const std::vector<const Field*> swapped{&s.a1, &s.a0};
  EXPECT_THROW(cross_field_decompress(stream, swapped), InvalidArgument);
}

TEST(CrossField, CorruptStreamRejected) {
  const TinySet s = make_tiny(Shape{32, 32}, 48);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model(4, 2, tiny_cfnn(), 3);
  auto stream =
      cross_field_compress(s.target, anchors, model, CrossFieldOptions{});
  stream[stream.size() / 3] ^= 0x08;
  EXPECT_THROW(cross_field_decompress(stream, anchors), CorruptStream);
}

TEST(CrossField, ModelGeometryMismatchRejected) {
  const TinySet s = make_tiny(Shape{32, 32}, 49);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model(6, 2, tiny_cfnn(), 3);  // expects 3 anchors
  EXPECT_THROW(
      cross_field_compress(s.target, anchors, model, CrossFieldOptions{}),
      InvalidArgument);
}

TEST(CrossField, OneDTargetRejected) {
  Field t("T", F32Array(Shape{100}));
  Field a("A", F32Array(Shape{100}));
  EXPECT_THROW(
      train_cross_field_model(t, {&a}, tiny_cfnn(), quick_train()),
      InvalidArgument);
}

TEST(CrossField, AnalyzeExposesCandidatesAndWeights) {
  const TinySet s = make_tiny(Shape{40, 40}, 50);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model =
      train_cross_field_model(s.target, anchors, tiny_cfnn(), quick_train());

  const auto analysis =
      cross_field_analyze(s.target, anchors, model, CrossFieldOptions{});
  EXPECT_EQ(analysis.candidates.size(), 3u);  // dx, dy, lorenzo
  EXPECT_EQ(analysis.diff_codes.size(), 2u);
  EXPECT_EQ(analysis.hybrid.num_predictors(), 3u);
  EXPECT_GT(analysis.abs_eb, 0.0);
  // Weights should roughly sum to 1 on well-correlated predictors.
  double wsum = 0;
  for (double w : analysis.hybrid.weights()) wsum += w;
  EXPECT_NEAR(wsum, 1.0, 0.35);
}

TEST(MultiField, CompressAllRoundtrips) {
  const TinySet s = make_tiny(Shape{40, 48}, 51);

  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  AnchorConfig cfg;
  cfg.anchors = {"A0", "A1"};
  cfg.cfnn = tiny_cfnn();
  cfg.train = quick_train();
  mfc.configure_target("TGT", cfg);

  const auto eb = ErrorBound::relative(1e-3);
  const auto compressed = mfc.compress_all(eb);
  ASSERT_EQ(compressed.size(), 3u);

  const auto fields = MultiFieldCompressor::decompress_all(compressed);
  ASSERT_EQ(fields.size(), 3u);

  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Field* orig = mfc.find(compressed[i].name);
    ASSERT_NE(orig, nullptr);
    const double abs_eb = eb.absolute_for(orig->value_range());
    EXPECT_LE(
        max_abs_error(orig->array().span(), fields[i].array().span()),
        test::bound_tolerance(abs_eb, *orig))
        << compressed[i].name;
  }
}

TEST(MultiField, ModelCacheReusedAcrossBounds) {
  const TinySet s = make_tiny(Shape{32, 32}, 52);
  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  AnchorConfig cfg;
  cfg.anchors = {"A0", "A1"};
  cfg.cfnn = tiny_cfnn();
  cfg.train = quick_train();
  mfc.configure_target("TGT", cfg);

  // Two bounds; the second call reuses the cached model (fast) and both
  // roundtrip correctly.
  for (double rel : {1e-3, 1e-4}) {
    const auto compressed = mfc.compress_all(ErrorBound::relative(rel));
    const auto fields = MultiFieldCompressor::decompress_all(compressed);
    ASSERT_EQ(fields.size(), 3u);
  }
}

TEST(MultiField, ChainedTargetsRoundtrip) {
  // Mirrors paper Table III: FLUT anchors on LWCF, itself a cross-field
  // target (LWCF anchored on A0).
  const TinySet s = make_tiny(Shape{40, 48}, 53);
  Field chained = s.target;
  chained.set_name("CHAIN");
  for (std::size_t i = 0; i < chained.size(); ++i)
    chained.array()[i] = 0.5f * s.target.array()[i] + 0.2f * s.a0.array()[i];

  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  mfc.add_field(chained);

  AnchorConfig cfg1;
  cfg1.anchors = {"A0", "A1"};
  cfg1.cfnn = tiny_cfnn();
  cfg1.train = quick_train();
  mfc.configure_target("TGT", cfg1);

  AnchorConfig cfg2;
  cfg2.anchors = {"TGT", "A0"};  // anchors on another cross-field target
  cfg2.cfnn = tiny_cfnn();
  cfg2.train = quick_train();
  mfc.configure_target("CHAIN", cfg2);

  const auto eb = ErrorBound::relative(1e-3);
  const auto compressed = mfc.compress_all(eb);
  ASSERT_EQ(compressed.size(), 4u);
  const auto fields = MultiFieldCompressor::decompress_all(compressed);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Field* orig = mfc.find(compressed[i].name);
    const double abs_eb = eb.absolute_for(orig->value_range());
    EXPECT_LE(max_abs_error(orig->array().span(), fields[i].array().span()),
              test::bound_tolerance(abs_eb, *orig))
        << compressed[i].name;
  }
}

TEST(MultiField, MissingAnchorStreamDetected) {
  const TinySet s = make_tiny(Shape{32, 32}, 54);
  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  AnchorConfig cfg;
  cfg.anchors = {"A0", "A1"};
  cfg.cfnn = tiny_cfnn();
  cfg.train = quick_train();
  mfc.configure_target("TGT", cfg);

  auto compressed = mfc.compress_all(ErrorBound::relative(1e-3));
  // Drop one anchor's stream: the dependency resolver must throw, not hang.
  compressed.erase(
      std::find_if(compressed.begin(), compressed.end(),
                   [](const CompressedField& cf) { return cf.name == "A0"; }));
  EXPECT_THROW(MultiFieldCompressor::decompress_all(compressed),
               CorruptStream);
}

/// Bytes the stream stores for the analysed codes under `hybrid`: the
/// lossless-coded delta payload, as cross_field_compress builds it.
std::size_t coded_payload_bytes(const CrossFieldAnalysis& a,
                                const HybridModel& hybrid) {
  const std::size_t k = a.candidates.size();
  std::vector<std::int64_t> preds(a.codes.size());
  std::array<std::int64_t, 4> c{};
  for (std::size_t i = 0; i < preds.size(); ++i) {
    for (std::size_t p = 0; p < k; ++p) c[p] = a.candidates[p][i];
    preds[i] = hybrid.combine(std::span<const std::int64_t>(c.data(), k));
  }
  return lossless_compress(
             encode_deltas(a.codes.span(), preds, kDefaultQuantRadius))
      .size();
}

/// Weight 1 on predictor `index` of `k`, built through the serialized form.
HybridModel one_hot(std::size_t k, std::size_t index) {
  ByteWriter w;
  w.varint(k);
  for (std::size_t c = 0; c < k; ++c) w.f64(c == index ? 1.0 : 0.0);
  w.f64(0.0);
  const auto bytes = w.take();
  ByteReader r(bytes);
  return HybridModel::deserialize(r);
}

/// Smallest coded payload among the uniform average and each predictor
/// alone: the simple blends the fit must not lose to.
std::size_t best_simple_payload_bytes(const CrossFieldAnalysis& a) {
  const std::size_t k = a.candidates.size();
  std::size_t best = coded_payload_bytes(a, HybridModel(k));
  for (std::size_t c = 0; c < k; ++c)
    best = std::min(best, coded_payload_bytes(a, one_hot(k, c)));
  return best;
}

TEST(CrossField, HybridSelectionNotWorseThanLorenzoAlone) {
  // The fitted blend must never code larger than plain Lorenzo (Lorenzo is
  // one of the candidates), even when the cross-field predictors are junk.
  const TinySet s = make_tiny(Shape{48, 64}, 55);
  const std::vector<const Field*> anchors{&s.a0, &s.a1};
  const CfnnModel model(4, 2, tiny_cfnn(), 99);  // untrained: cross is junk

  const auto analysis =
      cross_field_analyze(s.target, anchors, model, CrossFieldOptions{});
  EXPECT_LE(coded_payload_bytes(analysis, analysis.hybrid),
            coded_payload_bytes(analysis, one_hot(3, 2)));
}

/// A target, its anchors and a CFNN trained on them with perfbench's
/// schedule (6 epochs x 64 patches of 32^2, batch 16).
struct TrainedTarget {
  Dataset ds;
  TargetSpec spec;
  CfnnModel model;
};

TrainedTarget train_first_target(DatasetKind kind, const Shape& shape,
                                 std::uint64_t seed) {
  Dataset ds = make_dataset(kind, shape, seed);
  const TargetSpec spec = table3_targets(kind, /*paper_scale=*/false).front();
  std::vector<const Field*> anchors;
  for (const std::string& a : spec.anchors) anchors.push_back(ds.find(a));
  CfnnTrainOptions t;
  t.epochs = 6;
  t.patches_per_epoch = 64;
  t.patch = 32;
  t.batch = 16;
  t.learning_rate = 1e-3;
  t.seed = 0x5EED ^ seed;
  CfnnModel model = train_cross_field_model(*ds.find(spec.target), anchors,
                                            spec.cfnn, t);
  return {std::move(ds), spec, std::move(model)};
}

/// The fit's oracle, tile by tile as the archive codes them: anchors are
/// SZ reconstructions at the field's bound, every tile is analysed at the
/// field-level absolute bound, and on each tile of at least 4096 points
/// the fitted blend's real coded payload is at most 1.005x the best of
/// the uniform average and each single predictor.
void expect_fit_beats_simple_blends(const TrainedTarget& t,
                                    const std::vector<double>& rel_bounds,
                                    const std::vector<Shape>& tile_shapes) {
  const Field& target = *t.ds.find(t.spec.target);
  std::size_t checked = 0;
  for (double rel : rel_bounds) {
    SzOptions base;
    base.eb = ErrorBound::relative(rel);
    std::vector<Field> recon;
    for (const std::string& a : t.spec.anchors)
      recon.push_back(sz_reconstruct(*t.ds.find(a), base));
    CrossFieldOptions opt;
    opt.eb = ErrorBound::absolute(base.eb.absolute_for(target.value_range()));

    for (const Shape& tile : tile_shapes) {
      const TileGrid grid(target.shape(), tile);
      for (std::size_t i = 0; i < grid.num_tiles(); ++i) {
        const TileBox box = grid.box(i);
        if (box.extents.size() < 4096) continue;
        const Field tile_target(target.name(),
                                extract_tile(target.array(), box));
        std::vector<Field> tile_anchors;
        for (const Field& a : recon)
          tile_anchors.emplace_back(a.name(), extract_tile(a.array(), box));
        std::vector<const Field*> anchors;
        for (const Field& a : tile_anchors) anchors.push_back(&a);

        const auto a = cross_field_analyze(tile_target, anchors, t.model, opt);
        const std::size_t fitted = coded_payload_bytes(a, a.hybrid);
        const std::size_t simple = best_simple_payload_bytes(a);
        EXPECT_LE(static_cast<double>(fitted),
                  1.005 * static_cast<double>(simple))
            << t.spec.target << " rel eb " << rel << ", tile " << i
            << " of " << grid.num_tiles() << ": fitted " << fitted
            << " bytes, best simple blend " << simple;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(CrossField, FittedBlendCodesNoLargerThanSimpleBlends2D) {
  // perfbench's data and schedule: CESM CLDTOT <- {CLDLOW, CLDMED,
  // CLDHGH} at 384x768, over the ends and middle of its bound grid.
  const TrainedTarget t =
      train_first_target(DatasetKind::kCesm, Shape{384, 768}, 7);
  expect_fit_beats_simple_blends(t, {5e-3, 1e-3, 2e-4},
                                 {Shape{256, 256}, Shape{192, 128}});
}

TEST(CrossField, FittedBlendCodesNoLargerThanSimpleBlends3D) {
  // Hurricane Wf <- {Uf, Vf, Pf}: four candidates (three directional
  // predictors and Lorenzo).
  const TrainedTarget t =
      train_first_target(DatasetKind::kHurricane, Shape{16, 96, 96}, 7);
  expect_fit_beats_simple_blends(t, {5e-3, 1e-3, 2e-4},
                                 {Shape{16, 64, 64}, Shape{8, 48, 48}});
}

TEST(CrossField, ReconstructedAnchorProtocolEndToEnd) {
  // The real deployment contract: the encoder sees sz_reconstruct(anchor)
  // and the decoder sees sz_decompress(sz_compress(anchor)) -- dual
  // quantization makes these bit-identical, so the round trip must work
  // across the "two machines".
  const TinySet s = make_tiny(Shape{40, 48}, 60);
  SzOptions base;
  base.eb = ErrorBound::relative(1e-3);

  // Encoder side.
  const Field enc_a0 = sz_reconstruct(s.a0, base);
  const Field enc_a1 = sz_reconstruct(s.a1, base);
  const std::vector<const Field*> enc_anchors{&enc_a0, &enc_a1};
  const CfnnModel model = train_cross_field_model(s.target, enc_anchors,
                                                  tiny_cfnn(), quick_train());
  CrossFieldOptions copt;
  copt.eb = ErrorBound::relative(1e-3);
  const auto target_stream =
      cross_field_compress(s.target, enc_anchors, model, copt);
  const auto a0_stream = sz_compress(s.a0, base);
  const auto a1_stream = sz_compress(s.a1, base);

  // Decoder side: only the three streams cross the wire.
  const Field dec_a0 = sz_decompress(a0_stream);
  const Field dec_a1 = sz_decompress(a1_stream);
  EXPECT_EQ(dec_a0.array().vec(), enc_a0.array().vec());  // the contract
  const std::vector<const Field*> dec_anchors{&dec_a0, &dec_a1};
  const Field out = cross_field_decompress(target_stream, dec_anchors);

  const double abs_eb = copt.eb.absolute_for(s.target.value_range());
  EXPECT_LE(max_abs_error(s.target.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, s.target));
}

TEST(MultiField, ConfigValidation) {
  MultiFieldCompressor mfc;
  mfc.add_field(Field("X", F32Array(Shape{8, 8})));
  EXPECT_THROW(mfc.add_field(Field("X", F32Array(Shape{8, 8}))),
               InvalidArgument);  // duplicate

  AnchorConfig cfg;
  cfg.anchors = {"MISSING"};
  EXPECT_THROW(mfc.configure_target("X", cfg), InvalidArgument);

  cfg.anchors = {"X"};
  EXPECT_THROW(mfc.configure_target("X", cfg), InvalidArgument);  // self
}

}  // namespace
}  // namespace xfc
