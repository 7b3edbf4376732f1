// Backward-compatibility pins: streams and archives written by the
// PR-4-era encoders (bytes checked into golden_streams.hpp, generated by
// make_golden.cpp) must decode bit-identically forever. This is the
// guard that lets the compressors' parsers, parameters and table layouts
// evolve freely: only the *format* is a contract, not the parse.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "archive/archive_reader.hpp"
#include "cfnn/cfnn.hpp"
#include "core/rng.hpp"
#include "encode/miniflate.hpp"
#include "golden_streams.hpp"
#include "nn/graph.hpp"
#include "io/crc32.hpp"
#include "sz/compressor.hpp"
#include "sz/interpolation.hpp"

namespace xfc {
namespace {

/// Mirrors make_golden.cpp's input synthesis exactly.
std::vector<std::uint8_t> golden_input(std::size_t n) {
  Rng rng(golden::kMiniflateInputSeed);
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(
        (i % 113) * 3 ^ (rng.uniform() < 0.07 ? rng.next_u64() : 0));
  return data;
}

std::uint32_t field_crc(const Field& fld) {
  return Crc32::of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(fld.array().data()),
      fld.size() * sizeof(float)));
}

TEST(Golden, MiniflateStreamsFromBeforeThisPrStillDecode) {
  const auto input = golden_input(golden::kMiniflateInputSize);
  ASSERT_EQ(Crc32::of(input), golden::kMiniflateInputCrc)
      << "the Rng or the generator drifted; golden inputs are no longer "
         "reproducible";
  EXPECT_EQ(miniflate_decompress(golden::kMiniflateFast), input);
  EXPECT_EQ(miniflate_decompress(golden::kMiniflateDefault), input);
  EXPECT_EQ(miniflate_decompress(golden::kMiniflateBest), input);
}

TEST(Golden, SzStreamFromBeforeThisPrDecodesBitIdentically) {
  const Field fld = sz_decompress(golden::kSzStream);
  EXPECT_EQ(field_crc(fld), golden::kSzDecodedCrc);
}

TEST(Golden, InterpStreamFromBeforeThisPrDecodesBitIdentically) {
  const Field fld = interp_decompress(golden::kInterpStream);
  EXPECT_EQ(field_crc(fld), golden::kInterpDecodedCrc);
}

TEST(Golden, ArchiveFromBeforeThisPrDecodesBitIdentically) {
  const ArchiveReader reader = ArchiveReader::open_memory(golden::kArchive);
  ASSERT_EQ(reader.fields().size(), 2u);
  EXPECT_EQ(field_crc(reader.read_field(reader.fields()[0].name)),
            golden::kArchiveField0Crc);
  EXPECT_EQ(field_crc(reader.read_field(reader.fields()[1].name)),
            golden::kArchiveField1Crc);

  // Random access into the old archive too: a region crop must equal the
  // cropped full decode (the trusted-parse path runs under the hood).
  const Field full = reader.read_field(reader.fields()[0].name);
  const std::size_t lo[] = {17, 31}, hi[] = {80, 96};
  const Field region = reader.read_region(reader.fields()[0].name, lo, hi);
  for (std::size_t i = lo[0]; i < hi[0]; ++i)
    for (std::size_t j = lo[1]; j < hi[1]; ++j)
      ASSERT_EQ(region.array()(i - lo[0], j - lo[1]), full.array()(i, j));
}

TEST(Golden, CrossFieldArchiveFromBeforeThisPrDecodesBitIdentically) {
  // The cross-field decoder replays the encoder's CFNN predictions
  // bit-exactly (CfnnModel::infer included — its floating-point
  // evaluation order is effectively part of the format, see pool_plane in
  // nn/graph.cpp). This pins the whole replay chain on a pre-PR
  // archive; note a *small* archive only catches inference drift that
  // shifts some quantization decision, so keep infer's arithmetic order
  // frozen rather than relying on this test alone.
  const ArchiveReader reader =
      ArchiveReader::open_memory(golden::kCrossFieldArchive);
  ASSERT_EQ(reader.fields().size(), 3u);
  EXPECT_EQ(field_crc(reader.read_field("TGT")),
            golden::kCrossFieldTargetCrc);
  EXPECT_EQ(field_crc(reader.read_field("A0")),
            golden::kCrossFieldAnchor0Crc);
}

/// CRC of a deterministic CfnnModel::infer run — every output bit counts,
/// unlike the archive pin above, which only sees inference drift large
/// enough to shift a quantization decision. The model is
/// CfnnModel(in_ch, out_ch, config, 0xF00D); the (n, in_ch, h, w) input is
/// drawn from Rng(0x901D).
std::uint32_t infer_crc(std::size_t in_ch, std::size_t out_ch,
                        const CfnnConfig& config, std::size_t n,
                        std::size_t h, std::size_t w) {
  Rng rng(0x901D);
  const CfnnModel model(in_ch, out_ch, config, 0xF00D);
  nn::Tensor x(n, in_ch, h, w);
  for (auto& v : x.vec()) v = static_cast<float>(rng.normal());
  const nn::Tensor y = model.infer(x);
  return Crc32::of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(y.vec().data()),
      y.size() * sizeof(float)));
}

/// Pinned when inference moved onto the computation graph, whose archive
/// test proved graph inference replays the pre-graph arithmetic; frozen
/// from then on.
std::uint32_t cfnn_infer_crc() {
  return infer_crc(3, 2, CfnnConfig{8, 4, 3}, 2, 48, 48);
}

constexpr std::uint32_t kCfnnInferCrc = 0x23ee6b3fu;

TEST(Golden, CfnnInferenceBitsPinned) {
  EXPECT_EQ(cfnn_infer_crc(), kCfnnInferCrc);
}

// The pin above and the cross-field golden archive use hidden width 8, so
// no conv there sums more than 72 terms. These two widen the final conv
// past the KC = 240 chunk of the frozen summation order (K = 40*9 = 360
// and 120*9 = 1080 terms), so a kernel that sums each output in one chunk
// fails them. Both CRCs were taken from the im2col + sgemm forward pass.
TEST(Golden, CfnnInferenceBitsPinnedAcrossOneChunkBoundary) {
  EXPECT_EQ(infer_crc(6, 2, CfnnConfig{40, 10, 3}, 1, 40, 56), 0x2df2de1au);
}

TEST(Golden, CfnnInferenceBitsPinnedAcrossFourChunks) {
  EXPECT_EQ(infer_crc(9, 3, CfnnConfig{120, 8, 3}, 2, 24, 20), 0xaf557c69u);
}

TEST(Golden, InferPinCatchesAttentionSummationOrderChange) {
  // Negative control: prove the inference pin has teeth. Flipping the
  // channel-attention pooled-average accumulation to a reversed
  // single-precision sum (a classic "harmless" reduction-order tweak) must
  // change the inferred bytes. Empirically the *archive* pin alone does
  // not catch this — at golden-archive scale the 1-ulp pooling shift never
  // crosses a quantization bin — which is exactly why the direct bit pin
  // above exists.
  nn::detail::g_perturb_attention_pool_for_tests = true;
  const std::uint32_t perturbed = cfnn_infer_crc();
  nn::detail::g_perturb_attention_pool_for_tests = false;
  EXPECT_NE(perturbed, kCfnnInferCrc);

  // And with the flag restored the pin holds again.
  EXPECT_EQ(cfnn_infer_crc(), kCfnnInferCrc);
}

}  // namespace
}  // namespace xfc
