// XFA1 tiled-archive tests: grid geometry, per-codec round trips at the
// monolithic error bound, region reads bit-identical to cropped full
// decodes, the tiled anchor contract for cross-field targets (targets tiled
// unlike their anchors, anchor chains, degraded reads), anchor-graph
// validation at open, and the file-backed path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "archive/archive_appender.hpp"
#include "archive/archive_format.hpp"
#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/rng.hpp"
#include "crossfield/multifield.hpp"
#include "io/file.hpp"
#include "metrics/metrics.hpp"
#include "server/tile_cache.hpp"
#include "sz/compressor.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

Field smooth_field(const std::string& name, const Shape& shape,
                   std::uint64_t seed) {
  Rng rng(seed);
  F32Array a(shape);
  const std::size_t w = shape[shape.ndim() - 1];
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(i % w) / 7.0;
    const double y = static_cast<double>(i / w) / 11.0;
    a[i] = static_cast<float>(std::sin(x) * std::cos(y) * 20.0 +
                              rng.normal(0, 0.1));
  }
  return Field(name, std::move(a));
}

CfnnTrainOptions quick_train() {
  CfnnTrainOptions t;
  t.epochs = 4;
  t.patches_per_epoch = 16;
  t.patch = 16;
  t.batch = 8;
  return t;
}

// -- Tile grid geometry ------------------------------------------------------

TEST(TileGrid, CountsAndRaggedBoxes) {
  const TileGrid g(Shape{70, 90}, Shape{32, 32});
  EXPECT_EQ(g.tiles_along(0), 3u);
  EXPECT_EQ(g.tiles_along(1), 3u);
  EXPECT_EQ(g.num_tiles(), 9u);

  const TileBox first = g.box(0);
  EXPECT_EQ(first.lo[0], 0u);
  EXPECT_EQ(first.extents, (Shape{32, 32}));

  // Bottom-right corner tile is ragged on both axes: 70-64=6, 90-64=26.
  const TileBox last = g.box(8);
  EXPECT_EQ(last.lo[0], 64u);
  EXPECT_EQ(last.lo[1], 64u);
  EXPECT_EQ(last.extents, (Shape{6, 26}));

  // Every point is covered exactly once.
  std::vector<int> hits(70 * 90, 0);
  for (std::size_t t = 0; t < g.num_tiles(); ++t) {
    const TileBox b = g.box(t);
    for (std::size_t i = 0; i < b.extents[0]; ++i)
      for (std::size_t j = 0; j < b.extents[1]; ++j)
        ++hits[(b.lo[0] + i) * 90 + b.lo[1] + j];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TileGrid, DefaultTileClipsToField) {
  EXPECT_EQ(TileGrid::default_tile(Shape{100}), (Shape{100}));
  EXPECT_EQ(TileGrid::default_tile(Shape{512, 512}), (Shape{256, 256}));
  EXPECT_EQ(TileGrid::default_tile(Shape{40, 700}), (Shape{40, 256}));
  EXPECT_EQ(TileGrid::default_tile(Shape{100, 100, 100}), (Shape{64, 64, 64}));
}

TEST(TileGrid, TilesInRegion) {
  const TileGrid g(Shape{64, 64}, Shape{16, 16});  // 4x4 grid
  // A region strictly inside tile (1,2).
  const std::size_t lo1[] = {18, 36}, hi1[] = {30, 44};
  EXPECT_EQ(g.tiles_in_region(lo1, hi1), (std::vector<std::size_t>{6}));
  // A region straddling a 2x2 block of tiles.
  const std::size_t lo2[] = {15, 15}, hi2[] = {17, 17};
  EXPECT_EQ(g.tiles_in_region(lo2, hi2),
            (std::vector<std::size_t>{0, 1, 4, 5}));
  // The whole field touches every tile.
  const std::size_t lo3[] = {0, 0}, hi3[] = {64, 64};
  EXPECT_EQ(g.tiles_in_region(lo3, hi3).size(), 16u);
}

TEST(TileGrid, RejectsTileShapesTheIndexCannotHold) {
  // The archive index stores the tile shape, and read_shape refuses any
  // extent above 2^32 and any tile of more than 2^36 values.
  constexpr std::size_t kCap = std::size_t{1} << 32;
  // A negative edge wrapped by strtoull.
  EXPECT_THROW(TileGrid(Shape{64, 64}, Shape{SIZE_MAX, SIZE_MAX}),
               InvalidArgument);
  EXPECT_THROW(TileGrid(Shape{64, 64}, Shape{kCap + 1, 16}), InvalidArgument);
  EXPECT_THROW(TileGrid(Shape{64, 64}, Shape{kCap, kCap}), InvalidArgument);
  EXPECT_THROW(TileGrid(Shape{64, 64, 64}, Shape{1u << 12, 1u << 12, 1u << 13}),
               InvalidArgument);

  // The cap itself is a legal (field-clipped) tile.
  const TileGrid g(Shape{64}, Shape{kCap});
  EXPECT_EQ(g.num_tiles(), 1u);
  EXPECT_EQ(g.box(0).extents, (Shape{64}));
}

TEST(TileGrid, ExtractInsertRoundTrip3D) {
  const Field f = smooth_field("f", Shape{9, 10, 11}, 1);
  const TileGrid g(f.shape(), Shape{4, 4, 4});
  F32Array rebuilt(f.shape());
  for (std::size_t t = 0; t < g.num_tiles(); ++t) {
    const TileBox b = g.box(t);
    insert_tile(rebuilt, b, extract_tile(f.array(), b));
  }
  EXPECT_EQ(rebuilt, f.array());
}

// -- Round trips per codec ---------------------------------------------------

class ArchiveCodecRoundtrip : public ::testing::TestWithParam<CodecId> {};

TEST_P(ArchiveCodecRoundtrip, TiledRoundTripHoldsMonolithicBound) {
  // 70x90 with 32x32 tiles: ragged tiles on both axes.
  const Field f = smooth_field("fld", Shape{70, 90}, 7);
  ArchiveFieldOptions opts;
  opts.codec = GetParam();
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{32, 32};

  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(reader.fields().size(), 1u);
  EXPECT_EQ(reader.fields()[0].tiles.size(), 9u);

  const Field out = reader.read_field("fld");
  EXPECT_EQ(out.name(), "fld");
  ASSERT_EQ(out.shape(), f.shape());
  // The configured bound is resolved against the FULL field's range, so
  // the tiled round trip must satisfy exactly the monolithic guarantee.
  const double abs_eb = opts.eb.absolute_for(f.value_range());
  EXPECT_LE(max_abs_error(f.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, f));
}

INSTANTIATE_TEST_SUITE_P(Codecs, ArchiveCodecRoundtrip,
                         ::testing::Values(CodecId::kSz, CodecId::kSzClassic,
                                           CodecId::kInterp, CodecId::kZfp));

TEST(Archive, TiledSzReconstructionMatchesMonolithic) {
  // Dual quantization is pointwise, so the tiled decode must be
  // bit-identical to the monolithic reconstruction at the same absolute
  // bound — the property that makes tiling transparent to anchors.
  const Field f = smooth_field("fld", Shape{60, 44}, 9);
  const double abs_eb = 1e-3 * f.value_range();

  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::absolute(abs_eb);
  opts.tile = Shape{16, 16};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  const Field tiled = ArchiveReader::open_memory(bytes).read_field("fld");

  SzOptions mono;
  mono.eb = ErrorBound::absolute(abs_eb);
  const Field ref = sz_reconstruct(f, mono);
  EXPECT_EQ(tiled.array(), ref.array());
}

TEST(Archive, RoundTrip1DAnd3D) {
  for (const Shape& shape : {Shape{5000}, Shape{20, 24, 28}}) {
    const Field f = smooth_field("f", shape, 11);
    ArchiveFieldOptions opts;
    opts.tile = shape.ndim() == 1 ? Shape{700} : Shape{8, 8, 8};
    VectorSink sink;
    ArchiveWriter writer(sink);
    writer.add_field(f, opts);
    writer.finish();
    const auto bytes = sink.take();
    const Field out = ArchiveReader::open_memory(bytes).read_field("f");
    const double abs_eb = opts.eb.absolute_for(f.value_range());
    EXPECT_LE(max_abs_error(f.array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, f))
        << shape.ndim() << "D";
  }
}

// -- Region reads ------------------------------------------------------------

TEST(Archive, ReadRegionBitIdenticalToCroppedFullDecode) {
  const Field f = smooth_field("fld", Shape{70, 90}, 13);
  ArchiveFieldOptions opts;
  opts.tile = Shape{32, 32};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const Field full = reader.read_field("fld");

  Rng rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    std::size_t lo[2], hi[2];
    for (int d = 0; d < 2; ++d) {
      const std::size_t n = f.shape()[d];
      lo[d] = rng.uniform_index(n - 1);
      hi[d] = lo[d] + 1 + rng.uniform_index(n - lo[d]);
    }
    const Field region = reader.read_region("fld", lo, hi);
    ASSERT_EQ(region.shape(), (Shape{hi[0] - lo[0], hi[1] - lo[1]}));
    for (std::size_t i = 0; i < region.shape()[0]; ++i)
      ASSERT_EQ(0, std::memcmp(&region.array()(i, 0),
                               &full.array()(lo[0] + i, lo[1]),
                               region.shape()[1] * sizeof(float)))
          << "trial " << trial << " row " << i;
  }
}

TEST(Archive, ReadRegion3D) {
  const Field f = smooth_field("fld", Shape{20, 24, 28}, 19);
  ArchiveFieldOptions opts;
  opts.tile = Shape{8, 8, 8};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const Field full = reader.read_field("fld");

  const std::size_t lo[] = {3, 6, 9}, hi[] = {14, 20, 25};
  const Field region = reader.read_region("fld", lo, hi);
  ASSERT_EQ(region.shape(), (Shape{11, 14, 16}));
  for (std::size_t i = 0; i < 11; ++i)
    for (std::size_t j = 0; j < 14; ++j)
      for (std::size_t k = 0; k < 16; ++k)
        ASSERT_EQ(region.array()(i, j, k),
                  full.array()(lo[0] + i, lo[1] + j, lo[2] + k));
}

TEST(Archive, ReadRegionRejectsBadBounds) {
  const Field f = smooth_field("fld", Shape{40, 40}, 23);
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, ArchiveFieldOptions{});
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const std::size_t lo_bad[] = {10, 10}, hi_bad[] = {10, 20};  // empty
  EXPECT_THROW(reader.read_region("fld", lo_bad, hi_bad), InvalidArgument);
  const std::size_t lo_oob[] = {0, 0}, hi_oob[] = {41, 40};
  EXPECT_THROW(reader.read_region("fld", lo_oob, hi_oob), InvalidArgument);
  EXPECT_THROW(reader.read_field("nope"), InvalidArgument);
}

// -- Cross-field tiling ------------------------------------------------------

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

TEST(Archive, CrossFieldTiledAnchorContract) {
  const TinySet s = make_tiny(Shape{40, 48}, 31);
  const auto eb = ErrorBound::relative(1e-3);

  const CfnnModel model = train_cross_field_model(
      s.target, {&s.a0, &s.a1}, CfnnConfig{8, 4, 3}, quick_train());

  ArchiveFieldOptions aopts;
  aopts.eb = eb;
  aopts.tile = Shape{16, 16};
  aopts.keep_reconstruction = true;

  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(s.a0, aopts);
  writer.add_field(s.a1, aopts);
  writer.add_cross_field(s.target, {"A0", "A1"}, model, aopts);
  writer.finish();

  // The writer retained decoder-identical reconstructions; grab the
  // target's before the sink is consumed.
  ASSERT_NE(writer.reconstruction("TGT"), nullptr);
  const Field encoder_side = *writer.reconstruction("TGT");
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(reader.fields().size(), 3u);
  EXPECT_TRUE(reader.find("TGT")->cross_field);
  EXPECT_EQ(reader.find("TGT")->anchors,
            (std::vector<std::string>{"A0", "A1"}));

  // Anchor contract under tiling: encoder- and decoder-side target
  // reconstructions must be bit-identical.
  const Field decoded = reader.read_field("TGT");
  EXPECT_EQ(decoded.array(), encoder_side.array());

  const double abs_eb = eb.absolute_for(s.target.value_range());
  EXPECT_LE(max_abs_error(s.target.array().span(), decoded.array().span()),
            test::bound_tolerance(abs_eb, s.target));

  // Region read of a cross-field target (pulls anchor tiles recursively)
  // matches the cropped full decode bit-for-bit.
  const std::size_t lo[] = {10, 12}, hi[] = {30, 40};
  const Field region = reader.read_region("TGT", lo, hi);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 28; ++j)
      ASSERT_EQ(region.array()(i, j),
                decoded.array()(lo[0] + i, lo[1] + j));
}

TEST(Archive, MultiFieldWriteArchiveRoundTrips) {
  const TinySet s = make_tiny(Shape{40, 48}, 37);
  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  AnchorConfig cfg;
  cfg.anchors = {"A0", "A1"};
  cfg.cfnn = CfnnConfig{8, 4, 3};
  cfg.train = quick_train();
  mfc.configure_target("TGT", cfg);

  const auto eb = ErrorBound::relative(1e-3);
  ArchiveFieldOptions base;
  base.tile = Shape{16, 16};

  VectorSink sink;
  ArchiveWriter writer(sink);
  mfc.write_archive(writer, eb, base);
  writer.finish();
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const auto fields = reader.read_all();
  ASSERT_EQ(fields.size(), 3u);
  for (const Field& out : fields) {
    const Field* orig = mfc.find(out.name());
    ASSERT_NE(orig, nullptr);
    const double abs_eb = eb.absolute_for(orig->value_range());
    EXPECT_LE(max_abs_error(orig->array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, *orig))
        << out.name();
  }
}

// -- One read path over mixed tilings and anchor chains ----------------------

/// An archive of cross-field targets plus the writer's reconstruction of
/// every field in it.
struct AnchoredArchive {
  std::vector<std::uint8_t> bytes;
  std::map<std::string, Field> recon;
  std::string target;  // the field whose anchor closure is everything
};

/// Two anchors tiled 16x16 and a target over both tiled 24x20, so target
/// tiles straddle anchor tiles.
AnchoredArchive mixed_tiling_archive() {
  const TinySet s = make_tiny(Shape{40, 48}, 53);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  opts.keep_reconstruction = true;
  ArchiveFieldOptions target_opts = opts;
  target_opts.tile = Shape{24, 20};
  const CfnnModel model = train_cross_field_model(
      s.target, {&s.a0, &s.a1}, CfnnConfig{8, 4, 3}, quick_train());

  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(s.a0, opts);
  writer.add_field(s.a1, opts);
  writer.add_cross_field(s.target, {"A0", "A1"}, model, target_opts);
  writer.finish();
  AnchoredArchive out;
  for (const char* name : {"A0", "A1", "TGT"})
    out.recon.emplace(name, *writer.reconstruction(name));
  out.bytes = sink.take();
  out.target = "TGT";
  return out;
}

/// The chain T2 -> T1 -> A, every link tiled differently.
AnchoredArchive chained_archive() {
  const TinySet s = make_tiny(Shape{40, 48}, 59);
  Rng rng(61);
  Field t2("T2", F32Array(s.target.shape()));
  for (std::size_t i = 0; i < t2.size(); ++i)
    t2.array()[i] = static_cast<float>(0.6 * s.target.array()[i] +
                                       rng.normal(0, 0.05));
  const Field a("A", s.a0.array());
  const Field t1("T1", s.target.array());

  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.keep_reconstruction = true;
  VectorSink sink;
  ArchiveWriter writer(sink);
  opts.tile = Shape{16, 16};
  writer.add_field(a, opts);
  opts.tile = Shape{24, 20};
  writer.add_cross_field(
      t1, {"A"},
      train_cross_field_model(t1, {&a}, CfnnConfig{8, 4, 3}, quick_train()),
      opts);
  opts.tile = Shape{16, 28};
  writer.add_cross_field(
      t2, {"T1"},
      train_cross_field_model(t2, {&t1}, CfnnConfig{8, 4, 3}, quick_train()),
      opts);
  writer.finish();
  AnchoredArchive out;
  for (const char* name : {"A", "T1", "T2"})
    out.recon.emplace(name, *writer.reconstruction(name));
  out.bytes = sink.take();
  out.target = "T2";
  return out;
}

F32Array crop(const F32Array& src, const std::size_t* lo,
              const std::size_t* hi) {
  F32Array out(Shape{hi[0] - lo[0], hi[1] - lo[1]});
  const std::size_t zero[2] = {0, 0};
  copy_region(out, zero, src, lo, out.shape());
  return out;
}

bool boxes_touch(const TileBox& a, const TileBox& b) {
  for (std::size_t d = 0; d < a.extents.ndim(); ++d)
    if (a.lo[d] + a.extents[d] <= b.lo[d] || b.lo[d] + b.extents[d] <= a.lo[d])
      return false;
  return true;
}

/// Every direct read of every field must reproduce the writer's
/// reconstruction bit for bit: whole fields, region crops, single tiles with
/// and without a tile cache, read_all, and clean partial reads.
void expect_reads_match_writer(const AnchoredArchive& a) {
  const auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(a.bytes));
  server::TileCache cache;
  for (std::size_t fi = 0; fi < reader->fields().size(); ++fi) {
    const ArchiveFieldInfo& info = reader->fields()[fi];
    const F32Array& want = a.recon.at(info.name).array();
    ASSERT_EQ(reader->read_field(info.name).array(), want) << info.name;

    const std::size_t regions[][2][2] = {{{10, 12}, {30, 40}},
                                         {{23, 19}, {25, 21}},
                                         {{39, 47}, {40, 48}},
                                         {{5, 0}, {6, 48}},
                                         {{0, 30}, {40, 31}}};
    for (const auto& r : regions)
      EXPECT_EQ(reader->read_region(info.name, r[0], r[1]).array(),
                crop(want, r[0], r[1]))
          << info.name << " region at " << r[0][0] << "," << r[0][1];

    const TileGrid grid(info.shape, info.tile);
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const F32Array tile = extract_tile(want, grid.box(t));
      EXPECT_EQ(reader->read_tile(info, t, {}).array(), tile)
          << info.name << " tile " << t;
      EXPECT_EQ(cache.get(*reader, fi, t)->array(), tile)
          << info.name << " cached tile " << t;
    }

    ArchiveReadReport report;
    EXPECT_EQ(reader->read_field_partial(info.name, report).array(), want);
    EXPECT_TRUE(report.complete()) << info.name;
    EXPECT_EQ(report.tiles_ok, report.tiles_total) << info.name;
  }
  const std::vector<Field> all = reader->read_all();
  ASSERT_EQ(all.size(), a.recon.size());
  for (const Field& f : all)
    EXPECT_EQ(f.array(), a.recon.at(f.name()).array()) << f.name();
}

/// Damages one tile of `field`, then requires a contained read of the
/// target to fail exactly the tiles the damage reaches: the damaged tile,
/// and every tile whose box touches a failed tile of one of its anchors.
/// Everything else must still match the writer bit for bit.
void expect_damage_fails_only_touching_tiles(const AnchoredArchive& a,
                                             const std::string& field,
                                             std::size_t ordinal) {
  std::vector<std::uint8_t> damaged = a.bytes;
  {
    const ArchiveReader clean = ArchiveReader::open_memory(a.bytes);
    const ArchiveTileInfo& t = clean.find(field)->tiles[ordinal];
    damaged[t.offset + t.size / 2] ^= 0x10;
  }
  const ArchiveReader reader = ArchiveReader::open_memory(damaged);

  // The oracle: walk the fields in archive order (anchors come first) and
  // fail every tile touching a failed anchor tile.
  std::map<std::string, std::vector<TileBox>> failed;
  std::set<std::pair<std::string, std::size_t>> expected;
  for (const ArchiveFieldInfo& info : reader.fields()) {
    const TileGrid grid(info.shape, info.tile);
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const TileBox box = grid.box(t);
      bool fails = info.name == field && t == ordinal;
      for (const std::string& an : info.anchors)
        for (const TileBox& bad : failed[an])
          fails = fails || boxes_touch(box, bad);
      if (!fails) continue;
      failed[info.name].push_back(box);
      expected.emplace(info.name, t);
    }
  }
  ASSERT_GT(expected.size(), 2u);  // the damage reaches past its own field

  EXPECT_THROW(reader.read_field(a.target), CorruptStream);
  ArchiveReadReport report;
  const Field out = reader.read_field_partial(a.target, report);
  std::set<std::pair<std::string, std::size_t>> got;
  for (const ArchiveTileError& e : report.errors) {
    got.emplace(e.field, e.ordinal);
    if (e.field != field) {
      EXPECT_NE(e.message.find("anchor"), std::string::npos) << e.message;
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(report.tiles_ok + report.errors.size(), report.tiles_total);

  const F32Array& want = a.recon.at(a.target).array();
  const std::vector<TileBox>& holes = failed[a.target];
  for (std::size_t i = 0; i < out.shape()[0]; ++i)
    for (std::size_t j = 0; j < out.shape()[1]; ++j) {
      const TileBox point{{{i, j, 0}}, Shape{1, 1}};
      bool hole = false;
      for (const TileBox& h : holes) hole = hole || boxes_touch(point, h);
      ASSERT_EQ(out.array()(i, j), hole ? 0.0f : want(i, j))
          << "(" << i << "," << j << ")";
    }
}

TEST(ArchiveReadPath, TargetTiledUnlikeItsAnchors) {
  const AnchoredArchive a = mixed_tiling_archive();
  expect_reads_match_writer(a);
  // Anchor tile 4 is the 16x16 center box; it touches four 24x20 target
  // tiles.
  expect_damage_fails_only_touching_tiles(a, "A0", 4);
}

TEST(ArchiveReadPath, AnchorChain) {
  const AnchoredArchive a = chained_archive();
  expect_reads_match_writer(a);
  expect_damage_fails_only_touching_tiles(a, "A", 0);
  expect_damage_fails_only_touching_tiles(a, "T1", 4);
}

TEST(ArchiveReadPath, OpenRejectsAnchorGraphsThatCannotDecode) {
  // CRC-valid indexes with no tile bodies: only the anchor graph differs.
  const auto index_only = [](const std::vector<ArchiveFieldInfo>& fields) {
    VectorSink sink;
    archive_write_header(sink);
    archive_write_footer(sink, fields);
    return sink.take();
  };
  const auto field = [](const std::string& name,
                        std::vector<std::string> anchors, Shape shape) {
    ArchiveFieldInfo f;
    f.name = name;
    f.cross_field = !anchors.empty();
    f.codec = f.cross_field ? CodecId::kCrossField : CodecId::kSz;
    f.abs_eb = 1e-3;
    f.shape = shape;
    f.tile = shape;
    f.anchors = std::move(anchors);
    f.tiles = {ArchiveTileInfo{kArchiveHeaderSize, 0, 0}};
    return f;
  };
  const Shape s{8, 8};

  const auto sound = index_only({field("A", {}, s), field("B", {"A"}, s)});
  EXPECT_EQ(ArchiveReader::open_memory(sound).fields().size(), 2u);

  const auto cycle =
      index_only({field("A", {"B"}, s), field("B", {"A"}, s)});
  EXPECT_THROW(ArchiveReader::open_memory(cycle), CorruptStream);
  const auto dangling = index_only({field("A", {"missing"}, s)});
  EXPECT_THROW(ArchiveReader::open_memory(dangling), CorruptStream);
  const auto mismatched =
      index_only({field("A", {}, s), field("B", {"A"}, Shape{8, 9})});
  EXPECT_THROW(ArchiveReader::open_memory(mismatched), CorruptStream);
}

// -- Writer API misuse -------------------------------------------------------

TEST(Archive, WriterRejectsMisuse) {
  const Field f = smooth_field("fld", Shape{20, 20}, 41);
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, ArchiveFieldOptions{});
  EXPECT_THROW(writer.add_field(f, ArchiveFieldOptions{}), InvalidArgument)
      << "duplicate name";

  ArchiveFieldOptions xopts;
  xopts.codec = CodecId::kCrossField;
  Field g = smooth_field("g", Shape{20, 20}, 42);
  EXPECT_THROW(writer.add_field(g, xopts), InvalidArgument);

  const CfnnModel model = train_cross_field_model(
      g, {&f}, CfnnConfig{8, 4, 3}, quick_train());
  // Anchor "fld" was not added with keep_reconstruction.
  EXPECT_THROW(writer.add_cross_field(g, {"fld"}, model, ArchiveFieldOptions{}),
               InvalidArgument);

  writer.finish();
  EXPECT_THROW(writer.finish(), InvalidArgument);
  EXPECT_THROW(writer.add_field(g, ArchiveFieldOptions{}), InvalidArgument);
}

TEST(Archive, WriterRefusesTilesItsReaderWouldRefuse) {
  const Field f = smooth_field("f", Shape{64}, 45);
  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.tile = Shape{(std::size_t{1} << 32) + 1};
  EXPECT_THROW(writer.add_field(f, opts), InvalidArgument);
  opts.tile = Shape{std::size_t{1} << 32};
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  const ArchiveReader reader = ArchiveReader::open_memory(bytes);
  EXPECT_EQ(reader.find("f")->tile, opts.tile);
  EXPECT_EQ(reader.read_field("f").shape(), f.shape());
}

// -- File-backed path --------------------------------------------------------

TEST(Archive, FileBackedWriteAndSeekingRead) {
  // Per-process names: test_archive and test_archive_mt4 run concurrently
  // under `ctest -j`, and FileSink's temp+rename commit must not race a
  // sibling process on the same path.
  const std::string path = ::testing::TempDir() + "xfc_test_archive." +
                           std::to_string(::getpid()) + ".xfa";
  const Field f = smooth_field("fld", Shape{64, 64}, 43);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.tile = Shape{32, 32};
    writer.add_field(f, opts);
    writer.finish();
  }
  ArchiveReader reader = ArchiveReader::open_file(path);
  const Field full = reader.read_field("fld");
  const double abs_eb =
      ArchiveFieldOptions{}.eb.absolute_for(f.value_range());
  EXPECT_LE(max_abs_error(f.array().span(), full.array().span()),
            test::bound_tolerance(abs_eb, f));

  const std::size_t lo[] = {40, 8}, hi[] = {64, 33};
  const Field region = reader.read_region("fld", lo, hi);
  for (std::size_t i = 0; i < region.shape()[0]; ++i)
    for (std::size_t j = 0; j < region.shape()[1]; ++j)
      ASSERT_EQ(region.array()(i, j), full.array()(lo[0] + i, lo[1] + j));
  std::remove(path.c_str());
}

TEST(Archive, ConcurrentReadsFromOneFileBackedReader) {
  // Regression for the shared-fd seek+read race: RandomAccessFile used one
  // seek cursor behind a mutex; tile reads now use positional pread, so
  // many threads hammering one reader must all see the single-threaded
  // bytes. (Pre-fix the mutex hid the race; this pins the contract so a
  // future "optimization" back to a shared cursor fails loudly.)
  const std::string path = ::testing::TempDir() + "xfc_test_archive_mt." +
                           std::to_string(::getpid()) + ".xfa";
  // A cross-field target, tiled unlike its anchor, puts the executor's
  // anchors-first tile-parallel decode under the same concurrency.
  const Field f = smooth_field("fld", Shape{128, 128}, 77);
  Rng rng(79);
  Field g("tgt", F32Array(f.shape()));
  for (std::size_t i = 0; i < g.size(); ++i)
    g.array()[i] =
        static_cast<float>(0.7 * f.array()[i] + rng.normal(0, 0.05));
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.tile = Shape{16, 16};  // 64 tiles: plenty of concurrent read_at
    opts.keep_reconstruction = true;
    writer.add_field(f, opts);
    opts.tile = Shape{32, 24};
    writer.add_cross_field(
        g, {"fld"},
        train_cross_field_model(g, {&f}, CfnnConfig{8, 4, 3}, quick_train()),
        opts);
    writer.finish();
  }
  const ArchiveReader reader = ArchiveReader::open_file(path);
  std::map<std::string, Field> expected;
  for (const char* name : {"fld", "tgt"})
    expected.emplace(name, reader.read_field(name));

  constexpr int kThreads = 8;
  std::atomic<int> at_gate{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      at_gate.fetch_add(1);
      while (at_gate.load() < kThreads) std::this_thread::yield();
      // Mix whole-field (tile-parallel), region, and single-tile reads.
      for (const auto& [name, want] : expected) {
        const Field full = reader.read_field(name);
        if (full.array() != want.array()) failures.fetch_add(1);
        const std::size_t lo[] = {static_cast<std::size_t>(8 * i), 24};
        const std::size_t hi[] = {lo[0] + 40, 120};
        const Field region = reader.read_region(name, lo, hi);
        for (std::size_t r = 0; r < 40 && failures.load() == 0; ++r)
          for (std::size_t c = 0; c < 96; ++c)
            if (region.array()(r, c) != want.array()(lo[0] + r, 24 + c)) {
              failures.fetch_add(1);
              break;
            }
        const ArchiveFieldInfo& info = *reader.find(name);
        const std::size_t t = static_cast<std::size_t>(i) % info.tiles.size();
        const Field tile = reader.read_tile(info, t, {});
        const TileGrid grid(info.shape, info.tile);
        if (tile.array() != extract_tile(want.array(), grid.box(t)))
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

// -- Index self-protection ---------------------------------------------------

TEST(Archive, TileCrcIsPositionAndFieldDependent) {
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  const auto base = archive_tile_crc("A", 0, body);
  EXPECT_NE(base, archive_tile_crc("A", 1, body));
  EXPECT_NE(base, archive_tile_crc("B", 0, body));
  EXPECT_EQ(base, archive_tile_crc("A", 0, body));
}

// -- Epoch appends -----------------------------------------------------------

TEST(Archive, AppendEpochRoundTripsAndAnchorsOnSealedFields) {
  const Shape shape{40, 48};
  const Field a = smooth_field("a", shape, 5);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    writer.add_field(a, opts);
    writer.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();

  const ArchiveReader r0 = ArchiveReader::open_memory(base);
  EXPECT_EQ(r0.epoch_count(), 1u);
  const Field a_recon = r0.read_field("a");

  // Epoch 1: a plain append plus a cross-field target anchored on the
  // sealed epoch-0 field — its reconstruction is decoded on demand through
  // the existing reader, no keep_reconstruction needed at epoch 0.
  Rng rng(31);
  Field vx("vx", F32Array(shape));
  for (std::size_t i = 0; i < vx.size(); ++i)
    vx.array()[i] = static_cast<float>(0.8 * a_recon.array()[i] +
                                       rng.normal(0, 0.05));
  const CfnnModel model = train_cross_field_model(vx, {&a_recon},
                                                  CfnnConfig{8, 4, 3},
                                                  quick_train());
  const Field b = smooth_field("b", shape, 6);
  VectorSink sink(base);
  ArchiveAppender appender(sink, r0);
  appender.append_field(b, opts);
  appender.append_cross_field(vx, {"a"}, model, opts);
  EXPECT_EQ(appender.fields_pending(), 2u);
  EXPECT_EQ(appender.finish_epoch(), 1u);
  EXPECT_EQ(appender.fields_pending(), 0u);
  const std::vector<std::uint8_t> bytes = sink.take();

  const ArchiveReader r1 = ArchiveReader::open_memory(bytes);
  EXPECT_EQ(r1.epoch_count(), 2u);
  EXPECT_EQ(r1.recovered_bytes_discarded(), 0u);
  EXPECT_TRUE(r1.scrub().clean());
  ASSERT_EQ(r1.fields().size(), 3u);
  EXPECT_EQ(r1.fields()[0].name, "a");
  EXPECT_EQ(r1.fields()[0].epoch, 0u);
  EXPECT_EQ(r1.fields()[1].epoch, 1u);
  EXPECT_EQ(r1.fields()[2].epoch, 1u);

  // Epoch-0 bytes are untouched: the old field decodes bit-identically.
  EXPECT_EQ(r1.read_field("a").array(), a_recon.array());
  // The appended fields meet their error bound through the merged index.
  for (const Field* orig : std::initializer_list<const Field*>{&b, &vx}) {
    const Field out = r1.read_field(orig->name());
    const double abs_eb = opts.eb.absolute_for(orig->value_range());
    EXPECT_LE(max_abs_error(orig->array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, *orig))
        << orig->name();
  }
}

TEST(Archive, ReplaceFieldKeepsIndexPositionAndSupersedesData) {
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    writer.add_field(smooth_field("a", Shape{40, 48}, 5), opts);
    writer.add_field(smooth_field("b", Shape{40, 48}, 6), opts);
    writer.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();
  const ArchiveReader r0 = ArchiveReader::open_memory(base);
  const Field b_before = r0.read_field("b");

  // Replace "a" with a different shape and different data.
  const Field a2 = smooth_field("a", Shape{24, 20}, 77);
  VectorSink sink(base);
  ArchiveAppender appender(sink, r0);
  appender.replace_field(a2, opts);
  EXPECT_EQ(appender.finish_epoch(), 1u);
  const std::vector<std::uint8_t> bytes = sink.take();

  const ArchiveReader r1 = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(r1.fields().size(), 2u);
  // The replacement sits at the replaced field's index position, so cached
  // keys of every *other* field stay valid across the swap.
  EXPECT_EQ(r1.fields()[0].name, "a");
  EXPECT_EQ(r1.fields()[0].epoch, 1u);
  EXPECT_EQ(r1.fields()[0].shape, (Shape{24, 20}));
  EXPECT_EQ(r1.fields()[1].name, "b");
  EXPECT_EQ(r1.fields()[1].epoch, 0u);
  EXPECT_EQ(r1.read_field("b").array(), b_before.array());
  const Field out = r1.read_field("a");
  const double abs_eb = opts.eb.absolute_for(a2.value_range());
  EXPECT_LE(max_abs_error(a2.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, a2));
  EXPECT_TRUE(r1.scrub().clean());
}

TEST(Archive, AppenderRejectsMisuse) {
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  const Field a = smooth_field("a", Shape{40, 48}, 5);
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    ArchiveFieldOptions kopts = opts;
    kopts.keep_reconstruction = true;
    ArchiveWriter& w = writer;
    w.add_field(a, kopts);
    Rng rng(31);
    Field tgt("tgt", F32Array(Shape{40, 48}));
    for (std::size_t i = 0; i < tgt.size(); ++i)
      tgt.array()[i] =
          static_cast<float>(0.8 * a.array()[i] + rng.normal(0, 0.05));
    const CfnnModel model = train_cross_field_model(
        tgt, {&a}, CfnnConfig{8, 4, 3}, quick_train());
    w.add_cross_field(tgt, {"a"}, model, opts);
    w.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();
  const ArchiveReader r0 = ArchiveReader::open_memory(base);

  VectorSink sink(base);
  ArchiveAppender appender(sink, r0);
  // Appending under a taken name, replacing a missing one, sealing an
  // empty epoch: all typed errors before any byte lands.
  EXPECT_THROW(appender.append_field(a, opts), InvalidArgument);
  EXPECT_THROW(appender.replace_field(smooth_field("nope", Shape{8, 8}, 1),
                                      opts),
               InvalidArgument);
  EXPECT_THROW(appender.finish_epoch(), InvalidArgument);
  // Replacing an anchor would break the dependents' bit-exact anchor
  // reconstructions.
  EXPECT_THROW(appender.replace_field(smooth_field("a", Shape{8, 8}, 2), opts),
               InvalidArgument);
  // A field appended this epoch without keep_reconstruction cannot anchor:
  // its reconstruction is not reachable until the file is reopened.
  const Field c = smooth_field("c", Shape{40, 48}, 9);
  appender.append_field(c, opts);  // keep_reconstruction defaults false
  Rng rng(32);
  Field dep("dep", F32Array(Shape{40, 48}));
  for (std::size_t i = 0; i < dep.size(); ++i)
    dep.array()[i] =
        static_cast<float>(0.7 * c.array()[i] + rng.normal(0, 0.05));
  const CfnnModel model = train_cross_field_model(
      dep, {&c}, CfnnConfig{8, 4, 3}, quick_train());
  EXPECT_THROW(appender.append_cross_field(dep, {"c"}, model, opts),
               InvalidArgument);
  EXPECT_EQ(appender.fields_pending(), 1u);  // "c" alone survived
  appender.finish_epoch();
  EXPECT_TRUE(
      ArchiveReader::open_memory(sink.bytes()).scrub().clean());

  // The sink must sit exactly at the sealed size the reader describes.
  VectorSink misaligned(std::vector<std::uint8_t>(base.size() + 3, 0));
  EXPECT_THROW(ArchiveAppender(misaligned, r0), InvalidArgument);
}

}  // namespace
}  // namespace xfc
