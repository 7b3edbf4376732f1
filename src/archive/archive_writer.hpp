#ifndef XFC_ARCHIVE_ARCHIVE_WRITER_HPP
#define XFC_ARCHIVE_ARCHIVE_WRITER_HPP

/// \file archive_writer.hpp
/// Streaming writer for the XFA1 tiled archive container.
///
/// The monolithic XFC1 streams compress one field as one sequential
/// reconstruction chain — no random access, no bounded-memory streaming, no
/// decode-side parallelism. XFA1 is the scale-out container on top of the
/// same codecs: every field is split into fixed-size tiles (edge tiles
/// ragged), every tile is compressed *independently* through an existing
/// codec, and a footer index records where each tile body lives so readers
/// can seek straight to it.
///
/// On-disk layout (all integers little-endian; varint = LEB128):
///
///   +--------------------------------------------------------------+
///   | header   "XFA1" | u8 version (=1)                            |
///   +--------------------------------------------------------------+
///   | tile bodies, concatenated in write order. Each body is a     |
///   | complete, self-contained XFC1 container stream (magic, codec |
///   | id, body, CRC-32) as produced by sz/interp/zfp/cross-field   |
///   | compress on the tile's data.                                 |
///   +--------------------------------------------------------------+
///   | footer   "XFAF"                                              |
///   |   varint field_count                                         |
///   |   per field:                                                 |
///   |     str  name                                                |
///   |     u8   codec id   (CodecId of the tile bodies)             |
///   |     u8   flags      (bit0: cross-field target,               |
///   |                      bit1: varint epoch follows — only when  |
///   |                      the field's append epoch is nonzero)    |
///   |     [varint epoch   iff flags bit1]                          |
///   |     u8   eb mode | f64 eb value | f64 resolved absolute eb   |
///   |     shape       (u8 rank | varint extents)                   |
///   |     tile shape  (same encoding, same rank)                   |
///   |     if cross-field: varint anchor_count | anchor names (str) |
///   |     varint tile_count   (== grid tile count, checked)        |
///   |     per tile (row-major grid order):                         |
///   |       varint offset | varint size | u32 tile CRC             |
///   +--------------------------------------------------------------+
///   | trailer  u32 footer CRC | u64 footer offset |                |
///   |          u64 footer size | "XFA1"            (24 bytes)      |
///   +--------------------------------------------------------------+
///
/// The fixed-size trailer at EOF is what makes the format seekable: a
/// reader checks both magics, jumps to the footer, CRC-validates it, and
/// from then on touches only the tile bodies a query needs. The per-tile
/// CRC is computed over (field name, tile ordinal, body bytes). It catches
/// a corrupted body, but not an index entry pointed at another valid body
/// of the same length (see archive_tile_crc).
///
/// Error-bound semantics: the writer resolves a relative bound against the
/// *full field's* value range once and compresses every tile at that
/// absolute bound. A tiled round trip therefore satisfies exactly the same
/// ErrorBound as the monolithic path (dual quantization is pointwise, so
/// per-tile reconstruction equals the monolithic reconstruction cropped).
///
/// Cross-field tiles: a target tile is compressed against the *same tile
/// box* of its anchors' reconstructions, and the anchor contract demands
/// those bytes be bit-identical on both sides. The writer therefore
/// reconstructs every anchor tile by decoding the tile stream it just
/// wrote (exact for every codec, including the non-dual-quant zfp), and
/// the reader hands the decoder its own decoded anchor tiles. The CFNN
/// model is embedded per tile body (the stream format is unchanged), so
/// small tiles trade ratio for access granularity — see the README.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "core/field.hpp"
#include "crossfield/crossfield.hpp"
#include "io/stream.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"

namespace xfc {

/// Per-field archive compression options.
struct ArchiveFieldOptions {
  ErrorBound eb = ErrorBound::relative(1e-3);
  /// Tile codec: kSz, kSzClassic, kInterp or kZfp (add_cross_field ignores
  /// this and writes kCrossField bodies).
  CodecId codec = CodecId::kSz;
  SzPredictor predictor = SzPredictor::kLorenzo1;  // kSz only
  LosslessBackend backend = LosslessBackend::kAuto;
  std::uint32_t quant_radius = kDefaultQuantRadius;
  /// Tile extents; default-constructed (rank 0) selects
  /// TileGrid::default_tile for the field's rank.
  Shape tile;
  /// Retain this field's decoded reconstruction in the writer so later
  /// add_cross_field calls can anchor on it.
  bool keep_reconstruction = false;
};

/// Streaming XFA1 writer. Usage:
///
///   VectorSink sink;                       // or FileSink("snap.xfa")
///   ArchiveWriter w(sink);
///   w.add_field(pressure, opts_with_keep);
///   w.add_cross_field(wind, {"pressure"}, model, opts);
///   w.finish();
///
/// Memory stays bounded: tiles are compressed and appended one batch at a
/// time (a grid row, or a few tiles per pool worker if rows are narrower —
/// the batch compresses in parallel), and only fields added with
/// keep_reconstruction are retained.
class ArchiveWriter {
 public:
  explicit ArchiveWriter(ByteSink& sink);

  /// Tiles and compresses `field` with its own (non-cross-field) codec.
  void add_field(const Field& field, const ArchiveFieldOptions& options = {});

  /// Tiles and compresses `target` cross-field: each tile is coded against
  /// the same tile box of the named anchors' reconstructions. Every anchor
  /// must have been added earlier with keep_reconstruction = true.
  void add_cross_field(const Field& target,
                       const std::vector<std::string>& anchor_names,
                       const CfnnModel& model,
                       const ArchiveFieldOptions& options = {});

  /// Appends a field whose tile bodies are already-encoded XFC1 container
  /// streams — the archive-repair path, which salvages verbatim bodies out
  /// of a damaged archive. Geometry and error-bound metadata are copied
  /// from `meta`; `body_for(ordinal)` supplies each tile's complete body in
  /// row-major grid order. Tile CRCs are recomputed here, so a verbatim
  /// body keeps its original CRC (the checksum is a pure function of field
  /// name, ordinal and bytes). No reconstruction is retained; anchors named
  /// in `meta` are recorded as-is and must be satisfied by other fields of
  /// the finished archive.
  void add_prebuilt_field(
      const ArchiveFieldInfo& meta,
      const std::function<std::vector<std::uint8_t>(std::size_t)>& body_for);

  /// Writes the footer index and trailer, then commits the sink (a
  /// FileSink publishes its temp file onto the final path here, so a crash
  /// mid-write never leaves a truncated archive behind). No fields may be
  /// added after.
  void finish();

  /// Decoder-identical reconstruction of a field added with
  /// keep_reconstruction (nullptr otherwise). Exposed so callers can chain
  /// anchors or compute quality metrics without re-reading the archive.
  const Field* reconstruction(const std::string& name) const;

  std::size_t fields_written() const { return fields_.size(); }

 private:
  void write_tiles(const Field& field, const ArchiveFieldOptions& options,
                   ArchiveFieldInfo& entry,
                   const std::vector<const Field*>& anchor_recons,
                   const CfnnModel* model);

  ByteSink& sink_;
  std::vector<ArchiveFieldInfo> fields_;
  std::map<std::string, Field> reconstructions_;
  bool finished_ = false;
};

}  // namespace xfc

#endif  // XFC_ARCHIVE_ARCHIVE_WRITER_HPP
