#ifndef XFC_ARCHIVE_ARCHIVE_READER_HPP
#define XFC_ARCHIVE_ARCHIVE_READER_HPP

/// \file archive_reader.hpp
/// Seek-and-decode side of the XFA1 tiled archive (layout documented in
/// archive_writer.hpp). Opening validates the header/trailer magics, the
/// footer CRC and the anchor graph, and keeps the fields' dependency order
/// (anchors before their targets).
///
/// Every direct read — read_field, read_region, read_all, the partial
/// variants, and read_tile without a fetcher — runs one plan and one
/// executor. The plan is the tile-aligned box each field of the request's
/// anchor closure must decode: a cross-field target decodes whole tile
/// boxes against the same boxes of its anchors, so its box is pushed down
/// to its anchors. The executor decodes those boxes field by field in
/// dependency order, tile-parallel within a field, and crops each target
/// tile's anchor boxes from its anchors' decoded boxes. Region output is
/// bit-identical to cropping a full decode (tiles are independent streams).
///
/// Every tile decode verifies the per-tile CRC before parsing a body, and
/// every malformed-archive condition the checks catch — truncation, bit
/// flips, dangling or cyclic anchors, index entries whose bodies differ in
/// length from the one the CRC was taken over — surfaces as CorruptStream.
/// The tile CRC does not identify content: an index entry pointed at
/// another valid body of the same length passes (see archive_tile_crc).

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "io/stream.hpp"
#include "sz/container.hpp"

namespace xfc {

struct TileBox;  // archive/tile.hpp

/// Format constants shared by the writer and reader.
inline constexpr std::uint8_t kArchiveVersion = 1;
inline constexpr std::size_t kArchiveHeaderSize = 5;   // "XFA1" + version
inline constexpr std::size_t kArchiveTrailerSize = 24;  // crc+off+size+magic

/// Tile checksum: CRC-32 over (field name, LE64 tile ordinal, body bytes).
/// It catches a corrupted body. It does not catch a different valid body of
/// the same length: every body ends in its XFC1 container's own CRC-32, and
/// a CRC-32 over a message followed by its own CRC is a constant, so for
/// valid bodies this value depends only on (field name, ordinal, body
/// length). Identifying content needs a content hash in the index.
std::uint32_t archive_tile_crc(const std::string& field_name,
                               std::uint64_t ordinal,
                               std::span<const std::uint8_t> body);

/// Decodes one self-contained tile body through whichever codec framed it.
/// `anchors` feed cross-field bodies and are ignored by the rest; pass the
/// expected codec to reject a body whose frame disagrees with the index.
Field archive_decode_tile(std::span<const std::uint8_t> body, CodecId expected,
                          const std::vector<const Field*>& anchors = {});

struct ArchiveTileInfo {
  std::uint64_t offset = 0;  // absolute file offset of the tile body
  std::uint64_t size = 0;    // body length in bytes
  std::uint32_t crc = 0;     // archive_tile_crc of the body
};

/// One contained per-tile failure from a degraded read or a scrub walk.
/// Carries enough context (field, grid ordinal, file offset) for an
/// operator to locate the bad bytes from a log line alone.
struct ArchiveTileError {
  std::string field;
  std::size_t ordinal = 0;
  std::uint64_t offset = 0;  // file offset of the tile body
  std::string message;       // what() of the contained exception
};

/// Fill value for tiles a degraded read could not decode. kZero serves
/// zeros (safe for renderers); kNan poisons the gap so downstream numerics
/// cannot mistake filled values for data.
enum class TileFillPolicy : std::uint8_t { kZero, kNan };

/// Outcome of a degraded read: which tiles of the query decoded and which
/// failed. The output field is bit-identical to the strict read everywhere
/// outside the failed tiles' boxes.
struct ArchiveReadReport {
  std::size_t tiles_total = 0;  // tiles this query needed (all fields)
  std::size_t tiles_ok = 0;
  std::vector<ArchiveTileError> errors;
  bool complete() const { return errors.empty(); }
};

/// Outcome of scrub(): every tile of every field, CRC-walked, no decode.
struct ArchiveScrubReport {
  std::size_t tiles_total = 0;
  std::size_t tiles_ok = 0;
  std::vector<ArchiveTileError> errors;
  bool clean() const { return errors.empty(); }
};

struct ArchiveFieldInfo {
  std::string name;
  CodecId codec = CodecId::kSz;
  bool cross_field = false;
  std::uint8_t eb_mode = 0;  // ErrorBoundMode as written
  double eb_value = 0.0;
  double abs_eb = 0.0;       // resolved absolute bound (whole field)
  /// Append epoch that sealed this field's current bodies (0 = the epoch
  /// the archive was created in). Encoded in the footer only when nonzero,
  /// so write-once archives stay byte-identical to the frozen format.
  std::uint32_t epoch = 0;
  Shape shape;
  Shape tile;
  std::vector<std::string> anchors;       // cross-field targets only
  std::vector<ArchiveTileInfo> tiles;     // row-major grid order

  std::size_t compressed_bytes() const {
    std::size_t total = 0;
    for (const ArchiveTileInfo& t : tiles) total += t.size;
    return total;
  }
};

/// Throws CorruptStream if the fields' anchor references dangle, disagree
/// on shape, or form a cycle. Otherwise returns the field indices in
/// dependency order: every field after all of its anchors. ArchiveReader
/// runs this on every index it parses, so any recursion over a reader's
/// anchor edges (the tile cache's anchor fetches and the single-flight
/// waits that follow them across threads) walks a DAG and terminates.
std::vector<std::size_t> validate_anchor_graph(
    const std::vector<ArchiveFieldInfo>& fields);

/// Anchor-tile provider for ArchiveReader::read_tile: returns the decoded
/// tile `ordinal` of `field`'s own grid. A serving-layer cache injects
/// itself here so anchor tiles decode once and get shared across requests.
using TileFetch = std::function<std::shared_ptr<const Field>(
    const ArchiveFieldInfo& field, std::size_t ordinal)>;

class ArchiveReader {
 public:
  /// Takes ownership of an arbitrary source; validates and parses the
  /// index, anchor graph included (validate_anchor_graph — an index whose
  /// anchors dangle, disagree on shape or form a cycle is corrupt).
  /// Recovery-on-open: when the bytes at EOF do not form a valid trailer
  /// (a crashed append left a torn tail), the reader scans backward for
  /// the newest trailer whose index validates and opens the archive as of
  /// that commit point — the partially appended epoch is absent, never
  /// wrong. The discarded tail length is reported by
  /// recovered_bytes_discarded(); a stream with no valid trailer at all
  /// still throws CorruptStream.
  explicit ArchiveReader(std::unique_ptr<ByteSource> source);

  /// Opens a file-backed archive (seekable reads via RandomAccessFile).
  static ArchiveReader open_file(const std::string& path);

  /// Borrows an in-memory archive; `bytes` must outlive the reader.
  static ArchiveReader open_memory(std::span<const std::uint8_t> bytes);

  const std::vector<ArchiveFieldInfo>& fields() const { return fields_; }
  const ArchiveFieldInfo* find(const std::string& name) const;

  /// Logical size of the archive: one past the last byte of the trailer
  /// this reader committed to. Equals the source size unless recovery
  /// discarded a torn tail. An ArchiveAppender resumes writing here.
  std::size_t logical_size() const { return logical_size_; }

  /// Bytes past the last valid trailer that recovery-on-open discarded
  /// (0 for a cleanly closed archive).
  std::size_t recovered_bytes_discarded() const {
    return recovered_bytes_discarded_;
  }

  /// Number of append epochs sealed into this archive (>= 1): one plus the
  /// highest per-field epoch in the index.
  std::uint32_t epoch_count() const;

  /// Full decode of one field (tile-parallel). Cross-field targets decode
  /// their anchors first; the anchor boxes handed to the codec are the
  /// reader's own decoded tiles, which match the writer's reconstructions
  /// bit-exactly (the tiled anchor contract).
  Field read_field(const std::string& name) const;

  /// Decodes only the tiles intersecting the half-open region [lo, hi)
  /// (rank-sized bounds), plus the anchor tiles those need, and returns
  /// the assembled (hi-lo)-shaped field. Bit-identical to cropping
  /// read_field's output.
  Field read_region(const std::string& name, std::span<const std::size_t> lo,
                    std::span<const std::size_t> hi) const;

  /// Decodes every field, returned in archive order; each field decodes
  /// once, anchors included.
  std::vector<Field> read_all() const;

  /// Decodes exactly one tile (row-major grid ordinal) of one field — the
  /// serving layer's unit of work. Thread-safe: the reader is immutable
  /// after construction and file-backed sources use positional reads, so
  /// any number of threads may decode tiles of one reader concurrently.
  /// A cross-field tile needs its anchors' boxes over the same box: with
  /// `fetch` (a cache sharing decoded tiles) they are assembled from whole
  /// anchor tiles; without one the tile is read through the same plan and
  /// executor as read_region. Either way the bytes are identical to the
  /// corresponding crop of read_field — tiles are independent streams.
  Field read_tile(const ArchiveFieldInfo& info, std::size_t ordinal,
                  const TileFetch& fetch = {}) const;

  /// Name-keyed convenience overload.
  Field read_tile(const std::string& name, std::size_t ordinal) const;

  /// Raw, CRC-verified tile body (a complete XFC1 container stream) —
  /// the unit the repair path salvages verbatim. Throws CorruptStream on a
  /// CRC mismatch, IoError when the device fails.
  std::vector<std::uint8_t> read_tile_bytes(const ArchiveFieldInfo& info,
                                            std::size_t ordinal) const;

  /// Degraded-mode full read: per-tile failures (I/O error, CRC mismatch,
  /// corrupt body) are contained into `report` instead of aborting the
  /// read; the failed tiles' boxes hold the fill value. A cross-field tile
  /// whose anchor coverage could not be decoded is failed too — degraded
  /// output is never silently wrong, only absent. Bounds/argument errors
  /// still throw (they are caller bugs, not device faults).
  Field read_field_partial(const std::string& name, ArchiveReadReport& report,
                           TileFillPolicy fill = TileFillPolicy::kZero) const;

  /// Degraded-mode region read; same containment contract.
  Field read_region_partial(const std::string& name,
                            std::span<const std::size_t> lo,
                            std::span<const std::size_t> hi,
                            ArchiveReadReport& report,
                            TileFillPolicy fill = TileFillPolicy::kZero) const;

  /// Walks every tile of every field, verifying the per-tile CRC against
  /// the index without decoding a single body — the cheap integrity pass
  /// behind `xfc_cli archive verify`. I/O errors and CRC mismatches land in
  /// the report; nothing throws for per-tile damage.
  ArchiveScrubReport scrub() const;

 private:
  /// One direct read: a box of one field (defined with the executor).
  struct Request;

  void parse_index();
  /// Strict single-commit-point parse: validates the trailer ending at
  /// `logical_end`, fills `out` from its footer and returns its dependency
  /// order. Throws CorruptStream on any malformation, anchor graph
  /// included; touches nothing outside [0, logical_end).
  std::vector<std::size_t> parse_index_at(
      std::size_t logical_end, std::vector<ArchiveFieldInfo>& out) const;
  const ArchiveFieldInfo& require(const std::string& name) const;
  std::size_t index_of(const std::string& name) const;
  /// The one per-tile decode step: CRC-checked body, codec, shape check.
  Field decode_tile(const ArchiveFieldInfo& info, std::size_t ordinal,
                    const TileBox& box,
                    const std::vector<const Field*>& anchors) const;
  /// Plans and executes `requests` (at most one per field), returning one
  /// field per request. Strict without a report (the first tile error
  /// throws); contained with one (failed tiles hold `fill`, and so does
  /// every tile whose box touches a failed anchor tile).
  std::vector<Field> execute(const std::vector<Request>& requests,
                             ArchiveReadReport* report,
                             TileFillPolicy fill) const;
  Field read_box(const ArchiveFieldInfo& info, const TileBox& box,
                 ArchiveReadReport* report, TileFillPolicy fill) const;

  std::unique_ptr<ByteSource> source_;
  std::vector<ArchiveFieldInfo> fields_;
  std::vector<std::size_t> order_;  // fields_ indices, anchors first
  std::size_t logical_size_ = 0;
  std::size_t recovered_bytes_discarded_ = 0;
};

}  // namespace xfc

#endif  // XFC_ARCHIVE_ARCHIVE_READER_HPP
