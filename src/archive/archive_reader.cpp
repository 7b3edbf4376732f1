#include "archive/archive_reader.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <set>

#include "archive/tile.hpp"
#include "core/error.hpp"
#include "core/utils.hpp"
#include "crossfield/crossfield.hpp"
#include "io/crc32.hpp"
#include "obs/trace.hpp"
#include "sz/classic.hpp"
#include "sz/compressor.hpp"
#include "sz/interpolation.hpp"
#include "zfp/zfp_codec.hpp"

namespace xfc {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'X', 'F', 'A', '1'};
constexpr std::array<std::uint8_t, 4> kFooterMagic{'X', 'F', 'A', 'F'};

// Caps that turn absurd index declarations into CorruptStream before any
// proportional allocation happens (same discipline as parse_container).
constexpr std::uint64_t kMaxFields = 1u << 20;
constexpr std::uint64_t kMaxAnchors = 255;

/// Operator-grade location suffix appended to every tile-path error: which
/// field, which grid ordinal, which file offset the bad bytes live at.
std::string tile_context(const ArchiveFieldInfo& info, std::size_t ordinal) {
  return " [field '" + info.name + "' tile " + std::to_string(ordinal) +
         " @offset " + std::to_string(info.tiles[ordinal].offset) + "]";
}

/// Rethrows the in-flight exception with the tile location appended,
/// preserving its type so callers keep matching on CorruptStream/IoError.
[[noreturn]] void rethrow_with_tile_context(const ArchiveFieldInfo& info,
                                            std::size_t ordinal) {
  const std::string ctx = tile_context(info, ordinal);
  try {
    throw;
  } catch (const CorruptStream& e) {
    throw CorruptStream(e.what() + ctx);
  } catch (const IoError& e) {
    throw IoError(e.what() + ctx);
  }
  // Anything else (InvalidArgument, std::bad_alloc) propagates untouched.
}

/// Deterministic report order regardless of decode-thread interleaving.
void sort_tile_errors(std::vector<ArchiveTileError>& errors) {
  std::sort(errors.begin(), errors.end(),
            [](const ArchiveTileError& a, const ArchiveTileError& b) {
              if (a.field != b.field) return a.field < b.field;
              return a.ordinal < b.ordinal;
            });
}

// Boxes of field coordinates are TileBoxes (lo + extents); a default one
// (rank 0) is empty.

std::array<std::size_t, 3> box_hi(const TileBox& b) {
  std::array<std::size_t, 3> hi{{0, 0, 0}};
  for (std::size_t d = 0; d < b.extents.ndim(); ++d)
    hi[d] = b.lo[d] + b.extents[d];
  return hi;
}

TileBox make_box(std::span<const std::size_t> lo,
                 std::span<const std::size_t> hi) {
  TileBox b;
  std::size_t dims[3];
  for (std::size_t d = 0; d < lo.size(); ++d) {
    b.lo[d] = lo[d];
    dims[d] = hi[d] - lo[d];
  }
  b.extents = Shape(std::span<const std::size_t>(dims, lo.size()));
  return b;
}

/// The caller's [lo, hi) as a box; bounds errors are caller bugs.
TileBox region_box(const ArchiveFieldInfo& info,
                   std::span<const std::size_t> lo,
                   std::span<const std::size_t> hi) {
  const std::size_t ndim = info.shape.ndim();
  expects(lo.size() == ndim && hi.size() == ndim,
          "read_region: bounds rank must match the field rank");
  for (std::size_t d = 0; d < ndim; ++d)
    expects(lo[d] < hi[d] && hi[d] <= info.shape[d],
            "read_region: empty or out-of-bounds region");
  return make_box(lo, hi);
}

/// Smallest box holding `a` and `b`; `a` may be empty.
TileBox hull(const TileBox& a, const TileBox& b) {
  if (a.extents.ndim() == 0) return b;
  const std::size_t ndim = b.extents.ndim();
  const auto a_hi = box_hi(a), b_hi = box_hi(b);
  std::size_t lo[3], hi[3];
  for (std::size_t d = 0; d < ndim; ++d) {
    lo[d] = std::min(a.lo[d], b.lo[d]);
    hi[d] = std::max(a_hi[d], b_hi[d]);
  }
  return make_box(std::span<const std::size_t>(lo, ndim),
                  std::span<const std::size_t>(hi, ndim));
}

std::vector<std::size_t> tiles_in_box(const TileGrid& grid,
                                      const TileBox& box) {
  const std::size_t ndim = box.extents.ndim();
  const auto hi = box_hi(box);
  return grid.tiles_in_region(std::span<const std::size_t>(box.lo.data(), ndim),
                              std::span<const std::size_t>(hi.data(), ndim));
}

/// `box` grown to the union of the tiles of `grid` it touches: the hull of
/// the first and last of them (tiles_in_region lists them row-major).
TileBox tile_aligned(const TileGrid& grid, const TileBox& box) {
  const std::vector<std::size_t> tiles = tiles_in_box(grid, box);
  return hull(grid.box(tiles.front()), grid.box(tiles.back()));
}

bool boxes_intersect(const TileBox& a, const TileBox& b) {
  for (std::size_t d = 0; d < a.extents.ndim(); ++d) {
    if (a.lo[d] + a.extents[d] <= b.lo[d]) return false;
    if (b.lo[d] + b.extents[d] <= a.lo[d]) return false;
  }
  return true;
}

std::vector<const Field*> pointers(const std::vector<Field>& fields) {
  std::vector<const Field*> out;
  out.reserve(fields.size());
  for (const Field& f : fields) out.push_back(&f);
  return out;
}

/// Copies the overlap of `src` (laid out over `src_box`) into `dst` (laid
/// out over `dst_box`): copy_tile_into_region in box terms.
void crop_into(F32Array& dst, const TileBox& dst_box, const F32Array& src,
               const TileBox& src_box) {
  const std::size_t ndim = dst_box.extents.ndim();
  const auto hi = box_hi(dst_box);
  copy_tile_into_region(dst,
                        std::span<const std::size_t>(dst_box.lo.data(), ndim),
                        std::span<const std::size_t>(hi.data(), ndim), src,
                        src_box);
}

}  // namespace

std::vector<std::size_t> validate_anchor_graph(
    const std::vector<ArchiveFieldInfo>& fields) {
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < fields.size(); ++i) by_name[fields[i].name] = i;

  // Iterative three-color DFS (anchor chains may be as long as the field
  // count, so no recursion). A field turns black, and joins the order,
  // once all of its anchors have.
  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<std::uint8_t> color(fields.size(), kWhite);
  std::vector<std::size_t> order;
  order.reserve(fields.size());
  for (std::size_t root = 0; root < fields.size(); ++root) {
    if (color[root] != kWhite) continue;
    // Stack of (field, next anchor index to visit).
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [f, next] = stack.back();
      const ArchiveFieldInfo& info = fields[f];
      if (next == info.anchors.size()) {
        color[f] = kBlack;
        order.push_back(f);
        stack.pop_back();
        continue;
      }
      const std::string& a = info.anchors[next++];
      const auto it = by_name.find(a);
      if (it == by_name.end())
        throw CorruptStream("archive: anchor field missing from archive: " +
                            a);
      if (fields[it->second].shape != info.shape)
        throw CorruptStream("archive: anchor shape disagrees with target");
      if (color[it->second] == kGray)
        throw CorruptStream("archive: cyclic anchor dependency");
      if (color[it->second] == kWhite) {
        color[it->second] = kGray;
        stack.emplace_back(it->second, 0);
      }
    }
  }
  return order;
}

std::uint32_t archive_tile_crc(const std::string& field_name,
                               std::uint64_t ordinal,
                               std::span<const std::uint8_t> body) {
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(field_name.data()),
      field_name.size()));
  std::uint8_t ord[8];
  for (int i = 0; i < 8; ++i)
    ord[i] = static_cast<std::uint8_t>(ordinal >> (8 * i));
  crc.update(ord);
  crc.update(body);
  return crc.value();
}

Field archive_decode_tile(std::span<const std::uint8_t> body, CodecId expected,
                          const std::vector<const Field*>& anchors) {
  // The codec byte sits right after the 4-byte XFC1 magic; peeking it here
  // avoids a full parse_container (its CRC pass over the body) just for
  // this check — the codec's own decompress validates the frame anyway,
  // and the archive-level tile CRC already ran in read_tile_bytes().
  if (body.size() < 5 ||
      body[4] != static_cast<std::uint8_t>(expected))
    throw CorruptStream("archive: tile codec disagrees with the index");
  switch (expected) {
    case CodecId::kSz:
      return sz_decompress(body);
    case CodecId::kSzClassic:
      return classic_decompress(body);
    case CodecId::kInterp:
      return interp_decompress(body);
    case CodecId::kZfp:
      return zfp_decompress(body);
    case CodecId::kCrossField:
      return cross_field_decompress(body, anchors);
  }
  throw CorruptStream("archive: unsupported tile codec");
}

ArchiveReader::ArchiveReader(std::unique_ptr<ByteSource> source)
    : source_(std::move(source)) {
  parse_index();
}

ArchiveReader ArchiveReader::open_file(const std::string& path) {
  return ArchiveReader(std::make_unique<FileSource>(path));
}

ArchiveReader ArchiveReader::open_memory(std::span<const std::uint8_t> bytes) {
  return ArchiveReader(std::make_unique<MemorySource>(bytes));
}

void ArchiveReader::parse_index() {
  const std::size_t total = source_->size();
  constexpr std::size_t kMinArchive =
      kArchiveHeaderSize + 4 /* footer magic */ + kArchiveTrailerSize;
  if (total < kMinArchive)
    throw CorruptStream("archive: stream too short");

  // Header damage is terminal: with no header there is no earlier commit
  // point to fall back to, so these throw without any recovery scan.
  const auto head = source_->read_vec(0, kArchiveHeaderSize);
  for (std::size_t i = 0; i < 4; ++i)
    if (head[i] != kMagic[i])
      throw CorruptStream("archive: bad magic (not an XFA archive)");
  if (head[4] != kArchiveVersion)
    throw CorruptStream("archive: unsupported version");

  // Fast path: a cleanly closed archive parses at EOF.
  std::exception_ptr first_error;
  try {
    order_ = parse_index_at(total, fields_);
    logical_size_ = total;
    return;
  } catch (const CorruptStream&) {
    first_error = std::current_exception();  // fall through to recovery
  }

  // Recovery-on-open: a crashed append left a torn tail (partial bodies, a
  // partial footer, or a partial trailer) after the last sealed epoch. The
  // commit point is the newest trailer whose footer CRC-validates and whose
  // anchor graph holds, so scan backward for trailer-magic candidates and
  // try a strict parse at each.
  // False positives (magic bytes inside tile bodies) are rejected by the
  // trailer bounds checks and the footer CRC, which is a 1-in-2^32 fluke
  // per candidate — and a fluke still yields a CRC-consistent index, never
  // silent garbage.
  const std::size_t scan_end = total - 1;  // EOF candidate already failed
  constexpr std::size_t kChunk = 64u << 10;
  std::size_t hi = scan_end;
  while (hi >= kMinArchive) {
    const std::size_t lo =
        hi > kChunk + kMinArchive ? hi - kChunk : kMinArchive;
    // Overlap by 3 bytes so a magic spanning the chunk boundary is seen.
    const std::size_t read_hi = std::min(total, hi + 3);
    const auto chunk = source_->read_vec(lo - 4, read_hi - (lo - 4));
    // Candidate logical end E has the trailer magic at [E-4, E); scan the
    // chunk's candidates from the newest down.
    for (std::size_t e = hi; e >= lo; --e) {
      const std::size_t at = e - (lo - 4) - 4;
      if (chunk[at] != kMagic[0] || chunk[at + 1] != kMagic[1] ||
          chunk[at + 2] != kMagic[2] || chunk[at + 3] != kMagic[3])
        continue;
      std::vector<ArchiveFieldInfo> candidate;
      try {
        order_ = parse_index_at(e, candidate);
      } catch (const CorruptStream&) {
        continue;
      }
      fields_ = std::move(candidate);
      logical_size_ = e;
      recovered_bytes_discarded_ = total - e;
      return;
    }
    if (lo == kMinArchive) break;
    hi = lo - 1;
  }
  // No sealed epoch anywhere: surface the original strict-parse error.
  std::rethrow_exception(first_error);
}

std::uint32_t ArchiveReader::epoch_count() const {
  std::uint32_t max_epoch = 0;
  for (const ArchiveFieldInfo& f : fields_)
    max_epoch = std::max(max_epoch, f.epoch);
  return max_epoch + 1;
}

std::vector<std::size_t> ArchiveReader::parse_index_at(
    std::size_t logical_end, std::vector<ArchiveFieldInfo>& out) const {
  const std::size_t total = logical_end;
  if (total < kArchiveHeaderSize + kFooterMagic.size() + kArchiveTrailerSize ||
      total > source_->size())
    throw CorruptStream("archive: stream too short");

  const auto tail =
      source_->read_vec(total - kArchiveTrailerSize, kArchiveTrailerSize);
  ByteReader tr(tail);
  const std::uint32_t footer_crc = tr.u32();
  const std::uint64_t footer_offset = tr.u64();
  const std::uint64_t footer_size = tr.u64();
  const auto trailer_magic = tr.raw(4);
  for (std::size_t i = 0; i < 4; ++i)
    if (trailer_magic[i] != kMagic[i])
      throw CorruptStream("archive: bad trailer magic (truncated archive?)");

  const std::uint64_t body_end = total - kArchiveTrailerSize;
  if (footer_offset < kArchiveHeaderSize || footer_offset > body_end ||
      footer_size != body_end - footer_offset)
    throw CorruptStream("archive: footer bounds out of range");

  const auto footer = source_->read_vec(footer_offset, footer_size);
  if (Crc32::of(footer) != footer_crc)
    throw CorruptStream("archive: footer CRC mismatch (corrupted index)");

  ByteReader in(footer);
  const auto fmagic = in.raw(4);
  for (std::size_t i = 0; i < 4; ++i)
    if (fmagic[i] != kFooterMagic[i])
      throw CorruptStream("archive: bad footer magic");

  const std::uint64_t n_fields = in.varint();
  // Declared counts are checked against the bytes actually present before
  // any proportional allocation (a crafted index must not buy allocations
  // it did not pay for in footer bytes); the smallest field record is well
  // over 8 bytes.
  if (n_fields > kMaxFields || n_fields > in.remaining() / 8)
    throw CorruptStream("archive: absurd field count");
  out.clear();
  out.reserve(n_fields);

  std::set<std::string> seen_names;
  for (std::uint64_t fi = 0; fi < n_fields; ++fi) {
    ArchiveFieldInfo f;
    f.name = in.str();
    if (f.name.empty()) throw CorruptStream("archive: empty field name");
    if (!seen_names.insert(f.name).second)
      throw CorruptStream("archive: duplicate field name in index");

    const std::uint8_t codec = in.u8();
    if (codec > static_cast<std::uint8_t>(CodecId::kSzClassic))
      throw CorruptStream("archive: unknown codec id in index");
    f.codec = static_cast<CodecId>(codec);
    const std::uint8_t flags = in.u8();
    if (flags > 3) throw CorruptStream("archive: unknown field flags");
    f.cross_field = (flags & 1) != 0;
    if (f.cross_field != (f.codec == CodecId::kCrossField))
      throw CorruptStream("archive: cross-field flag/codec mismatch");
    // Bit 1: an append epoch follows. Only ever set for epoch > 0, so the
    // canonical write-once footer stays byte-identical to the frozen
    // format (golden archives, writer-byte stability).
    if ((flags & 2) != 0) {
      const std::uint64_t epoch = in.varint();
      if (epoch == 0 || epoch > 0xFFFFFFFFull)
        throw CorruptStream("archive: bad field epoch");
      f.epoch = static_cast<std::uint32_t>(epoch);
    }

    f.eb_mode = in.u8();
    if (f.eb_mode > 1) throw CorruptStream("archive: bad error-bound mode");
    f.eb_value = in.f64();
    f.abs_eb = in.f64();
    if (!(f.abs_eb > 0.0) || !std::isfinite(f.abs_eb))
      throw CorruptStream("archive: bad absolute error bound");

    f.shape = read_shape(in);
    f.tile = read_shape(in);
    if (f.tile.ndim() != f.shape.ndim())
      throw CorruptStream("archive: tile rank disagrees with field rank");

    if (f.cross_field) {
      const std::uint64_t n_anchors = in.varint();
      if (n_anchors == 0 || n_anchors > kMaxAnchors)
        throw CorruptStream("archive: bad anchor count");
      for (std::uint64_t i = 0; i < n_anchors; ++i)
        f.anchors.push_back(in.str());
    }

    const TileGrid grid(f.shape, f.tile);
    const std::uint64_t n_tiles = in.varint();
    if (n_tiles != grid.num_tiles())
      throw CorruptStream(
          "archive: tile count disagrees with the field geometry");
    // Each entry is at least 1+1+4 bytes; a geometry engineered to claim
    // billions of tiles runs out of footer long before the reserve.
    if (n_tiles > in.remaining() / 6)
      throw CorruptStream("archive: tile index exceeds the footer");
    f.tiles.reserve(n_tiles);
    for (std::uint64_t i = 0; i < n_tiles; ++i) {
      ArchiveTileInfo t;
      t.offset = in.varint();
      t.size = in.varint();
      t.crc = in.u32();
      if (t.offset < kArchiveHeaderSize || t.offset > footer_offset ||
          t.size > footer_offset - t.offset)
        throw CorruptStream("archive: tile body out of bounds");
      f.tiles.push_back(t);
    }
    out.push_back(std::move(f));
  }
  if (!in.exhausted())
    throw CorruptStream("archive: trailing bytes after the field index");
  return validate_anchor_graph(out);
}

const ArchiveFieldInfo* ArchiveReader::find(const std::string& name) const {
  for (const ArchiveFieldInfo& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

const ArchiveFieldInfo& ArchiveReader::require(const std::string& name) const {
  const ArchiveFieldInfo* info = find(name);
  if (info == nullptr)
    throw InvalidArgument("archive: no such field: " + name);
  return *info;
}

std::size_t ArchiveReader::index_of(const std::string& name) const {
  return static_cast<std::size_t>(&require(name) - fields_.data());
}

std::vector<std::uint8_t> ArchiveReader::read_tile_bytes(
    const ArchiveFieldInfo& info, std::size_t ordinal) const {
  expects(ordinal < info.tiles.size(),
          "read_tile_bytes: tile ordinal out of range");
  const ArchiveTileInfo& t = info.tiles[ordinal];
  std::vector<std::uint8_t> body;
  try {
    body = source_->read_vec(t.offset, t.size);
  } catch (...) {
    rethrow_with_tile_context(info, ordinal);
  }
  if (archive_tile_crc(info.name, ordinal, body) != t.crc)
    throw CorruptStream("archive: tile CRC mismatch (corrupted or shuffled "
                        "index)" +
                        tile_context(info, ordinal));
  return body;
}

Field ArchiveReader::decode_tile(const ArchiveFieldInfo& info,
                                 std::size_t ordinal, const TileBox& box,
                                 const std::vector<const Field*>& anchors)
    const {
  const auto body = read_tile_bytes(info, ordinal);
  // read_tile_bytes() verified the archive tile CRC over this exact body, so
  // the container's inner CRC is redundant — skip it.
  const TrustedParseScope trusted;
  Field tile;
  try {
    tile = archive_decode_tile(body, info.codec, anchors);
  } catch (...) {
    rethrow_with_tile_context(info, ordinal);
  }
  if (tile.shape() != box.extents)
    throw CorruptStream("archive: tile shape disagrees with the index" +
                        tile_context(info, ordinal));
  return tile;
}

/// One direct read: the box of fields_[field] the caller wants back.
struct ArchiveReader::Request {
  std::size_t field = 0;
  TileBox box;
};

std::vector<Field> ArchiveReader::execute(const std::vector<Request>& requests,
                                          ArchiveReadReport* report,
                                          TileFillPolicy fill) const {
  // Plan: the tile-aligned box each field of the requests' anchor closure
  // must decode. A target decodes whole tiles against the same boxes of its
  // anchors, so walking dependents before their anchors pushes each
  // target's final box down before the anchor aligns its own.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<TileBox> plan(fields_.size());  // ndim 0: not in the plan
  std::vector<std::size_t> request_of(fields_.size(), kNone);
  std::vector<char> anchored(fields_.size(), 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    plan[requests[i].field] = requests[i].box;
    request_of[requests[i].field] = i;
  }
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const ArchiveFieldInfo& info = fields_[*it];
    if (plan[*it].extents.ndim() == 0) continue;
    plan[*it] = tile_aligned(TileGrid(info.shape, info.tile), plan[*it]);
    for (const std::string& a : info.anchors) {
      const std::size_t ai = index_of(a);
      plan[ai] = hull(plan[ai], plan[*it]);
      anchored[ai] = 1;
    }
  }

  // Execute, anchors first. A requested field that nothing in the plan
  // anchors on is written straight into its output; every other field
  // decodes its planned box, which its dependents crop anchor boxes from.
  const auto allocate = [&](const Shape& shape) {
    F32Array a(shape);  // zero-initialised, so kZero costs nothing extra
    if (report != nullptr && fill == TileFillPolicy::kNan)
      std::fill(a.data(), a.data() + a.size(),
                std::numeric_limits<float>::quiet_NaN());
    return a;
  };
  std::vector<F32Array> out(requests.size());
  std::vector<F32Array> decoded(fields_.size());
  std::vector<std::vector<TileBox>> failed(fields_.size());
  std::mutex report_mutex;
  for (const std::size_t f : order_) {
    if (plan[f].extents.ndim() == 0) continue;
    const ArchiveFieldInfo& info = fields_[f];
    const bool direct = anchored[f] == 0;
    const TileBox& dst_box = direct ? requests[request_of[f]].box : plan[f];
    F32Array& dst = direct ? out[request_of[f]] : decoded[f];
    dst = allocate(dst_box.extents);

    // Contained reads fail, without decoding, every tile whose box touches
    // a failed anchor tile: decoding against fill values would produce
    // plausible-looking wrong bytes, and degraded output is absent, never
    // wrong. (Strict reads never get here with a failure.)
    std::vector<std::size_t> anchors;
    std::vector<TileBox> bad;
    for (const std::string& a : info.anchors) {
      anchors.push_back(index_of(a));
      bad.insert(bad.end(), failed[anchors.back()].begin(),
                 failed[anchors.back()].end());
    }
    const TileGrid grid(info.shape, info.tile);
    const std::vector<std::size_t> tiles = tiles_in_box(grid, plan[f]);
    if (report != nullptr) report->tiles_total += tiles.size();
    for_each_tile_parallel(tiles, [&](std::size_t t) {
      const TileBox box = grid.box(t);
      std::string error;
      if (std::any_of(bad.begin(), bad.end(), [&](const TileBox& b) {
            return boxes_intersect(box, b);
          })) {
        error = "archive: anchor tile unavailable (degraded anchor "
                "coverage)" + tile_context(info, t);
      } else {
        try {
          std::vector<Field> anchor_boxes;
          for (const std::size_t a : anchors) {
            F32Array ab(box.extents);
            crop_into(ab, box, decoded[a], plan[a]);
            anchor_boxes.emplace_back(fields_[a].name, std::move(ab));
          }
          const Field tile = decode_tile(info, t, box, pointers(anchor_boxes));
          crop_into(dst, dst_box, tile.array(), box);
        } catch (const XfcError& e) {
          if (report == nullptr) throw;
          error = e.what();
        }
      }
      if (report == nullptr) return;
      const std::lock_guard<std::mutex> lock(report_mutex);
      if (error.empty()) {
        ++report->tiles_ok;
        return;
      }
      report->errors.push_back(
          {info.name, t, info.tiles[t].offset, std::move(error)});
      failed[f].push_back(box);
    });
  }

  std::vector<Field> result;
  result.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (anchored[r.field] != 0) {
      // The planned box contains the request, so equal extents mean the
      // same box.
      if (r.box.extents == plan[r.field].extents) {
        out[i] = std::move(decoded[r.field]);
      } else {
        out[i] = F32Array(r.box.extents);
        crop_into(out[i], r.box, decoded[r.field], plan[r.field]);
      }
    }
    result.emplace_back(fields_[r.field].name, std::move(out[i]));
  }
  return result;
}

Field ArchiveReader::read_box(const ArchiveFieldInfo& info, const TileBox& box,
                              ArchiveReadReport* report,
                              TileFillPolicy fill) const {
  Field out = std::move(
      execute({Request{index_of(info.name), box}}, report, fill).front());
  if (report != nullptr) sort_tile_errors(report->errors);
  return out;
}

Field ArchiveReader::read_tile(const ArchiveFieldInfo& info,
                               std::size_t ordinal,
                               const TileFetch& fetch) const {
  // Anchor tiles resolved through `fetch` re-enter here, so a cross-field
  // tile's span nests its anchors' decode spans under it.
  const obs::SpanScope span("tile_decode", &obs::tile_decode_us());
  expects(ordinal < info.tiles.size(), "read_tile: tile ordinal out of range");
  const TileBox box = TileGrid(info.shape, info.tile).box(ordinal);

  // A cross-field tile decodes against its anchors' boxes over the same
  // box: planned and decoded like any other direct read, or assembled from
  // the whole anchor tiles a fetcher hands out.
  if (!fetch && !info.anchors.empty())
    return read_box(info, box, nullptr, TileFillPolicy::kZero);
  std::vector<Field> anchor_boxes;
  for (const std::string& a : info.anchors) {
    const ArchiveFieldInfo& anchor = fields_[index_of(a)];
    const TileGrid grid(anchor.shape, anchor.tile);
    F32Array ab(box.extents);
    for (const std::size_t t : tiles_in_box(grid, box)) {
      const std::shared_ptr<const Field> tile = fetch(anchor, t);
      const TileBox abox = grid.box(t);
      if (tile == nullptr || tile->shape() != abox.extents)
        throw CorruptStream("archive: anchor tile fetch returned a bad tile");
      crop_into(ab, box, tile->array(), abox);
    }
    anchor_boxes.emplace_back(anchor.name, std::move(ab));
  }
  return decode_tile(info, ordinal, box, pointers(anchor_boxes));
}

Field ArchiveReader::read_tile(const std::string& name,
                               std::size_t ordinal) const {
  return read_tile(require(name), ordinal, {});
}

Field ArchiveReader::read_field(const std::string& name) const {
  const ArchiveFieldInfo& info = require(name);
  return read_box(info, TileBox{.extents = info.shape}, nullptr,
                  TileFillPolicy::kZero);
}

Field ArchiveReader::read_region(const std::string& name,
                                 std::span<const std::size_t> lo,
                                 std::span<const std::size_t> hi) const {
  const ArchiveFieldInfo& info = require(name);
  return read_box(info, region_box(info, lo, hi), nullptr,
                  TileFillPolicy::kZero);
}

std::vector<Field> ArchiveReader::read_all() const {
  std::vector<Request> requests;
  requests.reserve(fields_.size());
  for (std::size_t i = 0; i < fields_.size(); ++i)
    requests.push_back({i, TileBox{.extents = fields_[i].shape}});
  return execute(requests, nullptr, TileFillPolicy::kZero);
}

Field ArchiveReader::read_field_partial(const std::string& name,
                                        ArchiveReadReport& report,
                                        TileFillPolicy fill) const {
  const ArchiveFieldInfo& info = require(name);
  return read_box(info, TileBox{.extents = info.shape}, &report, fill);
}

Field ArchiveReader::read_region_partial(const std::string& name,
                                         std::span<const std::size_t> lo,
                                         std::span<const std::size_t> hi,
                                         ArchiveReadReport& report,
                                         TileFillPolicy fill) const {
  const ArchiveFieldInfo& info = require(name);
  return read_box(info, region_box(info, lo, hi), &report, fill);
}

ArchiveScrubReport ArchiveReader::scrub() const {
  ArchiveScrubReport report;
  std::mutex report_mutex;
  for (const ArchiveFieldInfo& f : fields_) {
    report.tiles_total += f.tiles.size();
    for_each_tile_parallel(0, f.tiles.size(), [&](std::size_t t) {
      try {
        (void)read_tile_bytes(f, t);  // read + CRC verify, no decode
        std::lock_guard<std::mutex> lock(report_mutex);
        ++report.tiles_ok;
      } catch (const XfcError& e) {
        std::lock_guard<std::mutex> lock(report_mutex);
        report.errors.push_back({f.name, t, f.tiles[t].offset, e.what()});
      }
    });
  }
  sort_tile_errors(report.errors);
  return report;
}

}  // namespace xfc
