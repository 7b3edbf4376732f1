#ifndef XFC_ARCHIVE_TILE_HPP
#define XFC_ARCHIVE_TILE_HPP

/// \file tile.hpp
/// Tile-grid geometry for the XFA1 archive: a field of any supported rank is
/// partitioned into fixed-size, row-major-ordered tiles (edge tiles clip to
/// the field boundary, so every point belongs to exactly one tile). Each
/// tile is compressed as an independent stream, which is what buys the
/// archive random access, bounded-memory streaming, and tile-parallel
/// decode — the grid math here is shared by the writer, the reader, and the
/// region queries.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/ndarray.hpp"

namespace xfc {

/// One tile's position within its field: inclusive start per axis plus the
/// (edge-clipped) extents. `lo` entries beyond the rank are zero.
struct TileBox {
  std::array<std::size_t, 3> lo{{0, 0, 0}};
  Shape extents;

  std::size_t size() const { return extents.size(); }
};

/// Row-major grid of tiles covering a field shape.
class TileGrid {
 public:
  /// `tile` must have the same rank as `field`, with every extent in
  /// [1, 2^32] and at most 2^36 values in all — the shapes an archive index
  /// can hold. Throws InvalidArgument otherwise.
  TileGrid(const Shape& field, const Shape& tile);

  /// Default tile extents per rank: {1<<16} for 1D, {256,256} for 2D,
  /// {64,64,64} for 3D (clipped to the field). 256^2 and 64^3 both hold
  /// 64Ki values — large enough that per-tile codec overhead (headers,
  /// Huffman tables, embedded models) is amortized, small enough that a
  /// region query touches little excess data.
  static Shape default_tile(const Shape& field);

  const Shape& field_shape() const { return field_; }
  const Shape& tile_shape() const { return tile_; }

  /// Number of tiles along `axis`.
  std::size_t tiles_along(std::size_t axis) const { return counts_[axis]; }

  /// Total tile count (product over axes).
  std::size_t num_tiles() const { return num_tiles_; }

  /// Geometry of tile `index` (row-major over the tile grid).
  TileBox box(std::size_t index) const;

  /// Indices of every tile whose box intersects the half-open region
  /// [lo, hi); lo/hi must have rank entries with lo < hi <= field extent.
  std::vector<std::size_t> tiles_in_region(
      std::span<const std::size_t> lo, std::span<const std::size_t> hi) const;

 private:
  Shape field_;
  Shape tile_;
  std::array<std::size_t, 3> counts_{{1, 1, 1}};
  std::size_t num_tiles_ = 1;
};

/// Copies the box out of a row-major field array into a dense tile array.
F32Array extract_tile(const F32Array& src, const TileBox& box);

/// Inverse of extract_tile: writes a dense tile back into the field array.
/// Distinct boxes write disjoint ranges, so concurrent inserts from a
/// tile-parallel decode are safe.
void insert_tile(F32Array& dst, const TileBox& box, const F32Array& tile);

/// General strided block copy: moves an `extents`-shaped block from
/// `src` at `src_lo` to `dst` at `dst_lo` (both row-major, ranks equal).
/// extract_tile/insert_tile are the whole-tile specializations; region
/// reads use this directly to crop a decoded tile into the query output.
void copy_region(F32Array& dst, const std::size_t* dst_lo,
                 const F32Array& src, const std::size_t* src_lo,
                 const Shape& extents);

/// Copies the part of a decoded tile (shaped `box.extents`, positioned at
/// `box` in its field) that intersects the half-open region [lo, hi) into
/// `dst`, a (hi-lo)-shaped array whose origin corresponds to `lo`. The
/// single definition of region assembly shared by read_region, cross-field
/// anchor-box assembly, and the XFS serving layer — which must all remain
/// bit-identical to each other. No-op when tile and region do not overlap.
void copy_tile_into_region(F32Array& dst, std::span<const std::size_t> lo,
                           std::span<const std::size_t> hi,
                           const F32Array& tile, const TileBox& box);

/// Runs body(t) for every tile ordinal in `tiles` on the thread pool,
/// funnelling the first thrown exception back to the caller (pool bodies
/// must not throw). Shared by the writer's row compression and the
/// reader's tile-parallel decode.
void for_each_tile_parallel(std::span<const std::size_t> tiles,
                            const std::function<void(std::size_t)>& body);

/// Range overload: tile ordinals [begin, end).
void for_each_tile_parallel(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& body);

}  // namespace xfc

#endif  // XFC_ARCHIVE_TILE_HPP
