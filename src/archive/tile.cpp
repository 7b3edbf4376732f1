#include "archive/tile.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>

#include "core/error.hpp"
#include "core/utils.hpp"
#include "sz/container.hpp"

namespace xfc {

TileGrid::TileGrid(const Shape& field, const Shape& tile)
    : field_(field), tile_(tile) {
  expects(field.ndim() >= 1 && field.ndim() <= 3,
          "TileGrid: field rank must be 1..3");
  expects(tile.ndim() == field.ndim(),
          "TileGrid: tile rank must match the field rank");
  // The tile shape is stored in the archive index, so it must be one that
  // read_shape accepts back.
  num_tiles_ = 1;
  std::size_t tile_values = 1;
  for (std::size_t d = 0; d < field.ndim(); ++d) {
    expects(tile[d] >= 1 && tile[d] <= kMaxShapeExtent,
            "TileGrid: tile extents must be in [1, 2^32]");
    expects(tile_values <= kMaxShapeElements / tile[d],
            "TileGrid: a tile may hold at most 2^36 values");
    tile_values *= tile[d];
    expects(field[d] >= 1, "TileGrid: field extents must be >= 1");
    counts_[d] = ceil_div(field[d], tile[d]);
    num_tiles_ *= counts_[d];
  }
}

Shape TileGrid::default_tile(const Shape& field) {
  constexpr std::size_t kDefault[3][3] = {
      {std::size_t{1} << 16, 0, 0}, {256, 256, 0}, {64, 64, 64}};
  const std::size_t ndim = field.ndim();
  std::size_t dims[3];
  for (std::size_t d = 0; d < ndim; ++d)
    dims[d] = std::min(field[d], kDefault[ndim - 1][d]);
  return Shape(std::span<const std::size_t>(dims, ndim));
}

TileBox TileGrid::box(std::size_t index) const {
  expects(index < num_tiles_, "TileGrid: tile index out of range");
  const std::size_t ndim = field_.ndim();
  std::array<std::size_t, 3> coord{{0, 0, 0}};
  for (std::size_t d = ndim; d-- > 0;) {
    coord[d] = index % counts_[d];
    index /= counts_[d];
  }
  TileBox b;
  std::size_t dims[3];
  for (std::size_t d = 0; d < ndim; ++d) {
    b.lo[d] = coord[d] * tile_[d];
    dims[d] = std::min(tile_[d], field_[d] - b.lo[d]);
  }
  b.extents = Shape(std::span<const std::size_t>(dims, ndim));
  return b;
}

std::vector<std::size_t> TileGrid::tiles_in_region(
    std::span<const std::size_t> lo, std::span<const std::size_t> hi) const {
  const std::size_t ndim = field_.ndim();
  expects(lo.size() == ndim && hi.size() == ndim,
          "tiles_in_region: bounds rank must match the field rank");
  std::size_t first[3] = {0, 0, 0};
  std::size_t last[3] = {0, 0, 0};  // inclusive tile coordinate
  for (std::size_t d = 0; d < ndim; ++d) {
    expects(lo[d] < hi[d] && hi[d] <= field_[d],
            "tiles_in_region: empty or out-of-bounds region");
    first[d] = lo[d] / tile_[d];
    last[d] = (hi[d] - 1) / tile_[d];
  }
  std::vector<std::size_t> out;
  // Row-major walk over the intersecting tile coordinates; strides of the
  // flattened tile index mirror the grid layout.
  std::size_t strides[3] = {1, 1, 1};
  for (std::size_t d = ndim - 1; d-- > 0;)
    strides[d] = strides[d + 1] * counts_[d + 1];
  std::array<std::size_t, 3> c{{first[0], first[1], first[2]}};
  while (true) {
    std::size_t idx = 0;
    for (std::size_t d = 0; d < ndim; ++d) idx += c[d] * strides[d];
    out.push_back(idx);
    std::size_t d = ndim;
    while (d-- > 0) {
      if (++c[d] <= last[d]) break;
      c[d] = first[d];
      if (d == 0) return out;
    }
  }
}

void copy_region(F32Array& dst, const std::size_t* dst_lo,
                 const F32Array& src, const std::size_t* src_lo,
                 const Shape& extents) {
  const Shape& ds = dst.shape();
  const Shape& ss = src.shape();
  const std::size_t ndim = extents.ndim();
  expects(ds.ndim() == ndim && ss.ndim() == ndim,
          "copy_region: rank mismatch");
  for (std::size_t d = 0; d < ndim; ++d) {
    expects(dst_lo[d] + extents[d] <= ds[d],
            "copy_region: block exceeds the destination");
    expects(src_lo[d] + extents[d] <= ss[d],
            "copy_region: block exceeds the source");
  }
  float* dp = dst.data();
  const float* sp = src.data();
  // The last axis is contiguous in both layouts, so each row is one memcpy.
  const std::size_t row = extents[ndim - 1] * sizeof(float);
  if (ndim == 1) {
    std::memcpy(dp + dst_lo[0], sp + src_lo[0], row);
  } else if (ndim == 2) {
    for (std::size_t i = 0; i < extents[0]; ++i)
      std::memcpy(dp + (dst_lo[0] + i) * ds[1] + dst_lo[1],
                  sp + (src_lo[0] + i) * ss[1] + src_lo[1], row);
  } else {
    for (std::size_t i = 0; i < extents[0]; ++i)
      for (std::size_t j = 0; j < extents[1]; ++j)
        std::memcpy(
            dp + ((dst_lo[0] + i) * ds[1] + (dst_lo[1] + j)) * ds[2] +
                dst_lo[2],
            sp + ((src_lo[0] + i) * ss[1] + (src_lo[1] + j)) * ss[2] +
                src_lo[2],
            row);
  }
}

void copy_tile_into_region(F32Array& dst, std::span<const std::size_t> lo,
                           std::span<const std::size_t> hi,
                           const F32Array& tile, const TileBox& box) {
  const std::size_t ndim = lo.size();
  std::size_t src_lo[3], dst_lo[3], inter_dims[3];
  for (std::size_t d = 0; d < ndim; ++d) {
    const std::size_t ilo = std::max(lo[d], box.lo[d]);
    const std::size_t ihi = std::min(hi[d], box.lo[d] + box.extents[d]);
    if (ihi <= ilo) return;  // no overlap on this axis: nothing to copy
    src_lo[d] = ilo - box.lo[d];
    dst_lo[d] = ilo - lo[d];
    inter_dims[d] = ihi - ilo;
  }
  copy_region(dst, dst_lo, tile, src_lo,
              Shape(std::span<const std::size_t>(inter_dims, ndim)));
}

void for_each_tile_parallel(std::span<const std::size_t> tiles,
                            const std::function<void(std::size_t)>& body) {
  std::exception_ptr error;
  std::mutex error_mutex;
  parallel_for_chunked(0, tiles.size(), 1, [&](std::size_t a, std::size_t b) {
    for (std::size_t i = a; i < b; ++i) {
      try {
        body(tiles[i]);
      } catch (...) {
        std::lock_guard<std::mutex> g(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

void for_each_tile_parallel(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& body) {
  std::vector<std::size_t> tiles(end - begin);
  for (std::size_t i = 0; i < tiles.size(); ++i) tiles[i] = begin + i;
  for_each_tile_parallel(tiles, body);
}

F32Array extract_tile(const F32Array& src, const TileBox& box) {
  F32Array tile(box.extents);
  const std::size_t zero[3] = {0, 0, 0};
  copy_region(tile, zero, src, box.lo.data(), box.extents);
  return tile;
}

void insert_tile(F32Array& dst, const TileBox& box, const F32Array& tile) {
  expects(tile.shape() == box.extents,
          "insert_tile: tile shape does not match the box");
  const std::size_t zero[3] = {0, 0, 0};
  copy_region(dst, box.lo.data(), tile, zero, box.extents);
}

}  // namespace xfc
