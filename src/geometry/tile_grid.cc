#include "geometry/tile_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace vc {

TileGrid::TileGrid(int rows, int cols)
    : rows_(std::max(1, rows)), cols_(std::max(1, cols)) {}

TileId TileGrid::TileFor(const Orientation& orientation) const {
  Orientation o = orientation.Normalized();
  int col = static_cast<int>(o.yaw / tile_yaw_extent());
  int row = static_cast<int>(o.pitch / tile_pitch_extent());
  // pitch == π lands exactly past the last row; clamp into range.
  col = Clamp(col, 0, cols_ - 1);
  row = Clamp(row, 0, rows_ - 1);
  return TileId{row, col};
}

Orientation TileGrid::CenterOf(TileId tile) const {
  return Orientation{(tile.col + 0.5) * tile_yaw_extent(),
                     (tile.row + 0.5) * tile_pitch_extent()};
}

TileGrid::ViewportRows TileGrid::RowsOf(const Orientation& orientation,
                                        double fov_pitch) const {
  ViewportRows rows;
  rows.center = orientation.Normalized();
  rows.pitch_lo = rows.center.pitch - fov_pitch / 2.0;
  rows.pitch_hi = rows.center.pitch + fov_pitch / 2.0;

  // If the viewport reaches past a pole, every yaw is visible in the polar
  // band, so the whole rows nearest that pole are covered.
  rows.over_top = rows.pitch_lo < 0.0;
  rows.over_bottom = rows.pitch_hi > kPi;
  rows.pitch_lo = Clamp(rows.pitch_lo, 0.0, kPi);
  rows.pitch_hi = Clamp(rows.pitch_hi, 0.0, kPi);

  rows.row_lo = Clamp(static_cast<int>(rows.pitch_lo / tile_pitch_extent()),
                      0, rows_ - 1);
  // Subtract an epsilon so an exact boundary does not spill into the next row.
  rows.row_hi =
      Clamp(static_cast<int>((rows.pitch_hi - 1e-9) / tile_pitch_extent()), 0,
            rows_ - 1);
  return rows;
}

TileGrid::ColumnSpan TileGrid::SpanOf(const ViewportRows& rows, int row,
                                      double fov_yaw) const {
  bool polar_row =
      (rows.over_top && row == 0) || (rows.over_bottom && row == rows_ - 1);
  // The yaw extent needed widens with latitude: near a pole, a fixed
  // horizontal FOV spans more longitude (a θ-arc of length L at colatitude
  // φ subtends L / sin φ of longitude). Widen per row, using the part of
  // the viewport's pitch range that actually falls inside this row — a
  // viewport touching a polar band must not inflate the equatorial rows.
  double row_pitch_lo = std::max(rows.pitch_lo, row * tile_pitch_extent());
  double row_pitch_hi =
      std::min(rows.pitch_hi, (row + 1) * tile_pitch_extent());
  double worst_sin = std::min(std::sin(row_pitch_lo), std::sin(row_pitch_hi));
  double effective_half_yaw =
      worst_sin > 1e-3 ? std::min(kPi, fov_yaw / 2.0 / worst_sin) : kPi;
  if (polar_row || effective_half_yaw >= kPi - 1e-9) {
    // A viewport over a pole also sees the adjacent rows on the far side;
    // approximating with full polar rows is sufficient for quality
    // assignment, which only needs a superset of visible tiles near poles.
    return ColumnSpan{0, cols_};
  }
  double yaw_lo = rows.center.yaw - effective_half_yaw;
  double yaw_hi = rows.center.yaw + effective_half_yaw;
  // The covered yaw arc in tile-width steps, wrapping at the seam. A zero
  // FOV on an exact tile edge covers no column of the row.
  int first = static_cast<int>(std::floor(yaw_lo / tile_yaw_extent()));
  int last = static_cast<int>(std::floor((yaw_hi - 1e-9) / tile_yaw_extent()));
  if (last - first + 1 >= cols_) return ColumnSpan{0, cols_};
  return ColumnSpan{((first % cols_) + cols_) % cols_,
                    std::max(0, last - first + 1)};
}

std::vector<TileId> TileGrid::TilesInViewport(const Orientation& orientation,
                                              double fov_yaw,
                                              double fov_pitch) const {
  std::vector<TileId> tiles;
  ForEachTileInViewport(orientation, fov_yaw, fov_pitch,
                        [&tiles](TileId tile) { tiles.push_back(tile); });
  return tiles;
}

bool TileGrid::ViewportContains(const Orientation& orientation,
                                double fov_yaw, double fov_pitch,
                                TileId tile) const {
  if (tile.col < 0 || tile.col >= cols_) return false;
  const ViewportRows rows = RowsOf(orientation, fov_pitch);
  if (tile.row < rows.row_lo || tile.row > rows.row_hi) return false;
  const ColumnSpan span = SpanOf(rows, tile.row, fov_yaw);
  int offset = tile.col - span.first;
  if (offset < 0) offset += cols_;
  return offset < span.count;
}

Result<TileGrid::PixelRect> TileGrid::PixelRectOf(TileId tile, int width,
                                                  int height,
                                                  int align) const {
  if (tile.row < 0 || tile.row >= rows_ || tile.col < 0 || tile.col >= cols_) {
    return Status::InvalidArgument("tile id out of grid range");
  }
  if (width <= 0 || height <= 0 || align <= 0) {
    return Status::InvalidArgument("bad frame dimensions for tile rect");
  }
  if (width % align != 0 || height % align != 0) {
    return Status::InvalidArgument("frame dimensions not aligned");
  }
  auto edge = [align](double fraction, int extent) {
    int raw = static_cast<int>(std::lround(fraction * extent));
    return Clamp(raw / align * align, 0, extent);
  };
  PixelRect rect;
  rect.x = edge(static_cast<double>(tile.col) / cols_, width);
  rect.y = edge(static_cast<double>(tile.row) / rows_, height);
  int x1 = tile.col + 1 == cols_
               ? width
               : edge(static_cast<double>(tile.col + 1) / cols_, width);
  int y1 = tile.row + 1 == rows_
               ? height
               : edge(static_cast<double>(tile.row + 1) / rows_, height);
  rect.width = x1 - rect.x;
  rect.height = y1 - rect.y;
  if (rect.width <= 0 || rect.height <= 0) {
    return Status::InvalidArgument(
        "tile grid too fine for frame size " + std::to_string(width) + "x" +
        std::to_string(height));
  }
  return rect;
}

std::string TileGrid::ToString() const {
  std::ostringstream out;
  out << rows_ << "x" << cols_;
  return out.str();
}

}  // namespace vc
