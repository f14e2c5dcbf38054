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

std::vector<TileId> TileGrid::TilesInViewport(const Orientation& orientation,
                                              double fov_yaw,
                                              double fov_pitch) const {
  Orientation center = orientation.Normalized();
  double pitch_lo = center.pitch - fov_pitch / 2.0;
  double pitch_hi = center.pitch + fov_pitch / 2.0;

  // If the viewport reaches past a pole, every yaw is visible in the polar
  // band, so the whole rows nearest that pole are covered.
  bool over_top = pitch_lo < 0.0;
  bool over_bottom = pitch_hi > kPi;
  pitch_lo = Clamp(pitch_lo, 0.0, kPi);
  pitch_hi = Clamp(pitch_hi, 0.0, kPi);

  int row_lo = Clamp(static_cast<int>(pitch_lo / tile_pitch_extent()), 0,
                     rows_ - 1);
  // Subtract an epsilon so an exact boundary does not spill into the next row.
  int row_hi = Clamp(static_cast<int>((pitch_hi - 1e-9) / tile_pitch_extent()),
                     0, rows_ - 1);

  // Rows are visited in order and each row's columns are marked, then
  // emitted in order, so the result is sorted row-major with no duplicates.
  std::vector<TileId> tiles;
  std::vector<char> covered(cols_);
  for (int row = row_lo; row <= row_hi; ++row) {
    bool polar_row =
        (over_top && row == 0) || (over_bottom && row == rows_ - 1);
    // The yaw extent needed widens with latitude: near a pole, a fixed
    // horizontal FOV spans more longitude (a θ-arc of length L at colatitude
    // φ subtends L / sin φ of longitude). Widen per row, using the part of
    // the viewport's pitch range that actually falls inside this row — a
    // viewport touching a polar band must not inflate the equatorial rows.
    double row_pitch_lo =
        std::max(pitch_lo, row * tile_pitch_extent());
    double row_pitch_hi =
        std::min(pitch_hi, (row + 1) * tile_pitch_extent());
    double worst_sin =
        std::min(std::sin(row_pitch_lo), std::sin(row_pitch_hi));
    double effective_half_yaw =
        worst_sin > 1e-3 ? std::min(kPi, fov_yaw / 2.0 / worst_sin) : kPi;
    if (polar_row || effective_half_yaw >= kPi - 1e-9) {
      for (int col = 0; col < cols_; ++col) tiles.push_back(TileId{row, col});
      continue;
    }
    double yaw_lo = center.yaw - effective_half_yaw;
    double yaw_hi = center.yaw + effective_half_yaw;
    // Walk the covered yaw arc in tile-width steps, wrapping at the seam.
    int first = static_cast<int>(std::floor(yaw_lo / tile_yaw_extent()));
    int last = static_cast<int>(std::floor((yaw_hi - 1e-9) / tile_yaw_extent()));
    std::fill(covered.begin(), covered.end(), 0);
    for (int c = first; c <= last; ++c) {
      covered[((c % cols_) + cols_) % cols_] = 1;
    }
    for (int col = 0; col < cols_; ++col) {
      if (covered[col]) tiles.push_back(TileId{row, col});
    }
  }
  // A viewport over a pole also sees the adjacent rows on the far side;
  // approximating with full polar rows (above) is sufficient for quality
  // assignment, which only needs a superset of visible tiles near poles.
  return tiles;
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
