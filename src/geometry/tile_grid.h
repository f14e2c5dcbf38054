#ifndef VC_GEOMETRY_TILE_GRID_H_
#define VC_GEOMETRY_TILE_GRID_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/orientation.h"

namespace vc {

/// \brief Identifies one tile of a spatial partitioning: row-major position
/// in an R×C grid over the equirectangular frame.
struct TileId {
  int row = 0;
  int col = 0;

  bool operator==(const TileId& o) const {
    return row == o.row && col == o.col;
  }
  bool operator<(const TileId& o) const {
    return row != o.row ? row < o.row : col < o.col;
  }
};

/// \brief The spatial half of VisualCloud's spatiotemporal partitioning: an
/// R×C grid of equal angular extents over the 360° sphere.
///
/// Tile (r, c) covers yaw ∈ [c·2π/C, (c+1)·2π/C) × pitch ∈ [r·π/R, (r+1)·π/R).
/// The yaw axis is periodic; viewports that straddle the 0/2π seam therefore
/// cover tiles from both edges of the grid.
class TileGrid {
 public:
  /// A 1×1 grid (no spatial partitioning).
  TileGrid() : TileGrid(1, 1) {}

  /// Creates an R×C grid; both must be ≥ 1.
  TileGrid(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int tile_count() const { return rows_ * cols_; }

  /// Angular size of one tile.
  double tile_yaw_extent() const { return kTwoPi / cols_; }
  double tile_pitch_extent() const { return kPi / rows_; }

  /// The tile containing `orientation` (pitch π maps to the last row).
  TileId TileFor(const Orientation& orientation) const;

  /// Flattened row-major index of a tile.
  int IndexOf(TileId tile) const { return tile.row * cols_ + tile.col; }

  /// Inverse of IndexOf; `index` in [0, tile_count()).
  TileId TileAt(int index) const {
    return TileId{index / cols_, index % cols_};
  }

  /// Orientation of a tile's angular center.
  Orientation CenterOf(TileId tile) const;

  /// Tiles intersected by a rectangular field of view of `fov_yaw` ×
  /// `fov_pitch` radians centered on `orientation`. Handles the yaw seam and
  /// pole caps: a viewport that crosses a pole covers every column in the
  /// polar row band.
  std::vector<TileId> TilesInViewport(const Orientation& orientation,
                                      double fov_yaw, double fov_pitch) const;

  /// Calls `visit(TileId)` for each tile TilesInViewport returns, in the
  /// same row-major order, without allocating.
  template <typename Visit>
  void ForEachTileInViewport(const Orientation& orientation, double fov_yaw,
                             double fov_pitch, Visit&& visit) const {
    const ViewportRows rows = RowsOf(orientation, fov_pitch);
    for (int row = rows.row_lo; row <= rows.row_hi; ++row) {
      const ColumnSpan span = SpanOf(rows, row, fov_yaw);
      // The span's columns in ascending order: the part wrapped past the
      // seam (if any) starts at column 0, then the rest up to the last one.
      const int end = span.first + span.count;
      for (int col = 0; col < end - cols_; ++col) visit(TileId{row, col});
      for (int col = span.first; col < std::min(end, cols_); ++col) {
        visit(TileId{row, col});
      }
    }
  }

  /// True iff `tile` is among TilesInViewport(orientation, fov_yaw,
  /// fov_pitch). Evaluates only the tile's own row: at most two sin calls.
  bool ViewportContains(const Orientation& orientation, double fov_yaw,
                        double fov_pitch, TileId tile) const;

  /// Pixel rectangle of a tile inside a `width`×`height` equirectangular
  /// frame. Pixel edges are rounded to multiples of `align` (e.g. 16 for the
  /// codec's block size); the last row/column absorbs the remainder.
  struct PixelRect {
    int x = 0;
    int y = 0;
    int width = 0;
    int height = 0;
  };
  Result<PixelRect> PixelRectOf(TileId tile, int width, int height,
                                int align = 2) const;

  bool operator==(const TileGrid& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  std::string ToString() const;

 private:
  /// The pitch band a viewport covers, computed once per viewport.
  struct ViewportRows {
    Orientation center;  ///< Normalized viewport center.
    double pitch_lo = 0.0;  ///< Band edges, clamped to [0, π].
    double pitch_hi = 0.0;
    bool over_top = false;  ///< The viewport reaches past a pole.
    bool over_bottom = false;
    int row_lo = 0;  ///< First and last covered rows.
    int row_hi = -1;
  };
  /// The covered columns of one row: `count` columns starting at `first`
  /// and wrapping past the seam. first ∈ [0, C), count ∈ [0, C].
  struct ColumnSpan {
    int first = 0;
    int count = 0;
  };

  ViewportRows RowsOf(const Orientation& orientation, double fov_pitch) const;
  ColumnSpan SpanOf(const ViewportRows& rows, int row, double fov_yaw) const;

  int rows_;
  int cols_;
};

}  // namespace vc

#endif  // VC_GEOMETRY_TILE_GRID_H_
