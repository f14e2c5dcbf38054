#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "common/math_util.h"
#include "geometry/orientation.h"
#include "image/metrics.h"
#include "geometry/tile_grid.h"
#include "geometry/viewport.h"

namespace vc {
namespace {

// ------------------------------------------------------------- Orientation

TEST(OrientationTest, WrapYaw) {
  EXPECT_NEAR(WrapYaw(0.0), 0.0, 1e-12);
  EXPECT_NEAR(WrapYaw(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(WrapYaw(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(WrapYaw(3 * kPi), kPi, 1e-12);
}

TEST(OrientationTest, YawDifferenceShortestPath) {
  EXPECT_NEAR(YawDifference(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(YawDifference(kTwoPi - 0.1, 0.1), -0.2, 1e-12);
  EXPECT_NEAR(YawDifference(1.0, 1.0), 0.0, 1e-12);
}

TEST(OrientationTest, VectorRoundTrip) {
  for (double yaw : {0.0, 1.0, 3.0, 5.5}) {
    for (double pitch : {0.3, kPi / 2, 2.8}) {
      Orientation o{yaw, pitch};
      Orientation back = Orientation::FromVector(o.ToVector());
      EXPECT_NEAR(back.yaw, yaw, 1e-9);
      EXPECT_NEAR(back.pitch, pitch, 1e-9);
    }
  }
}

TEST(OrientationTest, AngularDistanceProperties) {
  Orientation a{0.0, kPi / 2};
  Orientation b{kPi / 2, kPi / 2};
  EXPECT_NEAR(AngularDistance(a, b), kPi / 2, 1e-9);
  EXPECT_NEAR(AngularDistance(a, a), 0.0, 1e-6);
  // Symmetric.
  EXPECT_NEAR(AngularDistance(a, b), AngularDistance(b, a), 1e-12);
  // Antipodal points are pi apart.
  Orientation c{kPi, kPi / 2};
  EXPECT_NEAR(AngularDistance(a, c), kPi, 1e-9);
}

TEST(OrientationTest, SeamDistanceIsSmall) {
  // Orientations on either side of the yaw seam are angularly close; naive
  // euclidean distance on yaw would say they are ~2π apart.
  Orientation a{0.05, kPi / 2};
  Orientation b{kTwoPi - 0.05, kPi / 2};
  EXPECT_LT(AngularDistance(a, b), 0.2);
}

/// WrapYaw and YawDifference as they were first written, always calling
/// fmod: the references the fast paths must match bit for bit.
double ReferenceWrapYaw(double yaw) {
  yaw = std::fmod(yaw, kTwoPi);
  if (yaw < 0) yaw += kTwoPi;
  return yaw;
}

double ReferenceYawDifference(double a, double b) {
  double d = std::fmod(a - b, kTwoPi);
  if (d > kPi) d -= kTwoPi;
  if (d <= -kPi) d += kTwoPi;
  return d;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(OrientationTest, YawHelpersMatchFmodReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> specials = {0.0,     -0.0,       kPi,    -kPi,
                                  kTwoPi,  -kTwoPi,    1e-300, -1e-300,
                                  3 * kPi, -7.5 * kPi, 1e6,    -1e6,
                                  1e300,   -1e300,     inf,    -inf,
                                  nan,     0.5,        -0.5,   kTwoPi - 0.5};
  // The one-ulp neighbours of every boundary the fast paths test.
  for (double edge : {0.0, kPi, -kPi, kTwoPi, -kTwoPi, 2 * kTwoPi}) {
    specials.push_back(std::nextafter(edge, inf));
    specials.push_back(std::nextafter(edge, -inf));
  }
  for (double a : specials) {
    EXPECT_EQ(Bits(WrapYaw(a)), Bits(ReferenceWrapYaw(a))) << "yaw=" << a;
    for (double b : specials) {
      EXPECT_EQ(Bits(YawDifference(a, b)), Bits(ReferenceYawDifference(a, b)))
          << "a=" << a << " b=" << b;
    }
  }
  // Multi-turn values on both sides of zero.
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> turns(-3.0, 3.0);
  for (int i = 0; i < 10000; ++i) {
    double a = turns(rng) * kTwoPi;
    double b = turns(rng) * kTwoPi;
    ASSERT_EQ(Bits(WrapYaw(a)), Bits(ReferenceWrapYaw(a))) << "yaw=" << a;
    ASSERT_EQ(Bits(YawDifference(a, b)), Bits(ReferenceYawDifference(a, b)))
        << "a=" << a << " b=" << b;
  }
}

// ---------------------------------------------------------------- TileGrid

TEST(TileGridTest, TileForBasics) {
  TileGrid grid(4, 4);
  EXPECT_EQ(grid.tile_count(), 16);
  // Center of the first cell.
  TileId t = grid.TileFor({kPi / 4, kPi / 8});
  EXPECT_EQ(t.row, 0);
  EXPECT_EQ(t.col, 0);
  // pitch = π (bottom pole) clamps into the last row.
  t = grid.TileFor({0.0, kPi});
  EXPECT_EQ(t.row, 3);
  // yaw wraps.
  t = grid.TileFor({kTwoPi + 0.1, kPi / 2});
  EXPECT_EQ(t.col, 0);
}

TEST(TileGridTest, IndexRoundTrip) {
  TileGrid grid(3, 5);
  for (int i = 0; i < grid.tile_count(); ++i) {
    EXPECT_EQ(grid.IndexOf(grid.TileAt(i)), i);
  }
}

TEST(TileGridTest, CenterOfIsInsideTile) {
  TileGrid grid(4, 8);
  for (int i = 0; i < grid.tile_count(); ++i) {
    TileId tile = grid.TileAt(i);
    EXPECT_EQ(grid.TileFor(grid.CenterOf(tile)), tile);
  }
}

/// TilesInViewport as it was first written, collecting into a std::set:
/// the reference the set-free version must match exactly.
std::vector<TileId> ReferenceTilesInViewport(const TileGrid& grid,
                                             const Orientation& orientation,
                                             double fov_yaw,
                                             double fov_pitch) {
  Orientation center = orientation.Normalized();
  double pitch_lo = center.pitch - fov_pitch / 2.0;
  double pitch_hi = center.pitch + fov_pitch / 2.0;
  bool over_top = pitch_lo < 0.0;
  bool over_bottom = pitch_hi > kPi;
  pitch_lo = Clamp(pitch_lo, 0.0, kPi);
  pitch_hi = Clamp(pitch_hi, 0.0, kPi);
  const double row_extent = grid.tile_pitch_extent();
  const double col_extent = grid.tile_yaw_extent();
  int row_lo =
      Clamp(static_cast<int>(pitch_lo / row_extent), 0, grid.rows() - 1);
  int row_hi = Clamp(static_cast<int>((pitch_hi - 1e-9) / row_extent), 0,
                     grid.rows() - 1);
  std::set<TileId> tiles;
  for (int row = row_lo; row <= row_hi; ++row) {
    bool polar_row =
        (over_top && row == 0) || (over_bottom && row == grid.rows() - 1);
    double row_pitch_lo = std::max(pitch_lo, row * row_extent);
    double row_pitch_hi = std::min(pitch_hi, (row + 1) * row_extent);
    double worst_sin =
        std::min(std::sin(row_pitch_lo), std::sin(row_pitch_hi));
    double effective_half_yaw =
        worst_sin > 1e-3 ? std::min(kPi, fov_yaw / 2.0 / worst_sin) : kPi;
    if (polar_row || effective_half_yaw >= kPi - 1e-9) {
      for (int col = 0; col < grid.cols(); ++col) {
        tiles.insert(TileId{row, col});
      }
      continue;
    }
    double yaw_lo = center.yaw - effective_half_yaw;
    double yaw_hi = center.yaw + effective_half_yaw;
    int first = static_cast<int>(std::floor(yaw_lo / col_extent));
    int last = static_cast<int>(std::floor((yaw_hi - 1e-9) / col_extent));
    const int cols = grid.cols();
    for (int c = first; c <= last; ++c) {
      tiles.insert(TileId{row, ((c % cols) + cols) % cols});
    }
  }
  return std::vector<TileId>(tiles.begin(), tiles.end());
}

TEST(TileGridTest, ViewportMatchesSetReferenceOverSeededSweep) {
  // ~10k orientations per run: uniform ones, plus picks pinned to the yaw
  // seam, tile boundaries and both poles, with FOVs from zero past 2π.
  const std::vector<TileGrid> grids = {TileGrid(1, 1), TileGrid(6, 8),
                                       TileGrid(4, 4), TileGrid(3, 5),
                                       TileGrid(2, 12)};
  const double special_yaws[] = {0.0, 1e-12, kTwoPi - 1e-12, kTwoPi,
                                 -1e-9, kPi, kTwoPi / 8, 3 * kTwoPi / 8};
  const double special_pitches[] = {0.0, 1e-12, kPi, kPi - 1e-12,
                                    kPi / 2, kPi / 6, 0.02, kPi - 0.02};
  const double special_fovs[] = {0.0, 1e-6, kPi, kTwoPi, kTwoPi + 0.5,
                                 DegToRad(100), DegToRad(90)};
  std::mt19937 rng(14);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int cases = 0;
  for (const TileGrid& grid : grids) {
    for (int i = 0; i < 2000; ++i) {
      Orientation o{unit(rng) * kTwoPi, unit(rng) * kPi};
      double fov_yaw = unit(rng) * 1.2 * kTwoPi;
      double fov_pitch = unit(rng) * 1.2 * kPi;
      switch (i % 4) {
        case 1:
          o.yaw = special_yaws[rng() % std::size(special_yaws)];
          break;
        case 2:
          o.pitch = special_pitches[rng() % std::size(special_pitches)];
          break;
        case 3:
          fov_yaw = special_fovs[rng() % std::size(special_fovs)];
          fov_pitch = special_fovs[rng() % std::size(special_fovs)];
          break;
        default:
          break;
      }
      ASSERT_EQ(grid.TilesInViewport(o, fov_yaw, fov_pitch),
                ReferenceTilesInViewport(grid, o, fov_yaw, fov_pitch))
          << grid.ToString() << " yaw=" << o.yaw << " pitch=" << o.pitch
          << " fov=" << fov_yaw << "x" << fov_pitch;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 10000);
}

TEST(TileGridTest, VisitorAndContainsMatchTilesInViewportOverSeededSweep) {
  // The sweep of ViewportMatchesSetReferenceOverSeededSweep: same grids,
  // seed, special values and FOVs from zero past 2π.
  const std::vector<TileGrid> grids = {TileGrid(1, 1), TileGrid(6, 8),
                                       TileGrid(4, 4), TileGrid(3, 5),
                                       TileGrid(2, 12)};
  const double special_yaws[] = {0.0, 1e-12, kTwoPi - 1e-12, kTwoPi,
                                 -1e-9, kPi, kTwoPi / 8, 3 * kTwoPi / 8};
  const double special_pitches[] = {0.0, 1e-12, kPi, kPi - 1e-12,
                                    kPi / 2, kPi / 6, 0.02, kPi - 0.02};
  const double special_fovs[] = {0.0, 1e-6, kPi, kTwoPi, kTwoPi + 0.5,
                                 DegToRad(100), DegToRad(90)};
  std::mt19937 rng(14);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int cases = 0;
  for (const TileGrid& grid : grids) {
    for (int i = 0; i < 2000; ++i) {
      Orientation o{unit(rng) * kTwoPi, unit(rng) * kPi};
      double fov_yaw = unit(rng) * 1.2 * kTwoPi;
      double fov_pitch = unit(rng) * 1.2 * kPi;
      switch (i % 4) {
        case 1:
          o.yaw = special_yaws[rng() % std::size(special_yaws)];
          break;
        case 2:
          o.pitch = special_pitches[rng() % std::size(special_pitches)];
          break;
        case 3:
          fov_yaw = special_fovs[rng() % std::size(special_fovs)];
          fov_pitch = special_fovs[rng() % std::size(special_fovs)];
          break;
        default:
          break;
      }
      std::vector<TileId> visited;
      grid.ForEachTileInViewport(o, fov_yaw, fov_pitch, [&](TileId tile) {
        visited.push_back(tile);
      });
      const std::vector<TileId> reference =
          ReferenceTilesInViewport(grid, o, fov_yaw, fov_pitch);
      ASSERT_EQ(visited, grid.TilesInViewport(o, fov_yaw, fov_pitch));
      ASSERT_EQ(visited, reference)
          << grid.ToString() << " yaw=" << o.yaw << " pitch=" << o.pitch
          << " fov=" << fov_yaw << "x" << fov_pitch;
      const std::set<TileId> members(reference.begin(), reference.end());
      for (int index = 0; index < grid.tile_count(); ++index) {
        TileId tile = grid.TileAt(index);
        ASSERT_EQ(grid.ViewportContains(o, fov_yaw, fov_pitch, tile),
                  members.count(tile) == 1)
            << grid.ToString() << " tile=" << tile.row << "," << tile.col
            << " yaw=" << o.yaw << " pitch=" << o.pitch
            << " fov=" << fov_yaw << "x" << fov_pitch;
      }
      // Tiles outside the grid are never in view.
      for (TileId outside : {TileId{-1, 0}, TileId{0, -1},
                             TileId{grid.rows(), 0}, TileId{0, grid.cols()}}) {
        ASSERT_FALSE(grid.ViewportContains(o, fov_yaw, fov_pitch, outside));
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 10000);
}

TEST(TileGridTest, ViewportCoversGazeTile) {
  TileGrid grid(4, 4);
  for (double yaw = 0.1; yaw < kTwoPi; yaw += 0.7) {
    for (double pitch = 0.2; pitch < kPi; pitch += 0.5) {
      Orientation o{yaw, pitch};
      auto tiles = grid.TilesInViewport(o, DegToRad(100), DegToRad(90));
      TileId gaze = grid.TileFor(o);
      EXPECT_NE(std::find(tiles.begin(), tiles.end(), gaze), tiles.end())
          << "yaw=" << yaw << " pitch=" << pitch;
    }
  }
}

TEST(TileGridTest, ViewportIsProperSubsetAwayFromPoles) {
  TileGrid grid(4, 8);
  Orientation equator{kPi, kPi / 2};
  auto tiles = grid.TilesInViewport(equator, DegToRad(90), DegToRad(80));
  EXPECT_GT(tiles.size(), 0u);
  EXPECT_LT(tiles.size(), static_cast<size_t>(grid.tile_count()));
}

TEST(TileGridTest, ViewportWrapsAcrossSeam) {
  TileGrid grid(1, 8);
  Orientation near_seam{0.02, kPi / 2};
  auto tiles = grid.TilesInViewport(near_seam, DegToRad(100), DegToRad(60));
  // Must include both the first and the last column.
  bool has_first = false, has_last = false;
  for (const TileId& t : tiles) {
    if (t.col == 0) has_first = true;
    if (t.col == 7) has_last = true;
  }
  EXPECT_TRUE(has_first);
  EXPECT_TRUE(has_last);
}

TEST(TileGridTest, ViewportOverPoleCoversWholePolarRow) {
  TileGrid grid(4, 4);
  Orientation up{1.0, 0.05};  // staring nearly straight up
  auto tiles = grid.TilesInViewport(up, DegToRad(100), DegToRad(90));
  int row0_count = 0;
  for (const TileId& t : tiles) {
    if (t.row == 0) ++row0_count;
  }
  EXPECT_EQ(row0_count, 4);  // all columns of the top row
}

TEST(TileGridTest, SingleTileGridAlwaysFullCoverage) {
  TileGrid grid(1, 1);
  auto tiles = grid.TilesInViewport({1.0, 1.0}, DegToRad(100), DegToRad(90));
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0], (TileId{0, 0}));
}

TEST(TileGridTest, WiderFovCoversMoreTiles) {
  TileGrid grid(6, 12);
  Orientation o{2.0, kPi / 2};
  auto narrow = grid.TilesInViewport(o, DegToRad(60), DegToRad(50));
  auto wide = grid.TilesInViewport(o, DegToRad(140), DegToRad(110));
  EXPECT_LT(narrow.size(), wide.size());
  // Narrow set is a subset of the wide set.
  for (const TileId& t : narrow) {
    EXPECT_NE(std::find(wide.begin(), wide.end(), t), wide.end());
  }
}

TEST(TileGridTest, PixelRectsTileTheFrame) {
  const int width = 256, height = 128;
  for (auto [rows, cols] : {std::pair{1, 1}, {2, 2}, {4, 4}, {2, 8}}) {
    TileGrid grid(rows, cols);
    long long area = 0;
    for (int i = 0; i < grid.tile_count(); ++i) {
      auto rect = grid.PixelRectOf(grid.TileAt(i), width, height, 16);
      ASSERT_TRUE(rect.ok());
      EXPECT_EQ(rect->x % 16, 0);
      EXPECT_EQ(rect->y % 16, 0);
      EXPECT_GT(rect->width, 0);
      area += static_cast<long long>(rect->width) * rect->height;
    }
    EXPECT_EQ(area, static_cast<long long>(width) * height)
        << rows << "x" << cols;
  }
}

TEST(TileGridTest, PixelRectRejectsTooFineGrid) {
  TileGrid grid(16, 16);
  // 64x32 frame with 16 rows => 2-pixel tiles, under the 16px block floor.
  EXPECT_FALSE(grid.PixelRectOf({0, 0}, 64, 32, 16).ok());
}

TEST(TileGridTest, PixelRectRejectsBadTile) {
  TileGrid grid(2, 2);
  EXPECT_FALSE(grid.PixelRectOf({2, 0}, 64, 64, 16).ok());
  EXPECT_FALSE(grid.PixelRectOf({0, -1}, 64, 64, 16).ok());
}

// ---------------------------------------------------------------- Viewport

TEST(ViewportTest, RendersGazeDirectionContent) {
  // Panorama: left hemisphere dark, right hemisphere bright.
  Frame pano(256, 128);
  pano.FillRect(0, 0, 128, 128, 50, 128, 128);
  pano.FillRect(128, 0, 128, 128, 200, 128, 128);

  ViewportSpec spec;
  spec.width = 64;
  spec.height = 64;

  // Gaze at yaw = π/2 (center of the dark half given our mapping of column
  // x = yaw/2π * width: yaw π/2 is column 64, inside [0,128) = dark).
  auto dark_view = RenderViewport(pano, {kPi / 2, kPi / 2}, spec);
  ASSERT_TRUE(dark_view.ok());
  EXPECT_NEAR(dark_view->y(32, 32), 50, 2);

  auto bright_view = RenderViewport(pano, {3 * kPi / 2, kPi / 2}, spec);
  ASSERT_TRUE(bright_view.ok());
  EXPECT_NEAR(bright_view->y(32, 32), 200, 2);
}

TEST(ViewportTest, PoleGazeDoesNotCrash) {
  Frame pano(128, 64);
  pano.Fill(99, 128, 128);
  ViewportSpec spec;
  spec.width = 32;
  spec.height = 32;
  auto up = RenderViewport(pano, {0.0, 0.0}, spec);
  ASSERT_TRUE(up.ok());
  EXPECT_NEAR(up->y(16, 16), 99, 2);
  auto down = RenderViewport(pano, {0.0, kPi}, spec);
  ASSERT_TRUE(down.ok());
}

TEST(ViewportTest, RejectsBadSpecs) {
  Frame pano(128, 64);
  ViewportSpec spec;
  spec.width = 33;  // odd
  EXPECT_FALSE(RenderViewport(pano, {0, kPi / 2}, spec).ok());
  spec.width = 32;
  spec.fov_yaw = kPi;  // too wide for rectilinear projection
  EXPECT_FALSE(RenderViewport(pano, {0, kPi / 2}, spec).ok());
}

TEST(ViewportTest, ViewportPsnrPerfectWhenIdentical) {
  Frame pano(128, 64);
  pano.FillRect(20, 10, 40, 30, 180, 100, 140);
  ViewportSpec spec;
  spec.width = 32;
  spec.height = 32;
  auto psnr = ViewportPsnr(pano, pano, {1.0, 1.5}, spec);
  ASSERT_TRUE(psnr.ok());
  EXPECT_EQ(*psnr, kInfinitePsnr);
}

TEST(ViewportTest, ViewportPsnrIgnoresOutOfViewDamage) {
  Frame reference(256, 128);
  reference.Fill(128, 128, 128);
  Frame damaged = reference;
  // Damage the area behind the viewer (yaw ≈ π+gaze).
  damaged.FillRect(0, 48, 32, 32, 0, 128, 128);

  ViewportSpec spec;
  spec.width = 64;
  spec.height = 64;
  // Gaze far from the damage: quality is perfect in-view.
  auto psnr = ViewportPsnr(reference, damaged, {kPi, kPi / 2}, spec);
  ASSERT_TRUE(psnr.ok());
  EXPECT_EQ(*psnr, kInfinitePsnr);
  // Gaze at the damage: quality collapses.
  auto bad = ViewportPsnr(reference, damaged, {0.4, kPi / 2}, spec);
  ASSERT_TRUE(bad.ok());
  EXPECT_LT(*bad, 40.0);
}

}  // namespace
}  // namespace vc
