#include "core/tile_assignment.h"

#include <algorithm>
#include <cmath>

namespace vc {

TileQualityPlan AssignTileQualities(const VideoMetadata& metadata,
                                    const Orientation& predicted,
                                    const AssignmentOptions& options) {
  TileGrid grid = metadata.tile_grid();
  const int low = std::max(0, metadata.quality_count() - 1);
  int high = Clamp(options.high_quality, 0, metadata.quality_count() - 1);

  TileQualityPlan plan(grid.tile_count(), low);
  grid.ForEachTileInViewport(
      predicted, options.fov_yaw + 2 * options.margin,
      options.fov_pitch + 2 * options.margin,
      [&](TileId tile) { plan[grid.IndexOf(tile)] = high; });
  return plan;
}

uint64_t PlanBytes(const VideoMetadata& metadata, int segment,
                   const TileQualityPlan& plan) {
  uint64_t total = 0;
  for (int tile = 0; tile < metadata.tile_count(); ++tile) {
    total += metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
                 .byte_size;
  }
  return total;
}

TileQualityPlan FitPlanToBudget(const VideoMetadata& metadata, int segment,
                                TileQualityPlan plan,
                                const Orientation& predicted,
                                double budget_bytes) {
  uint64_t bytes = PlanBytes(metadata, segment, plan);
  if (static_cast<double>(bytes) <= budget_bytes) return plan;

  TileGrid grid = metadata.tile_grid();
  const int lowest = metadata.quality_count() - 1;

  // Tiles ordered farthest-from-gaze first.
  std::vector<int> order(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) order[i] = i;
  const Vec3 gaze = predicted.ToVector();
  std::vector<double> distance(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) {
    // AngularDistance(center, predicted), with the gaze vector hoisted.
    distance[i] = std::acos(Clamp(
        grid.CenterOf(grid.TileAt(i)).ToVector().Dot(gaze), -1.0, 1.0));
  }
  std::sort(order.begin(), order.end(), [&distance](int a, int b) {
    return distance[a] > distance[b];
  });

  // Each pass degrades the farthest tile not yet at the lowest rung by one
  // rung. Rungs only rise, so that tile's position in `order` never moves
  // back: a forward cursor finds it without rescanning from the start.
  size_t next = 0;
  while (static_cast<double>(bytes) > budget_bytes) {
    while (next < order.size() && plan[order[next]] >= lowest) ++next;
    if (next == order.size()) break;  // everything already at the lowest rung
    const int tile = order[next];
    uint64_t before =
        metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
            .byte_size;
    plan[tile] += 1;
    uint64_t after =
        metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
            .byte_size;
    bytes = bytes - before + after;
  }
  return plan;
}

}  // namespace vc
