#include "core/tile_assignment.h"

#include <algorithm>

namespace vc {

TileQualityPlan AssignTileQualities(const VideoMetadata& metadata,
                                    const Orientation& predicted,
                                    const AssignmentOptions& options) {
  TileGrid grid = metadata.tile_grid();
  int low = options.low_quality >= 0 ? options.low_quality
                                     : metadata.quality_count() - 1;
  low = Clamp(low, 0, metadata.quality_count() - 1);
  int high = Clamp(options.high_quality, 0, metadata.quality_count() - 1);

  TileQualityPlan plan(grid.tile_count(), low);
  auto visible = grid.TilesInViewport(predicted,
                                      options.fov_yaw + 2 * options.margin,
                                      options.fov_pitch + 2 * options.margin);
  for (const TileId& tile : visible) {
    plan[grid.IndexOf(tile)] = high;
  }
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
  std::vector<double> distance(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) {
    distance[i] = AngularDistance(grid.CenterOf(grid.TileAt(i)), predicted);
  }
  std::sort(order.begin(), order.end(), [&distance](int a, int b) {
    return distance[a] > distance[b];
  });

  while (static_cast<double>(bytes) > budget_bytes) {
    bool degraded = false;
    for (int tile : order) {
      if (plan[tile] < lowest) {
        uint64_t before =
            metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
                .byte_size;
        plan[tile] += 1;
        uint64_t after =
            metadata.cells[metadata.CellIndex(segment, tile, plan[tile])]
                .byte_size;
        bytes = bytes - before + after;
        degraded = true;
        break;
      }
    }
    if (!degraded) break;  // everything already at the lowest rung
  }
  return plan;
}

}  // namespace vc
