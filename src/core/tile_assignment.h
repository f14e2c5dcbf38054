#ifndef VC_CORE_TILE_ASSIGNMENT_H_
#define VC_CORE_TILE_ASSIGNMENT_H_

#include "core/reconstruct.h"
#include "geometry/orientation.h"
#include "geometry/tile_grid.h"
#include "storage/metadata.h"

namespace vc {

/// How tiles are split into in-view and out-of-view quality classes.
struct AssignmentOptions {
  double fov_yaw = DegToRad(100.0);
  double fov_pitch = DegToRad(90.0);
  /// Extra angular margin added to the FOV when selecting in-view tiles,
  /// absorbing prediction error (radians per axis).
  double margin = 0.2;
  int high_quality = 0;   ///< Ladder rung for predicted-visible tiles.
};

/// VisualCloud's core serving decision: tiles intersecting the predicted
/// viewport (enlarged by `margin`) get `high_quality`, everything else the
/// ladder's lowest rung.
TileQualityPlan AssignTileQualities(const VideoMetadata& metadata,
                                    const Orientation& predicted,
                                    const AssignmentOptions& options);

/// Bytes the plan will transfer for `segment`.
uint64_t PlanBytes(const VideoMetadata& metadata, int segment,
                   const TileQualityPlan& plan);

/// Degrades `plan` until it fits `budget_bytes` (or every tile is at the
/// lowest rung). Tiles are degraded one rung at a time, farthest-from-gaze
/// first, so the fovea keeps quality the longest — this is the adaptive
/// half of VisualCloud's predictive streaming.
TileQualityPlan FitPlanToBudget(const VideoMetadata& metadata, int segment,
                                TileQualityPlan plan,
                                const Orientation& predicted,
                                double budget_bytes);

}  // namespace vc

#endif  // VC_CORE_TILE_ASSIGNMENT_H_
