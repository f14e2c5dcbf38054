#ifndef VC_STREAMING_MANIFEST_H_
#define VC_STREAMING_MANIFEST_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "storage/metadata.h"

namespace vc {

/// \brief DASH-MPD analogue: a plain-text manifest a client fetches once to
/// learn the video's spatiotemporal layout, quality ladder, and every
/// cell's byte size — everything needed to plan per-tile quality requests
/// and byte budgets without further server round trips.
///
/// Format (line-oriented, '#' comments allowed):
///
///     VCMPD 1
///     name venice
///     version 3
///     size 256 128
///     fps_x100 1500
///     segment_frames 15
///     tiles 6 8
///     stereo 0
///     quality <index> <name> <qp>          (one per rung)
///     segment <index> <start> <frames>     (one per segment, followed by
///     cell <seg> <tile> <quality> <bytes> <crc32>   its tile×quality cells)
///
/// Segments are serialized grouped — each `segment` line followed by its
/// own `cell` lines. ParseManifest is order-agnostic and still accepts the
/// historical all-segments-then-all-cells layout.
///
/// GenerateManifest/ParseManifest round-trip every field, so a parsed
/// manifest reconstructs the full VideoMetadata (sans data_dir, which is a
/// server-side storage detail clients never see).
std::string GenerateManifest(const VideoMetadata& metadata);

/// Parses a manifest back into metadata (validated).
Result<VideoMetadata> ParseManifest(Slice text);

}  // namespace vc

#endif  // VC_STREAMING_MANIFEST_H_
