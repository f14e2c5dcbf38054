#ifndef VC_QUERY_EXECUTOR_H_
#define VC_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "codec/bitstream.h"
#include "image/frame.h"
#include "query/optimizer.h"
#include "storage/storage_manager.h"

namespace vc {

// The physical executor: runs a PhysicalPlan against the storage manager.
// Cell fetches go through the async cell-load path (ReadCellAsync batches
// per segment slice, issue-then-wait, so loads overlap on the I/O pool);
// decode and re-encode touch only the cells that survived pruning. Every
// execution reports to the metrics registry:
//
//   query.cells_scanned       cells fetched and decoded/stitched
//   query.cells_pruned        catalog cells the optimizer eliminated
//   query.transcodes          segment slices decoded and re-encoded
//   query.transcodes_avoided  segment slices stitched from stored bytes
//   query.plan_seconds        Optimize() latency   (ExecuteQuery only)
//   query.exec_seconds        ExecutePlan() latency
//
// plus the cost-model calibration histograms (query/cost_model.h):
// query.stitch_seconds_per_cell, query.decode_seconds_per_cell,
// query.encode_seconds_per_pixel.

struct ExecuteOptions {
  /// Filter-after-scan baseline: fetch every catalog cell of each scan (at
  /// the plan's rung where it keeps the tile, at one fallback rung where it
  /// pruned it), decode and paste every fetched cell of the slices the plan
  /// decodes, then discard what the plan pruned (mask out-of-plan tiles
  /// back to black). It changes only what is read and decoded, never the
  /// output bytes: stitched slices are stitched from the same cells.
  /// Benchmarks use this as the naive comparison.
  bool naive_full_scan = false;
};

/// What an execution produced; which fields are set depends on the sink.
struct QueryResult {
  /// Decoded panorama frames in playback order (kMaterialize sink; also
  /// the intermediate the transcode path encodes from).
  std::vector<Frame> frames;
  /// The encoded result (kEncode, kStore, and kToFile sinks).
  EncodedVideo encoded;
  bool has_encoded = false;
  /// Catalog version written by a kStore sink.
  uint32_t stored_version = 0;

  // Work accounting for this execution (also mirrored to query.* metrics).
  int cells_scanned = 0;
  int cells_pruned = 0;
  int transcodes = 0;
  int transcodes_avoided = 0;
};

/// Runs `plan` against `storage`.
Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                StorageManager* storage,
                                const ExecuteOptions& options = {});

/// Optimize + ExecutePlan in one call, timing both phases into the
/// query.plan_seconds / query.exec_seconds histograms.
Result<QueryResult> ExecuteQuery(const Query& query, StorageManager* storage,
                                 const OptimizeOptions& optimize_options = {},
                                 const ExecuteOptions& execute_options = {});

// --- Building blocks for derived (materialized-view) videos. The view
// maintainer re-uses exactly the pieces the kStore sink is built from, so
// an incrementally maintained view is byte-identical to a full recompute.

/// Metadata for a video derived from `source` by a store/view plan: same
/// geometry, cadence, and tiling; `ladder` (single rung) replaces the
/// source ladder. Segments and cells are filled by the writer.
VideoMetadata DerivedVideoMetadata(const std::string& name,
                                   const VideoMetadata& source,
                                   const QualityLadder& ladder);

/// The single-rung ladder a kStore sink commits `plan`'s output at. A
/// full-grid plan without an explicit quantizer serves stored rungs (its
/// re-encoded partial segments use the best of them): one rung keeps its
/// identity, several become one rung named "<best>+...+<worst>" at the best
/// rung's QP. Any other plan re-encodes everything and gets a synthetic
/// "q<qp>" rung.
QualityLadder StoreLadderFor(const PhysicalPlan& plan);

/// Splits one encoded segment piece back into serialized per-tile cell
/// payloads (ExtractTileStream per tile, homomorphic — stitching the cells
/// reproduces `piece` byte-for-byte).
Result<std::vector<std::vector<uint8_t>>> SplitPieceToCells(
    const EncodedVideo& piece, int tile_rows, int tile_cols);

}  // namespace vc

#endif  // VC_QUERY_EXECUTOR_H_
