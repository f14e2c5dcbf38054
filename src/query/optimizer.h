#ifndef VC_QUERY_OPTIMIZER_H_
#define VC_QUERY_OPTIMIZER_H_

#include <string>
#include <vector>

#include "query/algebra.h"
#include "query/cost_model.h"
#include "storage/metadata.h"
#include "storage/storage_manager.h"

namespace vc {

// Rule-based logical -> physical rewriting. The optimizer resolves each
// Scan leaf against the catalog, then turns the chain's declarative
// predicates into pruning decisions over the video's (segment × tile ×
// quality) cell lattice:
//
//   - adjacent TimeSlice (and adjacent Viewport) predicates are fused;
//   - time predicates become an inclusive global frame range, and that
//     range becomes a segment range against the catalog's segment index —
//     segments outside it never reach the executor;
//   - viewport predicates become equirectangular tile sets via
//     TileGrid::TilesInViewport — out-of-view tiles are pruned, or kept at
//     the Degrade rung when one was requested;
//   - quality selection is pushed down to stored ladder rungs, so the
//     executor serves stored bytes and only transcodes when an explicit
//     quantizer forces it;
//   - for an Encode sink without an explicit quantizer, every slice that
//     covers a whole segment over the full tile grid is stitched: the
//     executor merges its stored cell bitstreams homomorphically
//     (MergeTileStreams, per-tile QP frames when the rungs differ) without
//     touching pixels. A partial segment at either end of a time window is
//     decoded and re-encoded alone at the plan's quantizer (a "smart cut"),
//     and ConcatenateStreams joins the pieces. A plan whose every slice
//     stitches is transcode-free.
//
// Every applied rule appends one line to `PhysicalPlan::rewrites`, and
// `Explain()` renders the plan plus those lines deterministically.
//
// Physical strategy selection is cost-based: for encode sinks the planner
// enumerates the feasible alternatives — homomorphic stitch, decode +
// re-encode, and (when a fresh materialized view subsumes the query) a
// view scan — estimates each with the CostModel from catalog statistics
// (per-cell bytes, segment counts, output pixels), and picks the cheapest.
// Only byte-equivalent alternatives compete: a strategy that would change
// the output bytes is listed in `alternatives` as infeasible, never chosen,
// so cost calibration moves host time without moving results.

/// \brief One materialized view offered to the optimizer as a rewrite
/// candidate (built by ViewCatalog::Candidates from persisted definitions).
/// The view video `name` holds, per maintained segment, exactly the bytes
/// the defining `query` produces over `source` at `source_version`.
struct MaterializedViewInfo {
  std::string name;            ///< Catalog name of the derived video.
  std::string source;          ///< The defining query's scanned video.
  uint32_t source_version = 0; ///< Source version maintained through.
  int segments = 0;            ///< Defining-plan slices materialized so far.
  Query query;                 ///< Parsed defining query (Store sink).
};

/// One strategy the planner costed. Infeasible entries are retained so
/// Explain() shows why they were rejected.
struct PlanAlternative {
  std::string name;          ///< "stitch", "re-encode", "view-scan(<v>)".
  double cost_seconds = 0.0; ///< CostModel estimate.
  bool feasible = true;      ///< False: listed for Explain only.
  bool chosen = false;
  std::string detail;        ///< Operand volumes or the rejection reason.
};

/// Per-segment slice of a scan after pruning: which global frames of the
/// segment survive and which rung each tile is served at (-1 = pruned).
struct SegmentSlice {
  int segment = 0;
  int first_frame = 0;  ///< Global frame index, clamped into the segment.
  int last_frame = 0;   ///< Inclusive.
  std::vector<int> tile_quality;  ///< Ladder rung per tile; -1 = pruned.
  /// Encode sinks: served by stitching the stored cells (a whole segment,
  /// every tile at a stored rung, no explicit quantizer). Otherwise the
  /// slice is decoded and re-encoded at the plan's `encode_qp`.
  bool stitch = false;

  /// True when the slice covers every frame of the segment.
  bool WholeSegment(const VideoMetadata& metadata) const;
};

/// One Scan leaf after predicate pushdown.
struct ScanPlan {
  VideoMetadata metadata;
  std::vector<SegmentSlice> slices;  ///< Ascending by segment.
};

/// What the plan does with the reconstructed result.
enum class SinkKind : uint8_t {
  kMaterialize,  ///< No sink op: executor returns decoded frames.
  kEncode,       ///< Encode only: executor returns one encoded stream.
  kStore,        ///< Commit the encoded result as a new catalog video.
  kToFile,       ///< Serialize the encoded result to a file.
};

const char* SinkKindName(SinkKind kind);

/// \brief Executable physical plan: pruned cell slices per scan, a sink,
/// and the rewrite log that produced them.
struct PhysicalPlan {
  std::vector<ScanPlan> scans;  ///< Union branches in playback order.
  SinkKind sink = SinkKind::kMaterialize;
  /// Quantizer of the slices that re-encode (-1 when none does).
  int encode_qp = -1;
  /// `encode_qp` came from an explicit encode(qp): every slice re-encodes.
  bool qp_explicit = false;
  std::string target;        ///< Store name or file path.
  /// Every slice stitches stored cell bitstreams — no decode, no re-encode.
  bool transcode_free = false;
  std::vector<std::string> rewrites;  ///< One line per applied rule.
  /// Costed strategy alternatives for encode sinks (empty for materialize).
  /// Exactly one entry is `chosen` when non-empty.
  std::vector<PlanAlternative> alternatives;
  /// Name of the materialized view the plan scans instead of the source
  /// (empty when no view-matching rewrite applied).
  std::string view_served;
  /// Registration name from an outermost Subscribe operator; empty for
  /// one-shot queries. The plan itself executes one catch-up pass — the
  /// ViewMaintainer re-runs it per committed segment.
  std::string standing_name;

  /// Cells addressed by the scans' segment x tile lattice at one rung each.
  int ScannedCells() const;
  /// True when every slice keeps every tile (at some rung).
  bool FullGrid() const;
  /// Cells the same scans would touch without pruning (every tile of every
  /// catalog segment, at one rung).
  int TotalCells() const;

  /// Deterministic multi-line rendering of the plan and its rewrite log.
  std::string Explain() const;
};

struct OptimizeOptions {
  /// When set, the (single) Scan leaf binds to this metadata instead of the
  /// catalog's latest version — export paths pin an explicit version.
  const VideoMetadata* scan_override = nullptr;
  /// Materialized views offered for the view-matching rewrite (not owned).
  /// When an incoming encode-sink query is subsumed by a fresh view the
  /// planner may serve the view's stored cells instead of re-deriving the
  /// result — counted via the query.view_hits metric.
  const std::vector<MaterializedViewInfo>* views = nullptr;
  /// Cost model used to rank alternatives. nullptr (the default) uses
  /// CostModel::Calibrated(); tests pass an explicit default-constructed
  /// model so Explain() output is pinned.
  const CostModel* cost_model = nullptr;
};

/// Rewrites `query` into an executable plan against `storage`'s catalog.
/// Fails when a scan names an unknown video, a rung does not resolve
/// against its ladder, a predicate is empty (t0 >= t1), or the plan shape
/// is unsupported (e.g. Store sink without Encode).
Result<PhysicalPlan> Optimize(const Query& query, StorageManager* storage,
                              const OptimizeOptions& options = {});

}  // namespace vc

#endif  // VC_QUERY_OPTIMIZER_H_
