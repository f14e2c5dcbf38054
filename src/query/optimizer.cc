#include "query/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/math_util.h"
#include "obs/metrics.h"

namespace vc {

const char* SinkKindName(SinkKind kind) {
  switch (kind) {
    case SinkKind::kMaterialize:
      return "materialize";
    case SinkKind::kEncode:
      return "encode";
    case SinkKind::kStore:
      return "store";
    case SinkKind::kToFile:
      return "tofile";
  }
  return "unknown";
}

bool SegmentSlice::WholeSegment(const VideoMetadata& metadata) const {
  const SegmentInfo& info = metadata.segments[segment];
  return first_frame == static_cast<int>(info.start_frame) &&
         last_frame ==
             static_cast<int>(info.start_frame + info.frame_count) - 1;
}

int PhysicalPlan::ScannedCells() const {
  int scanned = 0;
  for (const ScanPlan& scan : scans) {
    for (const SegmentSlice& slice : scan.slices) {
      for (int rung : slice.tile_quality) {
        if (rung >= 0) ++scanned;
      }
    }
  }
  return scanned;
}

bool PhysicalPlan::FullGrid() const {
  for (const ScanPlan& scan : scans) {
    for (const SegmentSlice& slice : scan.slices) {
      for (int rung : slice.tile_quality) {
        if (rung < 0) return false;
      }
    }
  }
  return true;
}

int PhysicalPlan::TotalCells() const {
  int total = 0;
  for (const ScanPlan& scan : scans) {
    total += scan.metadata.segment_count() * scan.metadata.tile_count();
  }
  return total;
}

namespace {

std::string Percent(int part, int whole) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%",
                whole > 0 ? 100.0 * part / whole : 0.0);
  return buffer;
}

Counter* ViewHitCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("query.view_hits");
  return counter;
}

/// Operand volumes of a set of slices, from catalog statistics: stored
/// bytes and count of the cells they scan, and the pixels they output.
struct Volumes {
  uint64_t bytes = 0;
  int cells = 0;
  uint64_t pixels = 0;

  std::string Describe() const {
    return std::to_string(cells) + " cells, " + std::to_string(bytes) +
           "B stored";
  }
};

/// Volumes of the plan's slices whose `stitch` flag equals `stitched`.
Volumes SliceVolumes(const PhysicalPlan& plan, bool stitched) {
  Volumes v;
  for (const ScanPlan& scan : plan.scans) {
    const VideoMetadata& m = scan.metadata;
    for (const SegmentSlice& slice : scan.slices) {
      if (slice.stitch != stitched) continue;
      for (size_t tile = 0; tile < slice.tile_quality.size(); ++tile) {
        int rung = slice.tile_quality[tile];
        if (rung < 0) continue;
        v.bytes +=
            m.cells[m.CellIndex(slice.segment, static_cast<int>(tile), rung)]
                .byte_size;
        ++v.cells;
      }
      v.pixels += static_cast<uint64_t>(m.width) * m.height *
                  static_cast<uint64_t>(slice.last_frame - slice.first_frame +
                                        1);
    }
  }
  return v;
}

/// Predicates accumulated walking a chain top-down toward its Scan leaf.
struct ChainState {
  std::vector<const LogicalNode*> times;
  std::vector<const LogicalNode*> views;
  std::vector<const LogicalNode*> floors;
  std::vector<const LogicalNode*> degrades;

  bool empty() const {
    return times.empty() && views.empty() && floors.empty() &&
           degrades.empty();
  }
};

class Planner {
 public:
  Planner(StorageManager* storage, const OptimizeOptions& options)
      : storage_(storage), options_(options) {}

  Result<PhysicalPlan> Plan(const Query& query) {
    const LogicalNode* node = query.root().get();
    if (node == nullptr) return Status::InvalidArgument("empty query");

    // Peel the sink layers: [Subscribe] -> [Store|ToFile] -> [Encode] ->
    // predicates -> Scan/Union. Anything else at these positions is a
    // malformed chain.
    if (node->kind == LogicalOpKind::kSubscribe) {
      if (node->target.empty()) {
        return Status::InvalidArgument("subscribe needs a name");
      }
      plan_.standing_name = node->target;
      node = node->inputs[0].get();
    }
    if (node->kind == LogicalOpKind::kStore ||
        node->kind == LogicalOpKind::kToFile) {
      plan_.sink = node->kind == LogicalOpKind::kStore ? SinkKind::kStore
                                                       : SinkKind::kToFile;
      plan_.target = node->target;
      node = node->inputs[0].get();
      if (node->kind != LogicalOpKind::kEncode) {
        return Status::InvalidArgument(
            std::string(SinkKindName(plan_.sink)) +
            " sink requires an encoded input; add encode before it");
      }
    }
    if (node->kind == LogicalOpKind::kEncode) {
      if (plan_.sink == SinkKind::kMaterialize) plan_.sink = SinkKind::kEncode;
      plan_.encode_qp = node->encode_qp;
      node = node->inputs[0].get();
    }

    VC_RETURN_IF_ERROR(Walk(*node, ChainState{}));

    if (options_.scan_override != nullptr && plan_.scans.size() != 1) {
      return Status::InvalidArgument(
          "scan_override requires a single-scan plan");
    }
    ApplyTranscodeElision();
    ChooseAlternative();
    return std::move(plan_);
  }

 private:
  Status Walk(const LogicalNode& node, ChainState state) {
    switch (node.kind) {
      case LogicalOpKind::kScan:
        return BindScan(node, state);
      case LogicalOpKind::kUnion: {
        if (!state.empty()) {
          Log("push-predicates-into-union: outer predicates distributed to " +
              std::to_string(node.inputs.size()) + " branches");
        }
        for (const LogicalNodeRef& branch : node.inputs) {
          VC_RETURN_IF_ERROR(Walk(*branch, state));
        }
        return Status::OK();
      }
      case LogicalOpKind::kTimeSlice:
        state.times.push_back(&node);
        return Walk(*node.inputs[0], std::move(state));
      case LogicalOpKind::kViewport:
        state.views.push_back(&node);
        return Walk(*node.inputs[0], std::move(state));
      case LogicalOpKind::kQualityFloor:
        state.floors.push_back(&node);
        return Walk(*node.inputs[0], std::move(state));
      case LogicalOpKind::kDegrade:
        state.degrades.push_back(&node);
        return Walk(*node.inputs[0], std::move(state));
      case LogicalOpKind::kEncode:
      case LogicalOpKind::kStore:
      case LogicalOpKind::kToFile:
      case LogicalOpKind::kSubscribe:
        return Status::InvalidArgument(
            std::string(LogicalOpName(node.kind)) +
            " must be the outermost operators of a query");
    }
    return Status::InvalidArgument("unknown logical operator");
  }

  /// Resolves a rung reference against `ladder`.
  Result<int> ResolveRung(const LogicalNode& node,
                          const QualityLadder& ladder) {
    if (node.quality >= 0) {
      if (node.quality >= static_cast<int>(ladder.size())) {
        return Status::InvalidArgument(
            "quality rung " + std::to_string(node.quality) +
            " out of range (ladder has " + std::to_string(ladder.size()) +
            " rungs)");
      }
      return node.quality;
    }
    for (size_t i = 0; i < ladder.size(); ++i) {
      if (ladder[i].name == node.quality_name) return static_cast<int>(i);
    }
    return Status::NotFound("quality rung '" + node.quality_name +
                            "' not in ladder");
  }

  Status BindScan(const LogicalNode& scan, const ChainState& state) {
    ScanPlan out;
    if (options_.scan_override != nullptr) {
      out.metadata = *options_.scan_override;
      Log("scan " + out.metadata.name + ": pinned to caller-provided v" +
          std::to_string(out.metadata.version));
    } else {
      VC_ASSIGN_OR_RETURN(out.metadata, storage_->GetVideo(scan.video));
    }
    const VideoMetadata& metadata = out.metadata;
    const int tile_count = metadata.tile_count();
    const TileGrid grid = metadata.tile_grid();

    // --- Rule: fuse adjacent time predicates, then prune to a segment
    // range against the catalog's segment index.
    int total_frames = 0;
    if (!metadata.segments.empty()) {
      total_frames = static_cast<int>(metadata.segments.back().start_frame +
                                      metadata.segments.back().frame_count);
    }
    int first = 0;
    int last = total_frames - 1;
    if (state.times.size() > 1) {
      Log("fuse-timeslice: " + std::to_string(state.times.size()) +
          " time predicates intersected");
    }
    for (const LogicalNode* t : state.times) {
      int f0, f1;
      if (t->first_frame >= 0) {
        if (t->last_frame < t->first_frame) {
          return Status::InvalidArgument("empty frame slice");
        }
        f0 = t->first_frame;
        f1 = t->last_frame;
      } else {
        if (t->t1 <= t->t0) {
          return Status::InvalidArgument("empty timeslice: t1 <= t0");
        }
        // Frame k covers [k/fps, (k+1)/fps): the slice [t0, t1) keeps the
        // first frame starting at or after t0 through the last frame
        // starting strictly before t1.
        f0 = static_cast<int>(std::ceil(t->t0 * metadata.fps() - 1e-9));
        f1 = static_cast<int>(std::ceil(t->t1 * metadata.fps() - 1e-9)) - 1;
      }
      first = std::max(first, f0);
      last = std::min(last, f1);
    }

    int seg0 = 0;
    int seg1 = metadata.segment_count() - 1;
    if (!state.times.empty()) {
      seg0 = metadata.segment_count();
      seg1 = -1;
      for (int s = 0; s < metadata.segment_count(); ++s) {
        const SegmentInfo& info = metadata.segments[s];
        int s_first = static_cast<int>(info.start_frame);
        int s_last = s_first + static_cast<int>(info.frame_count) - 1;
        if (s_last >= first && s_first <= last) {
          seg0 = std::min(seg0, s);
          seg1 = std::max(seg1, s);
        }
      }
      Log("timeslice->segments: frames [" + std::to_string(first) + "," +
          std::to_string(last) + "] -> segments [" + std::to_string(seg0) +
          "," + std::to_string(seg1) + "] of " +
          std::to_string(metadata.segment_count()));
    }

    // --- Rule: fuse adjacent viewport predicates, then prune to the
    // equirectangular tile set the fused viewport intersects.
    std::set<int> in_view;
    bool has_view = !state.views.empty();
    if (state.views.size() > 1) {
      Log("fuse-viewport: " + std::to_string(state.views.size()) +
          " viewport predicates intersected");
    }
    for (size_t i = 0; i < state.views.size(); ++i) {
      const LogicalNode* v = state.views[i];
      std::set<int> tiles;
      for (const TileId& tile :
           grid.TilesInViewport(v->center, v->fov_yaw, v->fov_pitch)) {
        tiles.insert(grid.IndexOf(tile));
      }
      if (i == 0) {
        in_view = std::move(tiles);
      } else {
        std::set<int> merged;
        std::set_intersection(in_view.begin(), in_view.end(), tiles.begin(),
                              tiles.end(),
                              std::inserter(merged, merged.begin()));
        in_view = std::move(merged);
      }
    }
    if (!has_view) {
      for (int t = 0; t < tile_count; ++t) in_view.insert(t);
    } else {
      Log("viewport->tiles: kept " + std::to_string(in_view.size()) + " of " +
          std::to_string(tile_count) + " tiles");
    }

    // --- Rule: push quality selection down to a stored ladder rung.
    int floor_rung = 0;
    for (const LogicalNode* f : state.floors) {
      int rung;
      VC_ASSIGN_OR_RETURN(rung, ResolveRung(*f, metadata.ladder));
      floor_rung = std::max(floor_rung, rung);
    }
    if (!state.floors.empty()) {
      Log("quality-pushdown: serve stored rung " +
          std::to_string(floor_rung) + " ('" +
          metadata.ladder[floor_rung].name + "')");
    }

    // --- Rule: out-of-view tiles are kept at the degrade rung instead of
    // pruned when one was requested.
    int degrade_rung = -1;
    if (!state.degrades.empty()) {
      VC_ASSIGN_OR_RETURN(degrade_rung,
                          ResolveRung(*state.degrades.back(), metadata.ladder));
      if (has_view) {
        Log("degrade-out-of-view: out-of-view tiles kept at rung " +
            std::to_string(degrade_rung) + " ('" +
            metadata.ladder[degrade_rung].name + "')");
      }
    }

    for (int s = seg0; s <= seg1; ++s) {
      const SegmentInfo& info = metadata.segments[s];
      SegmentSlice slice;
      slice.segment = s;
      slice.first_frame =
          std::max(first, static_cast<int>(info.start_frame));
      slice.last_frame = std::min(
          last, static_cast<int>(info.start_frame + info.frame_count) - 1);
      slice.tile_quality.assign(tile_count, -1);
      for (int t = 0; t < tile_count; ++t) {
        if (in_view.count(t)) {
          slice.tile_quality[t] = floor_rung;
        } else if (degrade_rung >= 0) {
          slice.tile_quality[t] = degrade_rung;
        }
      }
      out.slices.push_back(std::move(slice));
    }
    plan_.scans.push_back(std::move(out));
    return Status::OK();
  }

  /// Decides, per slice, whether an encode sink stitches stored cells or
  /// re-encodes: a whole segment over the full tile grid stitches, a
  /// partial segment at either end of a window is re-encoded alone at the
  /// plan's quantizer (a smart cut). An explicit quantizer re-encodes all.
  void ApplyTranscodeElision() {
    if (plan_.sink == SinkKind::kMaterialize || plan_.scans.empty()) return;
    if (plan_.encode_qp >= 0) {
      plan_.qp_explicit = true;
      Log("encode: explicit qp=" + std::to_string(plan_.encode_qp) +
          " forces a transcode");
      return;
    }
    // All stitched streams must agree on geometry and cadence.
    const VideoMetadata& m0 = plan_.scans[0].metadata;
    bool geometry_agrees = true;
    for (const ScanPlan& scan : plan_.scans) {
      geometry_agrees = geometry_agrees && scan.metadata.width == m0.width &&
                        scan.metadata.height == m0.height &&
                        scan.metadata.fps_times_100 == m0.fps_times_100 &&
                        scan.metadata.tile_rows == m0.tile_rows &&
                        scan.metadata.tile_cols == m0.tile_cols;
    }
    int slices = 0, stitched = 0;
    std::set<int> rungs;
    for (ScanPlan& scan : plan_.scans) {
      for (SegmentSlice& slice : scan.slices) {
        bool full_grid = true;
        for (int rung : slice.tile_quality) {
          if (rung < 0) {
            full_grid = false;
            continue;
          }
          rungs.insert(rung);
        }
        slice.stitch = geometry_agrees && full_grid &&
                       slice.WholeSegment(scan.metadata);
        ++slices;
        stitched += slice.stitch ? 1 : 0;
      }
    }
    if (slices > 0 && stitched == slices) {
      plan_.transcode_free = true;
      std::string at = "rung " + std::to_string(*rungs.begin());
      if (rungs.size() > 1) {
        at = "rungs";
        for (int rung : rungs) {
          at += (rung == *rungs.begin() ? " " : ",") + std::to_string(rung);
        }
        at += " (per-tile QP frames)";
      }
      Log("transcode-elision: full grid of whole segments at " + at +
          " -> stitch stored bitstreams, no transcode");
      return;
    }
    // Some slice re-encodes; fix its quantizer now so the plan alone
    // determines the output bytes. Use the best rung the plan serves.
    if (rungs.empty()) return;
    const int best_rung = *rungs.begin();
    plan_.encode_qp = m0.ladder[best_rung].qp;
    if (stitched > 0) {
      Log("smart-cut: stitch " + std::to_string(stitched) +
          " whole segments, re-encode " + std::to_string(slices - stitched) +
          " partial segments at qp=" + std::to_string(plan_.encode_qp) +
          " (rung " + std::to_string(best_rung) + ")");
    } else {
      Log("encode: partial plan, transcode at qp=" +
          std::to_string(plan_.encode_qp) + " (rung " +
          std::to_string(best_rung) + ")");
    }
  }

  /// A view-scan alternative plus everything needed to apply its rewrite.
  struct ViewRewrite {
    size_t alternative = 0;  ///< Index into plan_.alternatives.
    VideoMetadata metadata;  ///< The view video's catalog metadata.
    std::vector<int> view_segments;  ///< View segment per plan slice.
    std::string name;
    uint32_t source_version = 0;
  };

  /// Cost-based physical strategy selection for encode sinks. Enumerates
  /// the byte-equivalent alternatives (the elision decision's winner, any
  /// subsuming fresh views), lists the displaced strategy as infeasible,
  /// and rewrites the plan onto the cheapest feasible one. Never changes
  /// output bytes: every feasible alternative reproduces the baseline's
  /// stream exactly (view cells are the defining plan's stored output and
  /// MergeTileStreams(ExtractTileStream(x)) == x).
  void ChooseAlternative() {
    if (plan_.sink == SinkKind::kMaterialize) return;
    CostModel model_storage;
    const CostModel& model = options_.cost_model != nullptr
                                 ? *options_.cost_model
                                 : (model_storage = CostModel::Calibrated());
    const Volumes stitched = SliceVolumes(plan_, true);
    const Volumes decoded = SliceVolumes(plan_, false);
    Volumes all = stitched;
    all.bytes += decoded.bytes;
    all.cells += decoded.cells;
    all.pixels += decoded.pixels;
    PlanAlternative stitch;
    stitch.name = "stitch";
    stitch.cost_seconds = model.StitchCost(all.bytes, all.cells);
    PlanAlternative reencode;
    reencode.name = "re-encode";
    reencode.cost_seconds =
        model.TranscodeCost(all.bytes, all.cells, all.pixels);
    if (stitched.cells > 0) {
      // A smart cut also re-encodes its partial segments.
      stitch.cost_seconds =
          model.StitchCost(stitched.bytes, stitched.cells) +
          model.TranscodeCost(decoded.bytes, decoded.cells, decoded.pixels);
      stitch.detail = plan_.transcode_free
                          ? all.Describe()
                          : stitched.Describe() + " stitched + " +
                                decoded.Describe() + " re-encoded, " +
                                std::to_string(decoded.pixels) + "px out";
      reencode.feasible = false;
      reencode.detail =
          std::string("would change output bytes (re-quantizes ") +
          (plan_.transcode_free ? "elided plan)" : "stitched segments)");
      plan_.alternatives.push_back(std::move(stitch));
      plan_.alternatives.push_back(std::move(reencode));
    } else {
      reencode.detail =
          all.Describe() + ", " + std::to_string(all.pixels) + "px out";
      stitch.feasible = false;
      stitch.detail = "plan not stitchable (pruned tiles, only partial "
                      "segments, or explicit qp)";
      plan_.alternatives.push_back(std::move(reencode));
      plan_.alternatives.push_back(std::move(stitch));
    }

    std::vector<ViewRewrite> rewrites;
    const size_t first_view = plan_.alternatives.size();
    if ((plan_.sink == SinkKind::kEncode || plan_.sink == SinkKind::kToFile) &&
        options_.views != nullptr && plan_.scans.size() == 1) {
      for (const MaterializedViewInfo& view : *options_.views) {
        TryViewCandidate(view, model, &rewrites);
      }
    }

    // On equal estimated cost a view scan wins: its cells are the stored
    // result, while the direct plan still has to assemble it.
    size_t best = plan_.alternatives.size();
    for (size_t i = 0; i < plan_.alternatives.size(); ++i) {
      const PlanAlternative& alt = plan_.alternatives[i];
      if (!alt.feasible) continue;
      if (best == plan_.alternatives.size() ||
          alt.cost_seconds < plan_.alternatives[best].cost_seconds ||
          (alt.cost_seconds == plan_.alternatives[best].cost_seconds &&
           i >= first_view && best < first_view)) {
        best = i;
      }
    }
    if (best == plan_.alternatives.size()) return;
    plan_.alternatives[best].chosen = true;
    Log("cost-choice: " + plan_.alternatives[best].name + " est " +
        FormatCostMs(plan_.alternatives[best].cost_seconds) + " (cheapest of " +
        std::to_string(plan_.alternatives.size()) + " alternatives)");
    for (ViewRewrite& rewrite : rewrites) {
      if (rewrite.alternative != best) continue;
      ApplyViewRewrite(std::move(rewrite));
      break;
    }
  }

  /// Offers `view` as an alternative when it subsumes the current plan:
  /// same pinned source snapshot, the view's defining plan selects exactly
  /// the frames and per-tile rungs the incoming plan selects, the same
  /// transcode decision, and every needed segment is already maintained.
  void TryViewCandidate(const MaterializedViewInfo& view,
                        const CostModel& model,
                        std::vector<ViewRewrite>* rewrites) {
    const ScanPlan& scan = plan_.scans[0];
    if (scan.metadata.name != view.source) return;
    if (scan.metadata.version != view.source_version) return;

    // Re-derive the view's defining plan against the same pinned snapshot
    // the incoming plan bound to, so slice-by-slice comparison is exact.
    OptimizeOptions inner;
    inner.scan_override = &scan.metadata;
    static const CostModel kInnerModel;
    inner.cost_model = &kInnerModel;
    Result<PhysicalPlan> defining = Optimize(view.query, storage_, inner);
    if (!defining.ok()) return;
    if (defining->scans.size() != 1 || defining->sink != SinkKind::kStore) {
      return;
    }
    if (defining->encode_qp != plan_.encode_qp) return;

    // Map each incoming slice onto the defining plan's slice for the same
    // segment; both lists ascend by segment.
    const std::vector<SegmentSlice>& view_slices = defining->scans[0].slices;
    std::vector<int> mapped;
    size_t vi = 0;
    for (const SegmentSlice& wanted : scan.slices) {
      while (vi < view_slices.size() &&
             view_slices[vi].segment < wanted.segment) {
        ++vi;
      }
      if (vi >= view_slices.size() ||
          view_slices[vi].segment != wanted.segment) {
        return;
      }
      const SegmentSlice& have = view_slices[vi];
      if (have.first_frame != wanted.first_frame ||
          have.last_frame != wanted.last_frame ||
          have.tile_quality != wanted.tile_quality ||
          have.stitch != wanted.stitch) {
        return;
      }
      if (static_cast<int>(vi) >= view.segments) return;  // not maintained
      mapped.push_back(static_cast<int>(vi));
    }
    if (mapped.empty()) return;

    Result<VideoMetadata> stored = storage_->GetVideo(view.name);
    if (!stored.ok()) return;
    VideoMetadata view_meta = *std::move(stored);
    if (view_meta.quality_count() != 1) return;
    if (view_meta.width != scan.metadata.width ||
        view_meta.height != scan.metadata.height ||
        view_meta.fps_times_100 != scan.metadata.fps_times_100 ||
        view_meta.tile_rows != scan.metadata.tile_rows ||
        view_meta.tile_cols != scan.metadata.tile_cols) {
      return;
    }
    const int view_tiles = view_meta.tile_count();
    uint64_t view_bytes = 0;
    for (size_t i = 0; i < mapped.size(); ++i) {
      if (mapped[i] >= view_meta.segment_count()) return;
      const SegmentSlice& wanted = scan.slices[i];
      const SegmentInfo& info = view_meta.segments[mapped[i]];
      if (static_cast<int>(info.frame_count) !=
          wanted.last_frame - wanted.first_frame + 1) {
        return;
      }
      for (int t = 0; t < view_tiles; ++t) {
        view_bytes +=
            view_meta.cells[view_meta.CellIndex(mapped[i], t, 0)].byte_size;
      }
    }
    const int view_cells = static_cast<int>(mapped.size()) * view_tiles;

    PlanAlternative alt;
    alt.name = "view-scan(" + view.name + ")";
    alt.cost_seconds = model.StitchCost(view_bytes, view_cells);
    alt.detail = std::to_string(view_cells) + " cells, " +
                 std::to_string(view_bytes) + "B stored, source v" +
                 std::to_string(view.source_version);
    ViewRewrite rewrite;
    rewrite.alternative = plan_.alternatives.size();
    rewrite.metadata = std::move(view_meta);
    rewrite.view_segments = std::move(mapped);
    rewrite.name = view.name;
    rewrite.source_version = view.source_version;
    rewrites->push_back(std::move(rewrite));
    plan_.alternatives.push_back(std::move(alt));
  }

  /// Retargets the plan's single scan at the view video: whole view
  /// segments, full tile grid, the view's only rung — always stitchable.
  void ApplyViewRewrite(ViewRewrite rewrite) {
    ScanPlan& scan = plan_.scans[0];
    const std::string source = scan.metadata.name;
    const int view_tiles = rewrite.metadata.tile_count();
    std::vector<SegmentSlice> slices;
    slices.reserve(rewrite.view_segments.size());
    for (int segment : rewrite.view_segments) {
      const SegmentInfo& info = rewrite.metadata.segments[segment];
      SegmentSlice slice;
      slice.segment = segment;
      slice.first_frame = static_cast<int>(info.start_frame);
      slice.last_frame =
          static_cast<int>(info.start_frame + info.frame_count) - 1;
      slice.tile_quality.assign(view_tiles, 0);
      slice.stitch = true;
      slices.push_back(std::move(slice));
    }
    scan.metadata = std::move(rewrite.metadata);
    scan.slices = std::move(slices);
    plan_.transcode_free = true;
    plan_.encode_qp = -1;
    plan_.qp_explicit = false;
    plan_.view_served = rewrite.name;
    ViewHitCounter()->Add(1);
    Log("view-match: '" + rewrite.name + "' subsumes query over " + source +
        " v" + std::to_string(rewrite.source_version) + " -> stitch " +
        std::to_string(scan.slices.size()) + " stored view segments");
  }

  void Log(std::string line) { plan_.rewrites.push_back(std::move(line)); }

  StorageManager* storage_;
  OptimizeOptions options_;
  PhysicalPlan plan_;
};

}  // namespace

std::string PhysicalPlan::Explain() const {
  std::string out = "plan: sink=";
  out += SinkKindName(sink);
  if (!target.empty()) out += "(" + target + ")";
  if (sink != SinkKind::kMaterialize) {
    out += transcode_free
               ? " transcode=elided"
               : " transcode=qp" + std::to_string(encode_qp);
  }
  if (!view_served.empty()) out += " view=" + view_served;
  if (!standing_name.empty()) out += " standing=" + standing_name;
  out += "\n";
  for (const ScanPlan& scan : scans) {
    const VideoMetadata& m = scan.metadata;
    out += "scan " + m.name + " v" + std::to_string(m.version) + ": " +
           std::to_string(m.segment_count()) + " segments, " +
           std::to_string(static_cast<int>(m.tile_rows)) + "x" +
           std::to_string(static_cast<int>(m.tile_cols)) + " tiles, " +
           std::to_string(m.quality_count()) + " rungs\n";
    const size_t kMaxSlices = 12;
    for (size_t i = 0; i < scan.slices.size() && i < kMaxSlices; ++i) {
      const SegmentSlice& slice = scan.slices[i];
      out += "  s" + std::to_string(slice.segment) + " frames [" +
             std::to_string(slice.first_frame) + "," +
             std::to_string(slice.last_frame) + "] tiles";
      bool any = false;
      for (size_t t = 0; t < slice.tile_quality.size(); ++t) {
        if (slice.tile_quality[t] < 0) continue;
        out += any ? "," : " ";
        out += std::to_string(t) + "@" +
               std::to_string(slice.tile_quality[t]);
        any = true;
      }
      if (!any) out += " none";
      out += "\n";
    }
    if (scan.slices.size() > kMaxSlices) {
      out += "  ... (" + std::to_string(scan.slices.size() - kMaxSlices) +
             " more segments)\n";
    }
  }
  int scanned = ScannedCells();
  int total = TotalCells();
  out += "cells: scan " + std::to_string(scanned) + " of " +
         std::to_string(total) + " (pruned " +
         std::to_string(total - scanned) + " = " +
         Percent(total - scanned, total) + ")\n";
  if (!alternatives.empty()) {
    out += "alternatives:\n";
    for (const PlanAlternative& alt : alternatives) {
      out += "  - " + alt.name + ": est " + FormatCostMs(alt.cost_seconds) +
             " (" + alt.detail + ")";
      if (alt.chosen) {
        out += " [chosen]";
      } else if (!alt.feasible) {
        out += " [infeasible]";
      }
      out += "\n";
    }
  }
  out += "rewrites:\n";
  for (const std::string& line : rewrites) out += "  - " + line + "\n";
  return out;
}

Result<PhysicalPlan> Optimize(const Query& query, StorageManager* storage,
                              const OptimizeOptions& options) {
  return Planner(storage, options).Plan(query);
}

}  // namespace vc
