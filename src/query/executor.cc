#include "query/executor.h"

#include <algorithm>
#include <utility>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/homomorphic.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace vc {

namespace {

Counter* ScannedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("query.cells_scanned");
  return counter;
}

Counter* PrunedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("query.cells_pruned");
  return counter;
}

Counter* TranscodeCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("query.transcodes");
  return counter;
}

Counter* TranscodeAvoidedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("query.transcodes_avoided");
  return counter;
}

Histogram* PlanHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("query.plan_seconds");
  return histogram;
}

Histogram* ExecHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("query.exec_seconds");
  return histogram;
}

// Cost-model calibration feeds (CostModel::Calibrated): observed per-cell
// stitch/decode time and per-pixel encode time.
Histogram* StitchPerCellHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("query.stitch_seconds_per_cell");
  return histogram;
}

Histogram* DecodePerCellHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("query.decode_seconds_per_cell");
  return histogram;
}

Histogram* EncodePerPixelHistogram() {
  static Histogram* histogram =
      MetricRegistry::Global().GetHistogram("query.encode_seconds_per_pixel");
  return histogram;
}

/// One fetched-and-parsed cell stream.
struct FetchedCell {
  int tile = 0;
  EncodedVideo video;
};

/// Issues async demand reads for `tiles` of one segment (issue first, wait
/// after, so the loads overlap on the storage I/O pool), then parses each
/// stream. `tiles` holds (tile, rung) pairs.
Result<std::vector<FetchedCell>> FetchCells(
    StorageManager* storage, const VideoMetadata& metadata, int segment,
    const std::vector<std::pair<int, int>>& tiles) {
  std::vector<LruCache::AsyncHandle> handles;
  handles.reserve(tiles.size());
  for (const auto& [tile, rung] : tiles) {
    LruCache::AsyncHandle handle;
    VC_ASSIGN_OR_RETURN(
        handle, storage->ReadCellAsync(metadata, segment, tile, rung));
    handles.push_back(std::move(handle));
  }
  std::vector<FetchedCell> out;
  out.reserve(tiles.size());
  for (size_t i = 0; i < tiles.size(); ++i) {
    LruCache::Value bytes;
    VC_ASSIGN_OR_RETURN(bytes, handles[i].Wait());
    FetchedCell cell;
    cell.tile = tiles[i].first;
    VC_ASSIGN_OR_RETURN(cell.video, EncodedVideo::Parse(Slice(*bytes)));
    const SegmentInfo& info = metadata.segments[segment];
    if (cell.video.frames.size() != info.frame_count) {
      return Status::Corruption("cell frame count mismatch");
    }
    out.push_back(std::move(cell));
  }
  return out;
}

/// Decodes `cell` and pastes frames [first, last] (global indices) into
/// `canvases` (canvases[0] is frame `first`). Frames before `first` are
/// decoded too — inter frames need their references — but decoding stops
/// at `last`: no frame references a later one.
Status DecodeInto(const FetchedCell& cell, const TileGrid& grid,
                  const VideoMetadata& metadata, int segment, int first,
                  int last, std::vector<Frame>* canvases) {
  std::unique_ptr<Decoder> decoder;
  VC_ASSIGN_OR_RETURN(decoder, Decoder::Create(cell.video.header));
  TileGrid::PixelRect rect;
  VC_ASSIGN_OR_RETURN(rect,
                      grid.PixelRectOf(grid.TileAt(cell.tile), metadata.width,
                                       metadata.height, 16));
  const int base = static_cast<int>(metadata.segments[segment].start_frame);
  const size_t end = std::min(
      cell.video.frames.size(),
      static_cast<size_t>(std::max(last - base + 1, 0)));
  for (size_t i = 0; i < end; ++i) {
    Frame tile_frame;
    VC_ASSIGN_OR_RETURN(tile_frame,
                        decoder->Decode(Slice(cell.video.frames[i].payload)));
    int global = base + static_cast<int>(i);
    if (global < first) continue;
    VC_RETURN_IF_ERROR(
        (*canvases)[global - first].Paste(tile_frame, rect.x, rect.y));
  }
  return Status::OK();
}

/// The rung the naive baseline reads pruned cells at: the best rung the
/// scan actually serves (the discarded pixels never reach the output, so
/// any deterministic choice preserves byte identity).
int NaiveRung(const ScanPlan& scan) {
  int best = -1;
  for (const SegmentSlice& slice : scan.slices) {
    for (int rung : slice.tile_quality) {
      if (rung >= 0 && (best < 0 || rung < best)) best = rung;
    }
  }
  return best < 0 ? 0 : best;
}

/// Homomorphic path for one slice: merges the fetched cells (tile order,
/// full grid) into one tiled piece — no decode, no re-encode.
Result<EncodedVideo> StitchCells(std::vector<FetchedCell> cells,
                                 const VideoMetadata& metadata) {
  std::vector<EncodedVideo> parts;
  parts.reserve(cells.size());
  for (FetchedCell& cell : cells) parts.push_back(std::move(cell.video));
  Stopwatch stitch_watch;
  EncodedVideo merged;
  VC_ASSIGN_OR_RETURN(merged,
                      MergeTileStreams(parts, metadata.tile_rows,
                                       metadata.tile_cols, metadata.width,
                                       metadata.height));
  StitchPerCellHistogram()->Observe(stitch_watch.ElapsedSeconds() /
                                    static_cast<double>(parts.size()));
  return merged;
}

/// Runs every scan slice: a stitched slice becomes one piece; any other
/// slice is decoded to frames, which an encode sink re-encodes into one
/// piece (each piece starts at a keyframe) and a materialize sink returns.
/// Pruned mode touches only surviving cells; naive mode also fetches every
/// catalog cell the plan pruned, decodes the pruned tiles of its decoded
/// slices, then discards their pixels — the output bytes are the same.
Status RunSlices(const PhysicalPlan& plan, StorageManager* storage, bool naive,
                 std::vector<EncodedVideo>* pieces, QueryResult* result) {
  const bool encode_sink = plan.sink != SinkKind::kMaterialize;
  EncoderOptions encode;
  if (encode_sink) {
    const VideoMetadata& lead = plan.scans[0].metadata;
    encode.width = lead.width;
    encode.height = lead.height;
    encode.fps = lead.fps();
    encode.gop_length = lead.frames_per_segment;
    encode.qp = plan.encode_qp >= 0 ? plan.encode_qp : lead.ladder[0].qp;
    encode.tile_rows = lead.tile_rows;
    encode.tile_cols = lead.tile_cols;
  }
  for (const ScanPlan& scan : plan.scans) {
    const VideoMetadata& metadata = scan.metadata;
    const TileGrid grid = metadata.tile_grid();
    const int fallback = NaiveRung(scan);
    size_t next_slice = 0;
    for (int segment = 0; segment < metadata.segment_count(); ++segment) {
      const SegmentSlice* slice = nullptr;
      if (next_slice < scan.slices.size() &&
          scan.slices[next_slice].segment == segment) {
        slice = &scan.slices[next_slice];
        ++next_slice;
      }
      if (!naive && slice == nullptr) continue;

      std::vector<std::pair<int, int>> tiles;
      for (int tile = 0; tile < metadata.tile_count(); ++tile) {
        int rung = slice != nullptr ? slice->tile_quality[tile] : -1;
        if (rung >= 0) {
          tiles.emplace_back(tile, rung);
        } else if (naive) {
          tiles.emplace_back(tile, fallback);
        }
      }
      if (tiles.empty() && slice == nullptr) continue;

      std::vector<FetchedCell> cells;
      VC_ASSIGN_OR_RETURN(cells,
                          FetchCells(storage, metadata, segment, tiles));
      result->cells_scanned += static_cast<int>(cells.size());
      if (slice == nullptr) continue;  // naive read of a pruned segment
      if (slice->stitch) {
        EncodedVideo piece;
        VC_ASSIGN_OR_RETURN(piece, StitchCells(std::move(cells), metadata));
        pieces->push_back(std::move(piece));
        ++result->transcodes_avoided;
        continue;
      }

      const int first = slice->first_frame;
      const int last = slice->last_frame;
      std::vector<Frame> canvases(last - first + 1,
                                  Frame(metadata.width, metadata.height));
      Stopwatch decode_watch;
      for (const FetchedCell& cell : cells) {
        VC_RETURN_IF_ERROR(DecodeInto(cell, grid, metadata, segment, first,
                                      last, &canvases));
      }
      if (!cells.empty()) {
        DecodePerCellHistogram()->Observe(decode_watch.ElapsedSeconds() /
                                          static_cast<double>(cells.size()));
      }
      if (naive) {
        // Filter-after-scan: out-of-plan tiles were decoded and pasted;
        // mask them back to the canvas fill so the output matches what the
        // pruned execution never painted.
        for (int tile = 0; tile < metadata.tile_count(); ++tile) {
          if (slice->tile_quality[tile] >= 0) continue;
          TileGrid::PixelRect rect;
          VC_ASSIGN_OR_RETURN(
              rect, grid.PixelRectOf(grid.TileAt(tile), metadata.width,
                                     metadata.height, 16));
          for (Frame& canvas : canvases) {
            canvas.FillRect(rect.x, rect.y, rect.width, rect.height, 16, 128,
                            128);
          }
        }
      }
      if (!encode_sink) {
        for (Frame& frame : canvases) {
          result->frames.push_back(std::move(frame));
        }
        continue;
      }
      Stopwatch encode_watch;
      EncodedVideo piece;
      VC_ASSIGN_OR_RETURN(piece, EncodeVideo(canvases, encode));
      EncodePerPixelHistogram()->Observe(
          encode_watch.ElapsedSeconds() /
          (static_cast<double>(encode.width) * encode.height *
           static_cast<double>(canvases.size())));
      pieces->push_back(std::move(piece));
      ++result->transcodes;
    }
  }
  return Status::OK();
}

/// Commits `pieces` (one encoded stream per segment) as catalog video
/// `name` at the single-rung ladder `ladder`, splitting each piece back
/// into per-tile cells homomorphically.
Result<uint32_t> StorePieces(StorageManager* storage, const std::string& name,
                             const VideoMetadata& source,
                             const QualityLadder& ladder,
                             const std::vector<EncodedVideo>& pieces) {
  std::unique_ptr<StorageManager::VideoWriter> writer;
  VC_ASSIGN_OR_RETURN(
      writer,
      storage->NewVideoWriter(DerivedVideoMetadata(name, source, ladder)));
  for (const EncodedVideo& piece : pieces) {
    std::vector<std::vector<uint8_t>> cells;
    VC_ASSIGN_OR_RETURN(
        cells, SplitPieceToCells(piece, source.tile_rows, source.tile_cols));
    VC_RETURN_IF_ERROR(writer->AddSegment(
        static_cast<uint32_t>(piece.frames.size()), cells));
  }
  return writer->Commit();
}

}  // namespace

VideoMetadata DerivedVideoMetadata(const std::string& name,
                                   const VideoMetadata& source,
                                   const QualityLadder& ladder) {
  VideoMetadata metadata;
  metadata.name = name;
  metadata.width = source.width;
  metadata.height = source.height;
  metadata.fps_times_100 = source.fps_times_100;
  metadata.frames_per_segment = source.frames_per_segment;
  metadata.tile_rows = source.tile_rows;
  metadata.tile_cols = source.tile_cols;
  metadata.spherical = source.spherical;
  metadata.ladder = ladder;
  return metadata;
}

QualityLadder StoreLadderFor(const PhysicalPlan& plan) {
  const VideoMetadata& lead = plan.scans[0].metadata;
  if (!plan.qp_explicit && plan.FullGrid()) {
    // Stitched segments keep their stored rungs and re-encoded partial
    // segments use the best of them, so the rungs the plan serves describe
    // every cell: one rung as itself, several as "high+low" at the best QP.
    std::vector<QualityLevel> served;
    for (const ScanPlan& scan : plan.scans) {
      for (const SegmentSlice& slice : scan.slices) {
        for (int rung : slice.tile_quality) {
          const QualityLevel& level = scan.metadata.ladder[rung];
          if (std::find(served.begin(), served.end(), level) == served.end()) {
            served.push_back(level);
          }
        }
      }
    }
    std::sort(served.begin(), served.end(),
              [](const QualityLevel& a, const QualityLevel& b) {
                return a.qp < b.qp;
              });
    if (served.size() == 1) return {served[0]};
    if (!served.empty()) {
      QualityLevel mixed = served[0];
      for (size_t i = 1; i < served.size(); ++i) {
        mixed.name += "+" + served[i].name;
      }
      return {mixed};
    }
  }
  int qp = plan.encode_qp >= 0 ? plan.encode_qp : lead.ladder[0].qp;
  std::string name = "q";
  name += std::to_string(qp);
  return {{std::move(name), qp}};
}

Result<std::vector<std::vector<uint8_t>>> SplitPieceToCells(
    const EncodedVideo& piece, int tile_rows, int tile_cols) {
  const TileGrid grid(tile_rows, tile_cols);
  std::vector<std::vector<uint8_t>> cells;
  cells.reserve(grid.tile_count());
  for (int tile = 0; tile < grid.tile_count(); ++tile) {
    EncodedVideo cell;
    VC_ASSIGN_OR_RETURN(cell, ExtractTileStream(piece, grid.TileAt(tile)));
    cells.push_back(cell.Serialize());
  }
  return cells;
}

Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                StorageManager* storage,
                                const ExecuteOptions& options) {
  Stopwatch watch;
  QueryResult result;
  if (plan.scans.empty()) {
    return Status::InvalidArgument("plan has no scans");
  }

  const bool encode_sink = plan.sink != SinkKind::kMaterialize;
  const VideoMetadata& lead = plan.scans[0].metadata;
  if (encode_sink) {
    for (const ScanPlan& scan : plan.scans) {
      if (scan.metadata.width != lead.width ||
          scan.metadata.height != lead.height ||
          scan.metadata.fps_times_100 != lead.fps_times_100 ||
          scan.metadata.tile_rows != lead.tile_rows ||
          scan.metadata.tile_cols != lead.tile_cols) {
        return Status::InvalidArgument(
            "union branches disagree on geometry; cannot encode");
      }
    }
  }

  std::vector<EncodedVideo> pieces;
  VC_RETURN_IF_ERROR(
      RunSlices(plan, storage, options.naive_full_scan, &pieces, &result));

  if (encode_sink) {
    if (pieces.empty()) {
      return Status::InvalidArgument(
          "query selects no cells; nothing to encode");
    }
    switch (plan.sink) {
      case SinkKind::kEncode:
      case SinkKind::kToFile: {
        VC_ASSIGN_OR_RETURN(result.encoded, ConcatenateStreams(pieces));
        result.has_encoded = true;
        if (plan.sink == SinkKind::kToFile) {
          std::vector<uint8_t> bytes = result.encoded.Serialize();
          VC_RETURN_IF_ERROR(
              storage->env()->WriteFile(plan.target, Slice(bytes)));
        }
        break;
      }
      case SinkKind::kStore: {
        VC_ASSIGN_OR_RETURN(result.stored_version,
                            StorePieces(storage, plan.target, lead,
                                        StoreLadderFor(plan), pieces));
        VC_ASSIGN_OR_RETURN(result.encoded, ConcatenateStreams(pieces));
        result.has_encoded = true;
        break;
      }
      case SinkKind::kMaterialize:
        break;
    }
  }

  if (!options.naive_full_scan) {
    result.cells_pruned = plan.TotalCells() - plan.ScannedCells();
  }
  ScannedCounter()->Add(static_cast<uint64_t>(result.cells_scanned));
  PrunedCounter()->Add(static_cast<uint64_t>(result.cells_pruned));
  TranscodeCounter()->Add(static_cast<uint64_t>(result.transcodes));
  TranscodeAvoidedCounter()->Add(
      static_cast<uint64_t>(result.transcodes_avoided));
  ExecHistogram()->Observe(watch.ElapsedSeconds());
  return result;
}

Result<QueryResult> ExecuteQuery(const Query& query, StorageManager* storage,
                                 const OptimizeOptions& optimize_options,
                                 const ExecuteOptions& execute_options) {
  Stopwatch watch;
  PhysicalPlan plan;
  VC_ASSIGN_OR_RETURN(plan, Optimize(query, storage, optimize_options));
  PlanHistogram()->Observe(watch.ElapsedSeconds());
  return ExecutePlan(plan, storage, execute_options);
}

}  // namespace vc
