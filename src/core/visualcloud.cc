#include "core/visualcloud.h"

#include <thread>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/transform.h"
#include "core/reconstruct.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace vc {

Status IngestOptions::Validate() const {
  if (tile_rows < 1 || tile_rows > 255 || tile_cols < 1 || tile_cols > 255) {
    return Status::InvalidArgument("tile grid out of range");
  }
  if (frames_per_segment < 1 || frames_per_segment > 600) {
    return Status::InvalidArgument("frames_per_segment out of range [1, 600]");
  }
  if (fps <= 0 || fps > 600) {
    return Status::InvalidArgument("fps out of range");
  }
  if (ladder.empty() || ladder.size() > 16) {
    return Status::InvalidArgument("quality ladder must have 1-16 rungs");
  }
  for (const QualityLevel& level : ladder) {
    if (level.qp < 0 || level.qp > kMaxQp) {
      return Status::InvalidArgument("ladder QP out of range");
    }
  }
  return Status::OK();
}

EncoderOptions IngestOptions::MakeEncoderOptions(int width, int height,
                                                 int quality) const {
  EncoderOptions encoder;
  encoder.width = width;
  encoder.height = height;
  encoder.fps = fps;
  encoder.gop_length = frames_per_segment;
  encoder.qp = ladder[quality].qp;
  return encoder;
}

VisualCloud::VisualCloud(std::unique_ptr<StorageManager> storage,
                         int encode_threads)
    : storage_(std::move(storage)),
      encode_pool_(static_cast<size_t>(encode_threads)) {}

Result<std::unique_ptr<VisualCloud>> VisualCloud::Open(
    const VisualCloudOptions& options) {
  std::unique_ptr<StorageManager> storage;
  VC_ASSIGN_OR_RETURN(storage, StorageManager::Open(options.storage));
  int threads = options.encode_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  return std::unique_ptr<VisualCloud>(
      new VisualCloud(std::move(storage), threads));
}

namespace {

VideoMetadata MakeLayoutMetadata(const std::string& name, int width,
                                 int height, const IngestOptions& options) {
  VideoMetadata metadata;
  metadata.name = name;
  metadata.width = static_cast<uint16_t>(width);
  metadata.height = static_cast<uint16_t>(height);
  metadata.fps_times_100 =
      static_cast<uint16_t>(std::lround(options.fps * 100.0));
  metadata.frames_per_segment =
      static_cast<uint16_t>(options.frames_per_segment);
  metadata.tile_rows = static_cast<uint8_t>(options.tile_rows);
  metadata.tile_cols = static_cast<uint8_t>(options.tile_cols);
  metadata.ladder = options.ladder;
  return metadata;
}

Status CheckIngestFrames(const std::vector<Frame>& frames, int width,
                         int height) {
  if (frames.empty()) return Status::InvalidArgument("no frames to ingest");
  if (width % 16 != 0 || height % 16 != 0) {
    return Status::InvalidArgument(
        "ingest frames must have dimensions that are multiples of 16");
  }
  for (const Frame& frame : frames) {
    if (frame.width() != width || frame.height() != height) {
      return Status::InvalidArgument("ingest frames differ in size");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<uint8_t>>> VisualCloud::EncodeSegment(
    const std::vector<Frame>& segment_frames, const IngestOptions& options,
    int width, int height) {
  static Counter* segments_encoded =
      MetricRegistry::Global().GetCounter("ingest.segments");
  static Counter* cells_encoded =
      MetricRegistry::Global().GetCounter("ingest.cells");
  static Histogram* cell_seconds =
      MetricRegistry::Global().GetHistogram("ingest.cell_encode_seconds");

  TileGrid grid(options.tile_rows, options.tile_cols);
  const int tiles = grid.tile_count();
  const int qualities = static_cast<int>(options.ladder.size());

  // Crop each frame once per tile. A 1×1 grid covers the whole frame, so
  // the ingest frames are used in place instead of deep-copying every frame
  // into a single "tile".
  std::vector<std::vector<Frame>> cropped(tiles);
  std::vector<const std::vector<Frame>*> tile_frames(tiles);
  if (tiles == 1) {
    tile_frames[0] = &segment_frames;
  } else {
    for (int tile = 0; tile < tiles; ++tile) {
      TileGrid::PixelRect rect;
      VC_ASSIGN_OR_RETURN(
          rect, grid.PixelRectOf(grid.TileAt(tile), width, height, 16));
      cropped[tile].reserve(segment_frames.size());
      for (const Frame& frame : segment_frames) {
        Frame crop;
        VC_ASSIGN_OR_RETURN(
            crop, frame.Crop(rect.x, rect.y, rect.width, rect.height));
        cropped[tile].push_back(std::move(crop));
      }
      tile_frames[tile] = &cropped[tile];
    }
  }

  std::vector<std::vector<uint8_t>> cells(
      static_cast<size_t>(tiles) * qualities);
  std::vector<Status> statuses(cells.size());

  // Encodes one (tile, quality) cell, optionally capturing or reusing the
  // tile's motion analysis.
  auto encode_cell = [&](int tile, int quality, MotionHints* capture,
                         const MotionHints* reuse) {
    ScopedTimer timer(cell_seconds);
    size_t index = static_cast<size_t>(tile) * qualities + quality;
    const std::vector<Frame>& frames = *tile_frames[tile];
    EncoderOptions encoder_options = options.MakeEncoderOptions(
        frames[0].width(), frames[0].height(), quality);
    encoder_options.capture_hints = capture;
    encoder_options.reuse_hints = reuse;
    auto video = EncodeVideo(frames, encoder_options);
    if (!video.ok()) {
      statuses[index] = video.status();
      return;
    }
    cells[index] = video->Serialize();
    cells_encoded->Add(1);
  };

  const bool reuse = options.reuse_motion_analysis && qualities > 1;
  if (!reuse) {
    for (int tile = 0; tile < tiles; ++tile) {
      for (int quality = 0; quality < qualities; ++quality) {
        encode_pool_.Submit(
            [&encode_cell, tile, quality] { encode_cell(tile, quality, nullptr, nullptr); });
      }
    }
    encode_pool_.WaitIdle();
  } else {
    // Wave 1: the reference rung (ladder index 0, the highest quality and
    // thus the cleanest analysis) of every tile in parallel, each capturing
    // its per-block decisions.
    std::vector<MotionHints> hints(tiles);
    for (int tile = 0; tile < tiles; ++tile) {
      encode_pool_.Submit([&encode_cell, &hints, tile] {
        encode_cell(tile, /*quality=*/0, &hints[tile], nullptr);
      });
    }
    // WaitIdle is both the schedule barrier and the publication point: the
    // pool's mutex orders the wave-1 writes to hints before wave 2 reads.
    encode_pool_.WaitIdle();
    // Wave 2: every remaining rung in parallel, seeded from its tile's
    // hints.
    for (int tile = 0; tile < tiles; ++tile) {
      for (int quality = 1; quality < qualities; ++quality) {
        encode_pool_.Submit([&encode_cell, &hints, tile, quality] {
          encode_cell(tile, quality, nullptr, &hints[tile]);
        });
      }
    }
    encode_pool_.WaitIdle();
  }

  for (const Status& status : statuses) {
    VC_RETURN_IF_ERROR(status);
  }
  segments_encoded->Add(1);
  return cells;
}

Result<uint32_t> VisualCloud::Ingest(const std::string& name,
                                     const std::vector<Frame>& frames,
                                     const IngestOptions& options) {
  VC_RETURN_IF_ERROR(options.Validate());
  if (frames.empty()) return Status::InvalidArgument("no frames to ingest");
  const int width = frames[0].width();
  const int height = frames[0].height();
  VC_RETURN_IF_ERROR(CheckIngestFrames(frames, width, height));

  std::unique_ptr<LiveIngestSession> session;
  VC_ASSIGN_OR_RETURN(session,
                      StartLiveIngest(name, width, height, options));
  VC_RETURN_IF_ERROR(session->AppendFrames(frames));
  return session->Close();
}

Result<uint32_t> VisualCloud::IngestScene(const std::string& name,
                                          const SceneGenerator& scene,
                                          int frame_count,
                                          const IngestOptions& options) {
  VC_RETURN_IF_ERROR(options.Validate());
  if (frame_count <= 0) {
    return Status::InvalidArgument("frame_count must be positive");
  }
  const int width = scene.width();
  const int height = scene.height();
  if (width % 16 != 0 || height % 16 != 0) {
    return Status::InvalidArgument("scene dimensions must be multiples of 16");
  }

  std::unique_ptr<LiveIngestSession> session;
  VC_ASSIGN_OR_RETURN(session,
                      StartLiveIngest(name, width, height, options));
  // Generate one segment's worth at a time — the whole video never exists
  // in memory; each AppendFrames lands exactly on a segment boundary.
  for (int start = 0; start < frame_count;
       start += options.frames_per_segment) {
    int end = std::min(frame_count, start + options.frames_per_segment);
    std::vector<Frame> segment;
    segment.reserve(end - start);
    for (int i = start; i < end; ++i) segment.push_back(scene.FrameAt(i));
    VC_RETURN_IF_ERROR(session->AppendFrames(segment));
  }
  return session->Close();
}

Result<std::unique_ptr<LiveIngestSession>> VisualCloud::StartLiveIngest(
    const std::string& name, int width, int height,
    const LiveIngestOptions& options) {
  VC_RETURN_IF_ERROR(options.ingest.Validate());
  if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0) {
    return Status::InvalidArgument("live frame size must be multiples of 16");
  }
  std::unique_ptr<StorageManager::VideoWriter> writer;
  VC_ASSIGN_OR_RETURN(
      writer, storage_->NewVideoWriter(
                  MakeLayoutMetadata(name, width, height, options.ingest)));
  return std::unique_ptr<LiveIngestSession>(
      new LiveIngestSession(this, std::move(writer), options, width, height));
}

Result<std::unique_ptr<LiveIngestSession>> VisualCloud::StartLiveIngest(
    const std::string& name, int width, int height,
    const IngestOptions& options) {
  LiveIngestOptions live;
  live.ingest = options;
  return StartLiveIngest(name, width, height, live);
}

LiveIngestSession::LiveIngestSession(
    VisualCloud* db, std::unique_ptr<StorageManager::VideoWriter> writer,
    LiveIngestOptions options, int width, int height)
    : db_(db),
      writer_(std::move(writer)),
      options_(std::move(options)),
      width_(width),
      height_(height) {}

int LiveIngestSession::segments_written() const {
  return writer_->metadata().segment_count();
}

const VideoMetadata& LiveIngestSession::metadata() const {
  return writer_->metadata();
}

Status LiveIngestSession::FlushSegment() {
  if (pending_.empty()) return Status::OK();
  std::vector<std::vector<uint8_t>> cells;
  VC_ASSIGN_OR_RETURN(
      cells, db_->EncodeSegment(pending_, options_.ingest, width_, height_));
  VC_RETURN_IF_ERROR(
      writer_->AddSegment(static_cast<uint32_t>(pending_.size()), cells));
  pending_.clear();
  if (options_.publish_segments) {
    uint32_t version;
    VC_ASSIGN_OR_RETURN(version, writer_->CommitCheckpoint());
    last_published_ = version;
    db_->NotifyCommit(writer_->metadata().name, version, /*final=*/false);
  }
  return Status::OK();
}

Status LiveIngestSession::AppendFrame(const Frame& frame) {
  if (closed_) return Status::Aborted("live ingest already finished");
  if (frame.width() != width_ || frame.height() != height_) {
    return Status::InvalidArgument("live frame size mismatch");
  }
  pending_.push_back(frame);
  if (static_cast<int>(pending_.size()) >=
      options_.ingest.frames_per_segment) {
    return FlushSegment();
  }
  return Status::OK();
}

Status LiveIngestSession::AppendFrames(const std::vector<Frame>& frames) {
  for (const Frame& frame : frames) {
    VC_RETURN_IF_ERROR(AppendFrame(frame));
  }
  return Status::OK();
}

Status LiveIngestSession::FinishSegment() {
  if (closed_) return Status::Aborted("live ingest already finished");
  return FlushSegment();
}

Result<uint32_t> LiveIngestSession::Checkpoint() {
  if (closed_) return Status::Aborted("live ingest already finished");
  if (writer_->metadata().segment_count() == 0) {
    return Status::InvalidArgument("no full segment captured yet");
  }
  uint32_t version;
  VC_ASSIGN_OR_RETURN(version, writer_->CommitCheckpoint());
  last_published_ = version;
  db_->NotifyCommit(writer_->metadata().name, version, /*final=*/false);
  return version;
}

Result<uint32_t> LiveIngestSession::Close() {
  if (closed_) return Status::Aborted("live ingest already finished");
  VC_RETURN_IF_ERROR(FlushSegment());
  closed_ = true;
  const std::string name = writer_->metadata().name;
  uint32_t version;
  VC_ASSIGN_OR_RETURN(version, writer_->Commit());
  db_->NotifyCommit(name, version, /*final=*/true);
  return version;
}

Result<VideoMetadata> VisualCloud::Describe(const std::string& name) const {
  return storage_->GetVideo(name);
}

Result<std::vector<std::string>> VisualCloud::List() const {
  return storage_->ListVideos();
}

Status VisualCloud::Drop(const std::string& name) {
  return storage_->DropVideo(name);
}

void VisualCloud::AddObserver(CatalogObserver* observer) {
  if (observer == nullptr) return;
  std::lock_guard<std::mutex> lock(observers_mu_);
  observers_.push_back(observer);
}

void VisualCloud::RemoveObserver(CatalogObserver* observer) {
  std::lock_guard<std::mutex> lock(observers_mu_);
  for (size_t i = 0; i < observers_.size(); ++i) {
    if (observers_[i] == observer) {
      observers_.erase(observers_.begin() + i);
      return;
    }
  }
}

void VisualCloud::NotifyCommit(const std::string& name, uint32_t version,
                               bool final) {
  std::vector<CatalogObserver*> snapshot;
  {
    std::lock_guard<std::mutex> lock(observers_mu_);
    snapshot = observers_;
  }
  for (CatalogObserver* observer : snapshot) {
    observer->OnCommit(name, version, final);
  }
}

Result<std::vector<Frame>> VisualCloud::ReadFrames(const std::string& name,
                                                   int first, int last,
                                                   int quality) {
  VideoMetadata metadata;
  VC_ASSIGN_OR_RETURN(metadata, storage_->GetVideo(name));
  return ReconstructFrameRange(storage_.get(), metadata, first, last, quality);
}

}  // namespace vc
