#include "core/visualcloud.h"

#include <algorithm>
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

Result<std::unique_ptr<Encoder>> VisualCloud::BorrowEncoder(
    const EncoderOptions& options) {
  std::unique_ptr<Encoder> encoder;
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!free_encoders_.empty()) {
      encoder = std::move(free_encoders_.back());
      free_encoders_.pop_back();
    }
  }
  if (encoder == nullptr) return Encoder::Create(options);
  VC_RETURN_IF_ERROR(encoder->Reset(options));
  return encoder;
}

void VisualCloud::ReturnEncoder(std::unique_ptr<Encoder> encoder) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  free_encoders_.push_back(std::move(encoder));
}

std::vector<MotionHints> VisualCloud::BorrowHints() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (free_hints_.empty()) return {};
  std::vector<MotionHints> hints = std::move(free_hints_.back());
  free_hints_.pop_back();
  return hints;
}

void VisualCloud::ReturnHints(std::vector<MotionHints> hints) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  free_hints_.push_back(std::move(hints));
}

Result<std::vector<std::vector<uint8_t>>> VisualCloud::EncodeSegment(
    std::span<const Frame> frames, const IngestOptions& options, int width,
    int height, std::vector<size_t>* cell_bytes) {
  static Counter* segments_encoded =
      MetricRegistry::Global().GetCounter("ingest.segments");
  static Counter* cells_encoded =
      MetricRegistry::Global().GetCounter("ingest.cells");
  static Histogram* cell_seconds =
      MetricRegistry::Global().GetHistogram("ingest.cell_encode_seconds");

  TileGrid grid(options.tile_rows, options.tile_cols);
  const int tiles = grid.tile_count();
  const int qualities = static_cast<int>(options.ladder.size());
  std::vector<TileGrid::PixelRect> rects(tiles);
  for (int tile = 0; tile < tiles; ++tile) {
    VC_ASSIGN_OR_RETURN(
        rects[tile], grid.PixelRectOf(grid.TileAt(tile), width, height, 16));
  }
  const size_t cell_count = static_cast<size_t>(tiles) * qualities;
  cell_bytes->resize(cell_count);
  std::vector<MotionHints> hints = BorrowHints();
  hints.resize(tiles);

  // The segment's cells, shared by its tasks. Each task captures a pointer
  // and a cell index, which std::function holds without allocating.
  struct Cells {
    VisualCloud* db;
    std::span<const Frame> frames;
    const IngestOptions& options;
    const std::vector<TileGrid::PixelRect>& rects;
    std::vector<MotionHints>& hints;
    std::vector<size_t>& cell_bytes;
    int qualities;
    bool reuse;
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<Status> statuses;

    // Encodes cell `index` (tile-major × quality-minor). With reuse, rung 0
    // captures its tile's hints, the other rungs read them, and a rung 0
    // that succeeds submits its tile's other rungs.
    void Encode(int index) {
      ScopedTimer timer(cell_seconds);
      const int tile = index / qualities;
      const int quality = index % qualities;
      const TileGrid::PixelRect& rect = rects[tile];
      EncoderOptions encoder_options =
          options.MakeEncoderOptions(rect.width, rect.height, quality);
      if (reuse && quality == 0) {
        encoder_options.capture_hints = &hints[tile];
      } else if (reuse) {
        encoder_options.reuse_hints = &hints[tile];
      }
      auto encoder = db->BorrowEncoder(encoder_options);
      if (!encoder.ok()) {
        statuses[index] = encoder.status();
        return;
      }
      BitWriter writer(std::move(bytes[index]));
      Status status = (*encoder)->EncodeStream(frames, rect, &writer);
      db->ReturnEncoder(*std::move(encoder));
      if (!status.ok()) {
        statuses[index] = status;
        return;
      }
      bytes[index] = writer.Finish();
      cell_bytes[index] = bytes[index].size();
      cells_encoded->Add(1);
      if (reuse && quality == 0) {
        // The pool's mutex orders this task's hint writes before the
        // sibling rungs' reads.
        for (int next = index + 1; next < index + qualities; ++next) {
          db->encode_pool_.Submit([this, next] { Encode(next); });
        }
      }
    }
  };
  // Each cell's buffer, sized 1.25× the cell in the previous segment: one
  // allocation per cell unless the cell outgrows it. The calling thread
  // allocates them, so the transient cell bytes come from its malloc arena;
  // allocated on a worker, they shared an arena with the worker's
  // long-lived encoders and hint rows, which kept its freed space from
  // being trimmed and raised peak RSS.
  std::vector<std::vector<uint8_t>> bytes(cell_count);
  for (size_t i = 0; i < cell_count; ++i) {
    bytes[i].resize((*cell_bytes)[i] + (*cell_bytes)[i] / 4);
  }
  Cells cells{this,
              frames,
              options,
              rects,
              hints,
              *cell_bytes,
              qualities,
              options.reuse_motion_analysis && qualities > 1,
              std::move(bytes),
              std::vector<Status>(cell_count)};
  // Without reuse every cell starts at once; with it, each tile's reference
  // rung (ladder index 0, the highest quality and so the cleanest analysis)
  // starts its siblings.
  const int step = cells.reuse ? qualities : 1;
  for (int index = 0; index < static_cast<int>(cell_count); index += step) {
    encode_pool_.Submit([&cells, index] { cells.Encode(index); });
  }
  encode_pool_.WaitIdle();
  ReturnHints(std::move(hints));

  for (const Status& status : cells.statuses) {
    VC_RETURN_IF_ERROR(status);
  }
  segments_encoded->Add(1);
  return std::move(cells.bytes);
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
  VC_RETURN_IF_ERROR(WriteSegment(pending_));
  pending_.clear();
  return Status::OK();
}

Status LiveIngestSession::WriteSegment(std::span<const Frame> frames) {
  std::vector<std::vector<uint8_t>> cells;
  VC_ASSIGN_OR_RETURN(cells, db_->EncodeSegment(frames, options_.ingest,
                                                width_, height_, &cell_bytes_));
  VC_RETURN_IF_ERROR(
      writer_->AddSegment(static_cast<uint32_t>(frames.size()), cells));
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
  const size_t segment_frames =
      static_cast<size_t>(options_.ingest.frames_per_segment);
  size_t next = 0;
  while (next < frames.size()) {
    // A whole segment with nothing buffered encodes straight from the
    // caller's frames instead of being copied into pending_. Anything else,
    // a frame of the wrong size included, goes through AppendFrame.
    std::span<const Frame> run(frames.data() + next,
                               std::min(segment_frames, frames.size() - next));
    const bool whole_segment =
        !closed_ && pending_.empty() && run.size() == segment_frames &&
        std::all_of(run.begin(), run.end(), [this](const Frame& frame) {
          return frame.width() == width_ && frame.height() == height_;
        });
    if (whole_segment) {
      VC_RETURN_IF_ERROR(WriteSegment(run));
      next += segment_frames;
    } else {
      VC_RETURN_IF_ERROR(AppendFrame(frames[next++]));
    }
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
