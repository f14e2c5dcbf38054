#ifndef VC_CORE_VISUALCLOUD_H_
#define VC_CORE_VISUALCLOUD_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "codec/bitstream.h"
#include "codec/encoder.h"
#include "codec/quality.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "image/frame.h"
#include "image/scene.h"
#include "storage/storage_manager.h"

namespace vc {

/// Options for opening a VisualCloud instance.
struct VisualCloudOptions {
  StorageOptions storage;   ///< Where and how videos are persisted.
  int encode_threads = 0;   ///< Ingest parallelism; 0 = hardware concurrency.
};

/// Per-ingest configuration: the spatiotemporal partitioning and ladder.
struct IngestOptions {
  int tile_rows = 4;            ///< Spatial partitioning of the sphere.
  int tile_cols = 4;
  int frames_per_segment = 30;  ///< Temporal partition (≈ 1 s GOPs).
  double fps = 30.0;
  QualityLadder ladder = DefaultQualityLadder();
  /// Multi-rate analysis reuse: encode the ladder's first rung per
  /// (segment, tile) cell first, capture its per-block motion vectors and
  /// mode decisions, and seed the remaining rungs from them — a short
  /// refine instead of a full diamond search per block. Ingest analysis
  /// cost becomes near-O(1) in ladder depth at a ≤0.1 dB PSNR cost; the
  /// produced streams are ordinary valid streams. Disable to force every
  /// rung through the full search (e.g. for A/B benchmarking).
  bool reuse_motion_analysis = true;

  Status Validate() const;

  /// The codec-level options one ladder rung of one cell encodes with —
  /// the single source of truth for the IngestOptions → EncoderOptions
  /// mapping (hint capture/reuse wiring stays with the caller).
  EncoderOptions MakeEncoderOptions(int width, int height, int quality) const;
};

/// Configuration of a live ingest session beyond the layout itself.
struct LiveIngestOptions {
  IngestOptions ingest;
  /// Publish every completed segment immediately as a streaming checkpoint
  /// version (CommitCheckpoint): the append-only catalog grows while
  /// capture continues and viewers can join at the live edge. When false —
  /// the default, and what the offline `Ingest*` wrappers use — nothing is
  /// visible to readers until an explicit Checkpoint() or Close().
  bool publish_segments = false;
};

class VisualCloud;

/// \brief Subscriber to catalog commits: the hook standing queries and
/// materialized-view maintenance build on (see view/maintainer.h).
///
/// `OnCommit` fires synchronously on the committing thread immediately
/// after a version of `name` becomes visible to readers — once per
/// streaming checkpoint publish (per segment with `publish_segments`, or
/// per explicit `Checkpoint()`) and once for the final archived commit of
/// `Close()`. Because live publishes happen inside the server's
/// deterministic (time, seq) event scheduler, work done here inherits that
/// ordering: per-segment results are byte-identical across reruns, node
/// counts, and prefetch modes. Observers must not re-enter the session
/// that notified them.
class CatalogObserver {
 public:
  virtual ~CatalogObserver() = default;
  /// `final` is true for the archived (Close) commit of the video.
  virtual void OnCommit(const std::string& name, uint32_t version,
                        bool final) = 0;
};

/// \brief A live (streaming) ingest session — the primitive every ingest
/// path is built on.
///
/// Append frames as a camera rig produces them; every time a segment's
/// worth has accumulated it is encoded (full quality ladder, multi-rate
/// hint reuse) and written. With `publish_segments` set each finished
/// segment is also committed as a streaming checkpoint version, so the
/// catalog grows append-only under live viewers; otherwise `Checkpoint()`
/// publishes on demand. `Close()` encodes any buffered partial segment and
/// commits the final archived version. The offline `VisualCloud::Ingest*`
/// entry points are thin byte-identical wrappers over this class.
class LiveIngestSession {
 public:
  /// Buffers one frame; encodes (and, with publish_segments, publishes)
  /// when a segment fills.
  Status AppendFrame(const Frame& frame);

  /// Appends frames in order; equivalent to AppendFrame per frame.
  Status AppendFrames(const std::vector<Frame>& frames);

  /// Encodes and writes the buffered partial segment immediately instead
  /// of waiting for it to fill (e.g. an ad-break splice point). No-op when
  /// nothing is buffered.
  Status FinishSegment();

  /// Publishes the segments captured so far as a streaming checkpoint
  /// version; returns the version. At least one full segment must exist.
  /// (With publish_segments set this happens automatically per segment.)
  Result<uint32_t> Checkpoint();

  /// Encodes any buffered partial segment and commits the final archived
  /// version; returns it. The session must not be used afterwards.
  Result<uint32_t> Close();

  /// Segments fully encoded and written so far.
  int segments_written() const;

  /// The metadata accumulated so far (pre-commit: version already set).
  const VideoMetadata& metadata() const;

  /// Version of the most recent checkpoint publish; 0 before any.
  uint32_t last_published_version() const { return last_published_; }

 private:
  friend class VisualCloud;
  LiveIngestSession(VisualCloud* db,
                    std::unique_ptr<StorageManager::VideoWriter> writer,
                    LiveIngestOptions options, int width, int height);

  /// Encodes and writes the buffered partial or full segment.
  Status FlushSegment();
  /// Encodes `frames` as the next segment, writes it and, with
  /// publish_segments, publishes it.
  Status WriteSegment(std::span<const Frame> frames);

  VisualCloud* db_;
  std::unique_ptr<StorageManager::VideoWriter> writer_;
  const LiveIngestOptions options_;
  const int width_;
  const int height_;
  /// Frames appended one at a time. Whole segments appended with nothing
  /// buffered encode straight from the caller's frames instead.
  std::vector<Frame> pending_;
  /// Each cell's size in the previous segment (tile-major), from which its
  /// writer reserves. The cells' bytes themselves are not kept.
  std::vector<size_t> cell_bytes_;
  uint32_t last_published_ = 0;
  bool closed_ = false;
};

/// \brief The VisualCloud server facade: a DBMS for VR video.
///
/// `Ingest` spatiotemporally partitions a 360° equirectangular video into
/// (segment × tile × quality) cells — each an independently decodable
/// encoded stream — and commits them as a new immutable version in the
/// storage manager. Reads and streaming sessions (see session.h) operate on
/// committed versions only.
class VisualCloud {
 public:
  static Result<std::unique_ptr<VisualCloud>> Open(
      const VisualCloudOptions& options);

  /// Ingests `frames` as a new version of video `name`. Returns the
  /// version. Thin wrapper over LiveIngestSession (append everything,
  /// Close) — byte-identical output, same segment chunking.
  Result<uint32_t> Ingest(const std::string& name,
                          const std::vector<Frame>& frames,
                          const IngestOptions& options);

  /// Ingests frames produced by `scene` without materializing the whole
  /// video: frames are generated and appended one segment at a time.
  Result<uint32_t> IngestScene(const std::string& name,
                               const SceneGenerator& scene, int frame_count,
                               const IngestOptions& options);

  /// Starts a live ingest session for `name` (see LiveIngestSession).
  Result<std::unique_ptr<LiveIngestSession>> StartLiveIngest(
      const std::string& name, int width, int height,
      const LiveIngestOptions& options);

  /// Convenience overload: plain layout options, explicit-checkpoint mode.
  Result<std::unique_ptr<LiveIngestSession>> StartLiveIngest(
      const std::string& name, int width, int height,
      const IngestOptions& options);

  /// Latest committed metadata for a video.
  Result<VideoMetadata> Describe(const std::string& name) const;

  /// Videos in the catalog.
  Result<std::vector<std::string>> List() const;

  /// Drops a video and all versions.
  Status Drop(const std::string& name);

  /// Registers `observer` for commit notifications from every ingest
  /// session of this instance (see CatalogObserver). Not owned; the
  /// observer must outlive its registration.
  void AddObserver(CatalogObserver* observer);
  void RemoveObserver(CatalogObserver* observer);

  /// Reconstructs full panorama frames [first, last] (inclusive) of the
  /// latest version, decoding every tile at ladder rung `quality`.
  Result<std::vector<Frame>> ReadFrames(const std::string& name, int first,
                                        int last, int quality = 0);

  StorageManager* storage() { return storage_.get(); }

 private:
  friend class LiveIngestSession;
  VisualCloud(std::unique_ptr<StorageManager> storage, int encode_threads);

  /// Invokes every registered observer, in registration order, on the
  /// calling thread.
  void NotifyCommit(const std::string& name, uint32_t version, bool final);

  /// Encodes one segment's frames into cell streams (tile-major ×
  /// quality-minor) on the long-lived pool, each cell straight from its
  /// tile of the frames into its container bytes. With analysis reuse
  /// enabled every tile's reference rung runs first, capturing the tile's
  /// motion hints, and the task that finishes it submits that tile's other
  /// rungs, seeded from those hints; tiles never wait for each other.
  /// `cell_bytes` holds each cell's size in the previous segment on entry
  /// and in this one on return.
  Result<std::vector<std::vector<uint8_t>>> EncodeSegment(
      std::span<const Frame> frames, const IngestOptions& options, int width,
      int height, std::vector<size_t>* cell_bytes);

  /// Lends a cell task an encoder Reset to `options`: one from the free
  /// list, with the buffers of its earlier cells, or a new one.
  Result<std::unique_ptr<Encoder>> BorrowEncoder(const EncoderOptions& options);
  /// Puts a borrowed encoder back on the free list.
  void ReturnEncoder(std::unique_ptr<Encoder> encoder);
  /// Lends a segment encode per-tile hint records whose row buffers earlier
  /// segments, of any session, filled; ReturnHints takes them back.
  std::vector<MotionHints> BorrowHints();
  void ReturnHints(std::vector<MotionHints> hints);

  std::unique_ptr<StorageManager> storage_;
  /// Commit observers, in registration order. Guarded by observers_mu_;
  /// notification happens outside the lock on a copied snapshot so an
  /// observer may remove itself (but not others) during a callback.
  mutable std::mutex observers_mu_;
  std::vector<CatalogObserver*> observers_;
  /// Encoders not lent out (at most one per pool worker) and hint records
  /// not lent out (one per segment encoding at once). Guarded by
  /// scratch_mu_. Hint rows are scratch within one segment, so sessions
  /// share them instead of each keeping its own.
  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<Encoder>> free_encoders_;
  std::vector<std::vector<MotionHints>> free_hints_;
  /// Long-lived encode pool: live ingest encodes a segment every second,
  /// and spinning up / joining a pool per segment costs more than encoding
  /// small segments. EncodeSegment and the cell tasks it starts are the
  /// only submitters; EncodeSegment drains the pool (WaitIdle) before
  /// returning. Declared last: its workers are joined before the encoders
  /// they borrow are freed.
  ThreadPool encode_pool_;
};

}  // namespace vc

#endif  // VC_CORE_VISUALCLOUD_H_
