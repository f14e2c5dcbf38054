#ifndef VC_CORE_SESSION_H_
#define VC_CORE_SESSION_H_

#include <memory>
#include <string>

#include "core/plan_cache.h"
#include "core/tile_assignment.h"
#include "geometry/viewport.h"
#include "image/scene.h"
#include "predict/head_trace.h"
#include "predict/popularity.h"
#include "predict/predictor.h"
#include "storage/cell_source.h"
#include "storage/prefetcher.h"
#include "storage/storage_manager.h"
#include "streaming/adaptation.h"
#include "streaming/network.h"
#include "streaming/qoe.h"

namespace vc {

class Counter;
class Histogram;

/// The streaming strategies compared in the evaluation.
enum class StreamingApproach {
  /// Every tile of every segment at the top ladder rung — the behaviour of
  /// serving the full panorama at full quality (YouTube-style baseline).
  kMonolithicFull,
  /// Classic DASH: one quality for all tiles, rate-adapted to throughput —
  /// view-agnostic adaptive streaming.
  kUniformDash,
  /// VisualCloud: predicted-viewport tiles high quality, rest low, with
  /// adaptive degradation under bandwidth pressure.
  kVisualCloud,
  /// VisualCloud with a perfect predictor (knows the future orientation) —
  /// the upper bound on what prediction can save.
  kOracle,
};

/// Stable display name ("monolithic", "uniform_dash", ...).
std::string ApproachName(StreamingApproach approach);

/// \brief What a session can know about a still-growing (live) stream.
///
/// Implemented by the server-side live feed (see server/live_feed.h). All
/// times are on the same simulated wall clock the session and server use.
/// The publish schedule is deterministic — PublishTimeOf is defined for
/// every segment the stream will ever have, published or not — so session
/// deadlines stay a pure function of the run's inputs.
class LiveAvailability {
 public:
  virtual ~LiveAvailability() = default;

  /// Segments published (fetchable) so far.
  virtual int published_segments() const = 0;

  /// Wall-clock time at which `segment` was (or will be) published.
  virtual double PublishTimeOf(int segment) const = 0;

  /// Total segments the stream will have once complete.
  virtual int final_segment_count() const = 0;

  /// Metadata of the newest published checkpoint: it only ever grows
  /// (segments/cells append; layout fields never change). Sessions refresh
  /// their own copy from this when they exhaust it at the live edge.
  virtual const VideoMetadata& snapshot() const = 0;
};

/// Configuration of one simulated client session.
struct SessionOptions {
  StreamingApproach approach = StreamingApproach::kVisualCloud;
  std::string predictor = "dead_reckoning";  ///< See MakePredictor().
  NetworkOptions network;
  ViewportSpec viewport;         ///< HMD FOV and render size.
  double viewport_margin = 0.2;  ///< Extra tile-selection margin (radians).
  int high_quality = 0;          ///< Ladder rung for in-view tiles.
  /// Client buffer target: a segment's download starts no earlier than
  /// this long before its playback deadline. Pacing is what makes the
  /// system react to bandwidth changes mid-session instead of having
  /// prefetched everything at t=0.
  double buffer_ahead_seconds = 1.0;
  /// When true (requires `reference`), decode what was delivered and
  /// measure in-viewport PSNR against the pristine source.
  bool evaluate_quality = false;

  /// Optional cell source (not owned). When set, every delivered cell is
  /// actually fetched through it (instead of only being accounted for in
  /// bytes). A server points it at the node's cache-backed source so
  /// concurrent viewers of the same video exercise — and benefit from —
  /// the shared buffer cache; a sharded store's per-node view makes the
  /// session's demand misses land in that node's L1/L2 tiers. Quality
  /// evaluation still decodes via the StorageManager.
  CellSource* cell_source = nullptr;

  /// Optional cross-user popularity model (not owned). When set and the
  /// approach is kVisualCloud, tiles covering kPopularTileCoverage of the
  /// historical gaze mass are also streamed at high quality — catching
  /// content-driven attention shifts individual motion prediction misses.
  const PopularityModel* popularity = nullptr;

  /// Optional shared plan cache (not owned; one per video). Sessions with
  /// identical planning inputs (segment, predicted orientation, approach,
  /// budget, popularity overlay) flyweight one TileQualityPlan instead of
  /// each re-running assignment + budget fitting. Exact memoization: served
  /// bytes and QoE are byte-identical with or without it. Only
  /// kVisualCloud and kUniformDash plans are cached (kOracle plans from
  /// the whole trace path; kMonolithicFull is already trivial).
  PlanCache* plan_cache = nullptr;

  /// Optional live popularity sink (not owned). Every orientation the
  /// session observes while playing is also recorded here, so concurrent
  /// viewers of the same video teach each other where to look. Distinct
  /// from `popularity` (the read side) — a server typically points both at
  /// the same shared model.
  PopularityModel* popularity_sink = nullptr;

  /// Optional live-stream availability (not owned; must outlive the
  /// session). When set the session joins at the live edge: playback
  /// starts at the newest published segment, NextDeadline() never precedes
  /// a segment's publish time (waiting at the edge surfaces as ordinary
  /// pacing, and a late publish as a stall), the session refreshes its
  /// metadata from `live->snapshot()` as the catalog grows, and it runs
  /// until the feed's final segment.
  const LiveAvailability* live = nullptr;

  Status Validate() const;
};

/// \brief One steppable simulated viewer session.
///
/// Decomposes the classic run-to-completion session loop into an
/// event-driven object so a server can interleave many viewers over shared
/// storage: `NextDeadline()` reports the wall-clock time at which the
/// session next wants to act (the pacing deadline of its upcoming
/// segment), and `Step(now)` advances the clock to `now` and streams
/// exactly one segment — plan, transfer (with fault retry), QoE
/// accounting. Driving a lone session with
/// `while (!done()) Step(NextDeadline())` reproduces the historical
/// `SimulateSession` free function byte-for-byte; that function survives
/// as a thin wrapper doing exactly this.
///
/// Not thread-safe; a server steps each session from its scheduler thread.
class ClientSession {
 public:
  /// Validates options and builds a session. The session borrows its
  /// inputs: `storage`, `metadata`, `trace` and `reference` (required only
  /// when `options.evaluate_quality` is set) must outlive it, and
  /// `metadata` and `trace` must not change while it runs — pass named
  /// objects, never temporaries. A live session (`options.live` set) is
  /// the one exception for `metadata`: it copies the feed's snapshot once
  /// and refreshes that copy as the stream grows, because the snapshot
  /// itself mutates.
  static Result<std::unique_ptr<ClientSession>> Create(
      StorageManager* storage, const VideoMetadata& metadata,
      const HeadTrace& trace, const SessionOptions& options,
      const SceneGenerator* reference = nullptr);

  ~ClientSession();

  /// Wall-clock seconds at which the next segment's download may start —
  /// the client pacing deadline (`buffer_ahead_seconds` before the
  /// segment's playback deadline). Before playback has started (or once
  /// done()) this is simply the current wall clock.
  double NextDeadline() const;

  /// Advances the wall clock to `now` (never backwards) and streams the
  /// next segment. Finalizes stats() after the last segment. It is an
  /// error to step a completed session.
  Status Step(double now);

  /// Forecast of the segment the next Step() will stream: its index and the
  /// per-tile rungs the session would plan for it now — PlanTiles on the
  /// predictor's current estimate, budget and popularity overlay. Step
  /// plans the same way after feeding the predictor the orientations seen
  /// since, so the two differ only where newer evidence (the viewer's gaze,
  /// or what a shared popularity model learned meanwhile) moves the
  /// prediction or the overlay. A pure read: it skips the plan cache and
  /// touches no predictor state or metric, so servers may consult it (or
  /// not) without changing the session's behaviour. Invalid once done().
  PrefetchHint NextPrefetchHint() const;

  bool done() const { return done_; }
  /// Session accounting; aggregate means are finalized once done().
  const SessionStats& stats() const { return stats_; }
  double wall_seconds() const { return wall_; }
  /// Index of the segment the next Step() will stream.
  int next_segment() const { return segment_; }
  int segment_count() const { return metadata_->segment_count(); }
  /// The segment playback started at: 0 offline, the live-edge join point
  /// for a session created against a LiveAvailability.
  int start_segment() const { return start_segment_; }
  const SessionOptions& options() const { return options_; }
  const VideoMetadata& metadata() const { return *metadata_; }

 private:
  ClientSession(StorageManager* storage, const VideoMetadata& metadata,
                const HeadTrace& trace, const SessionOptions& options,
                const SceneGenerator* reference, NetworkSimulator network,
                std::unique_ptr<Predictor> predictor);

  /// Pulls newly published segments from the live snapshot when the
  /// session has streamed everything it knows about. No-op offline.
  void RefreshLiveMetadata();

  /// Total segments this session will stream through (the feed's final
  /// count when live; the static count otherwise).
  int FinalSegmentCount() const;

  void Finalize();

  /// Viewer-local media seconds at which `segment` starts.
  double MediaStart(int segment) const;
  /// The viewer's playback position at the current wall clock: media
  /// advances in wall time once playback starts, minus accumulated stalls.
  double MediaNow() const;
  /// The gaze a plan for `segment` is built around: the predictor's
  /// estimate for the segment midpoint from the playback position (the
  /// trace itself for the oracle).
  Orientation PredictedGaze(int segment) const;
  /// Popularity-overlay tiles (grid indices) forced to the high rung for
  /// `segment`; empty unless the approach is kVisualCloud with a model.
  std::vector<int> PopularOverlay(int segment) const;
  /// Byte budget for the next segment from the throughput estimate.
  double BudgetBytes() const;

  /// The serving decision, and the only code that picks tile rungs: the
  /// per-tile rungs of `segment` for the session's approach, planned
  /// around `predicted` with the `popular` overlay and fitted to
  /// `budget_bytes`, plus how many tiles the fitting lowered. A pure
  /// function of its arguments and the session's options, metadata and
  /// trace.
  PlanCache::Entry PlanTiles(int segment, const Orientation& predicted,
                             double budget_bytes,
                             const std::vector<int>& popular) const;
  /// Step's route to PlanTiles: memoized through `options_.plan_cache`
  /// when one is wired in, and recorded in the downgrade metric (replayed
  /// on a cache hit, so observability is identical either way).
  TileQualityPlan PlanSegment(int segment, const Orientation& predicted);

  StorageManager* storage_;
  /// A live session's own copy of the feed's snapshot, which
  /// RefreshLiveMetadata replaces as segments publish; empty offline.
  VideoMetadata live_metadata_;
  /// The streamed video: the caller's metadata offline, `live_metadata_`
  /// live.
  const VideoMetadata* metadata_;
  const HeadTrace* trace_;  ///< Borrowed from the caller.
  SessionOptions options_;
  const SceneGenerator* reference_;
  NetworkSimulator network_;
  ThroughputEstimator estimator_;
  std::unique_ptr<Predictor> predictor_;

  double segment_seconds_;
  double fps_;
  double media_duration_;

  SessionStats stats_;
  int segment_ = 0;
  /// Live-edge join point; 0 offline. Media time is viewer-local: t=0 is
  /// this segment's start, so traces and predictors are join-relative.
  int start_segment_ = 0;
  /// Media seconds between stream start and the viewer's join point —
  /// what converts viewer-local media time back to stream media time
  /// (popularity observations, publish comparisons). 0 offline.
  double media_origin_ = 0.0;
  bool done_ = false;
  double wall_ = 0.0;
  double play_start_ = -1.0;
  double stall_total_ = 0.0;
  double last_fed_ = -1.0;
  /// HeadTrace::At cursor of the feedback loop, whose times only rise.
  size_t feed_cursor_ = 0;
  double psnr_sum_ = 0.0;
  double psnr_min_;
  double inview_quality_sum_ = 0.0;
  int inview_quality_count_ = 0;

  // Registry-owned metric handles (process lifetime).
  Counter* segments_streamed_;
  Counter* stall_events_;
  Histogram* stall_seconds_;
  Histogram* plan_seconds_;
  Counter* predict_hits_;
  Counter* predict_misses_;
  Counter* transfer_faults_;
  Counter* transfer_retries_;
  Counter* segments_skipped_;
};

/// Simulates one client streaming session of the stored video `metadata`
/// driven by head-movement `trace`, and returns its QoE accounting.
/// `reference` (the pristine scene) is required when
/// `options.evaluate_quality` is set and ignored otherwise. Thin wrapper
/// over ClientSession.
Result<SessionStats> SimulateSession(StorageManager* storage,
                                     const VideoMetadata& metadata,
                                     const HeadTrace& trace,
                                     const SessionOptions& options,
                                     const SceneGenerator* reference = nullptr);

}  // namespace vc

#endif  // VC_CORE_SESSION_H_
