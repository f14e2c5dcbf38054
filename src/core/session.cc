#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "image/metrics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "predict/predictor.h"
#include "streaming/adaptation.h"

namespace vc {

namespace {

/// Derating applied to the throughput estimate when budgeting a segment.
constexpr double kBudgetSafety = 0.85;
/// Frames per delivered segment whose in-viewport PSNR is measured when
/// `evaluate_quality` is set.
constexpr int kEvalFramesPerSegment = 2;
/// Seconds between the orientation reports fed to the predictor.
constexpr double kFeedDt = 1.0 / kOrientationFeedHz;

}  // namespace

std::string ApproachName(StreamingApproach approach) {
  switch (approach) {
    case StreamingApproach::kMonolithicFull:
      return "monolithic";
    case StreamingApproach::kUniformDash:
      return "uniform_dash";
    case StreamingApproach::kVisualCloud:
      return "visualcloud";
    case StreamingApproach::kOracle:
      return "oracle";
  }
  return "unknown";
}

Status SessionOptions::Validate() const {
  VC_RETURN_IF_ERROR(network.Validate());
  // Every range check is written !(lo <= x && x <= hi) so NaN fails it.
  if (!(0 < viewport.fov_yaw && viewport.fov_yaw < kPi) ||
      !(0 < viewport.fov_pitch && viewport.fov_pitch < kPi)) {
    return Status::InvalidArgument("viewport FOV must be in (0, pi)");
  }
  if (!(0 <= viewport_margin && viewport_margin <= kPi)) {
    return Status::InvalidArgument("viewport margin out of range");
  }
  if (high_quality < 0) {
    return Status::InvalidArgument("high_quality must be >= 0");
  }
  if (!(0 <= buffer_ahead_seconds && buffer_ahead_seconds <= 3600)) {
    return Status::InvalidArgument("buffer_ahead_seconds out of range");
  }
  return Status::OK();
}

namespace {

/// Tiles whose planned rung was lowered by budget fitting (a "quality
/// downgrade" in the viewport-adaptive-streaming sense).
int CountDowngrades(const TileQualityPlan& before,
                    const TileQualityPlan& after) {
  int downgrades = 0;
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    if (after[i] > before[i]) ++downgrades;
  }
  return downgrades;
}

Counter* DowngradeCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("session.quality_downgrades");
  return counter;
}

/// A computed plan plus its budget-fitting downgrade count (0 when fitting
/// did not run) — what the plan cache memoizes.
struct PlannedSegment {
  TileQualityPlan plan;
  int downgrades = 0;
};

/// Computes the segment's per-tile qualities for the chosen approach.
/// `popular` is the popularity overlay as grid indices (already resolved by
/// the caller so it can also key the plan cache); only kVisualCloud applies
/// it. Pure function of its arguments — the property the plan cache rests
/// on.
PlannedSegment ComputePlan(const VideoMetadata& metadata, int segment,
                           StreamingApproach approach,
                           const Orientation& predicted,
                           const SessionOptions& options, double budget_bytes,
                           const std::vector<int>& popular) {
  const int lowest = metadata.quality_count() - 1;
  switch (approach) {
    case StreamingApproach::kMonolithicFull: {
      return {TileQualityPlan(metadata.tile_count(),
                              Clamp(options.high_quality, 0, lowest)),
              0};
    }
    case StreamingApproach::kUniformDash: {
      std::vector<uint64_t> sizes(metadata.quality_count());
      for (int q = 0; q < metadata.quality_count(); ++q) {
        sizes[q] = metadata.SegmentBytesAtQuality(segment, q);
      }
      int quality = options.adaptive
                        ? PickQualityForBudget(sizes, budget_bytes)
                        : Clamp(options.high_quality, 0, lowest);
      return {TileQualityPlan(metadata.tile_count(), quality), 0};
    }
    case StreamingApproach::kVisualCloud:
    case StreamingApproach::kOracle: {
      AssignmentOptions assignment;
      assignment.fov_yaw = options.viewport.fov_yaw;
      assignment.fov_pitch = options.viewport.fov_pitch;
      // The oracle knows exactly where the viewer looks; no margin needed.
      assignment.margin =
          approach == StreamingApproach::kOracle ? 0.0 : options.viewport_margin;
      assignment.high_quality = options.high_quality;
      TileQualityPlan plan =
          AssignTileQualities(metadata, predicted, assignment);
      if (approach == StreamingApproach::kVisualCloud && !popular.empty()) {
        int high = Clamp(options.high_quality, 0, lowest);
        for (int index : popular) plan[index] = high;
      }
      int downgrades = 0;
      if (options.adaptive) {
        TileQualityPlan requested = plan;
        plan = FitPlanToBudget(metadata, segment, std::move(plan), predicted,
                               budget_bytes);
        downgrades = CountDowngrades(requested, plan);
      }
      return {std::move(plan), downgrades};
    }
  }
  return {TileQualityPlan(metadata.tile_count(), lowest), 0};
}

/// Plans the segment's per-tile qualities, memoizing through
/// `options.plan_cache` when one is wired in. The cached entry replays the
/// downgrade metric, so observability is identical on a hit.
TileQualityPlan PlanSegment(const VideoMetadata& metadata, int segment,
                            StreamingApproach approach,
                            const Orientation& predicted,
                            const SessionOptions& options,
                            double budget_bytes) {
  // The popularity overlay is resolved once, up front: it both keys the
  // cache (the overlay is a plan input that changes as the shared model
  // learns) and feeds the computation, so PopularTiles runs once per plan
  // either way.
  std::vector<int> popular;
  if (approach == StreamingApproach::kVisualCloud &&
      options.popularity != nullptr &&
      options.popularity->grid() == metadata.tile_grid()) {
    for (const TileId& tile :
         options.popularity->PopularTiles(segment, kPopularTileCoverage)) {
      popular.push_back(metadata.tile_grid().IndexOf(tile));
    }
  }

  const bool cacheable = options.plan_cache != nullptr &&
                         (approach == StreamingApproach::kVisualCloud ||
                          approach == StreamingApproach::kUniformDash);
  if (cacheable) {
    PlanKey key;
    key.segment = segment;
    key.approach = static_cast<int>(approach);
    key.adaptive = options.adaptive;
    key.high_quality = options.high_quality;
    if (approach == StreamingApproach::kVisualCloud) {
      // View-dependent inputs, exactly as used by the computation.
      key.fov_yaw = options.viewport.fov_yaw;
      key.fov_pitch = options.viewport.fov_pitch;
      key.margin = options.viewport_margin;
      key.yaw = predicted.yaw;
      key.pitch = predicted.pitch;
      key.popular = popular;
    }
    // kUniformDash is view-agnostic: zeroed orientation fields let every
    // session at the same budget tier share one entry per segment.
    key.budget_bytes = options.adaptive ? budget_bytes : 0.0;

    PlanCache::Entry entry;
    if (options.plan_cache->Lookup(key, &entry)) {
      DowngradeCounter()->Add(entry.downgrades);
      return entry.plan;
    }
    PlannedSegment planned = ComputePlan(metadata, segment, approach,
                                         predicted, options, budget_bytes,
                                         popular);
    DowngradeCounter()->Add(planned.downgrades);
    options.plan_cache->Insert(key, {planned.plan, planned.downgrades});
    return std::move(planned.plan);
  }

  PlannedSegment planned = ComputePlan(metadata, segment, approach, predicted,
                                       options, budget_bytes, popular);
  DowngradeCounter()->Add(planned.downgrades);
  return std::move(planned.plan);
}

}  // namespace

Result<std::unique_ptr<ClientSession>> ClientSession::Create(
    StorageManager* storage, const VideoMetadata& metadata,
    const HeadTrace& trace, const SessionOptions& options,
    const SceneGenerator* reference) {
  VC_RETURN_IF_ERROR(options.Validate());
  if (metadata.segment_count() == 0) {
    return Status::InvalidArgument("video has no segments");
  }
  if (trace.empty()) {
    return Status::InvalidArgument("head trace is empty");
  }
  if (options.evaluate_quality && reference == nullptr) {
    return Status::InvalidArgument(
        "evaluate_quality requires a reference scene");
  }
  if (options.high_quality >= metadata.quality_count()) {
    return Status::InvalidArgument("high_quality beyond ladder");
  }

  NetworkSimulator network = *NetworkSimulator::Create(options.network);
  std::unique_ptr<Predictor> predictor;
  VC_ASSIGN_OR_RETURN(predictor,
                      MakePredictor(options.predictor, metadata.tile_grid()));
  return std::unique_ptr<ClientSession>(
      new ClientSession(storage, metadata, trace, options, reference,
                        std::move(network), std::move(predictor)));
}

ClientSession::ClientSession(StorageManager* storage,
                             const VideoMetadata& metadata,
                             const HeadTrace& trace,
                             const SessionOptions& options,
                             const SceneGenerator* reference,
                             NetworkSimulator network,
                             std::unique_ptr<Predictor> predictor)
    : storage_(storage),
      metadata_(metadata),
      trace_(trace),
      options_(options),
      reference_(reference),
      network_(std::move(network)),
      estimator_(0.3, options.network.bandwidth_bps * 0.5),
      predictor_(std::move(predictor)),
      segment_seconds_(metadata_.segment_duration_seconds()),
      fps_(metadata_.fps()),
      media_duration_(metadata_.segments.back().start_frame / fps_ +
                      metadata_.segments.back().frame_count / fps_),
      psnr_min_(kInfinitePsnr) {
  if (options_.live != nullptr) {
    // Join at the live edge: the newest published segment. Media time is
    // viewer-local from here on — the trace's t=0 is the join point.
    start_segment_ = std::max(0, metadata_.segment_count() - 1);
    segment_ = start_segment_;
    media_origin_ = metadata_.segments[start_segment_].start_frame / fps_;
    media_duration_ -= media_origin_;
  }
  stats_.approach = ApproachName(options_.approach);
  stats_.segments = FinalSegmentCount() - start_segment_;
  stats_.duration_seconds = media_duration_;

  MetricRegistry& registry = MetricRegistry::Global();
  registry.GetCounter("session.sessions")->Add();
  segments_streamed_ = registry.GetCounter("session.segments");
  stall_events_ = registry.GetCounter("session.stall_events");
  stall_seconds_ = registry.GetHistogram("session.stall_seconds");
  plan_seconds_ = registry.GetHistogram("session.plan_seconds");
  predict_hits_ =
      registry.GetCounter("predict." + options_.predictor + ".viewport_hits");
  predict_misses_ =
      registry.GetCounter("predict." + options_.predictor + ".viewport_misses");
  transfer_faults_ = registry.GetCounter("session.transfer_faults");
  transfer_retries_ = registry.GetCounter("session.transfer_retries");
  segments_skipped_ = registry.GetCounter("session.segments_skipped");
}

ClientSession::~ClientSession() = default;

int ClientSession::FinalSegmentCount() const {
  return options_.live != nullptr ? options_.live->final_segment_count()
                                  : metadata_.segment_count();
}

void ClientSession::RefreshLiveMetadata() {
  if (options_.live == nullptr) return;
  if (segment_ < metadata_.segment_count()) return;
  const VideoMetadata& snapshot = options_.live->snapshot();
  if (snapshot.segment_count() <= metadata_.segment_count()) return;
  metadata_ = snapshot;
  media_duration_ = metadata_.segments.back().start_frame / fps_ +
                    metadata_.segments.back().frame_count / fps_ -
                    media_origin_;
  stats_.duration_seconds = media_duration_;
}

double ClientSession::NextDeadline() const {
  // Pacing: the next segment's download is held until it is within the
  // client's buffer target of its playback deadline.
  if (done_) return wall_;
  double deadline = wall_;
  if (play_start_ >= 0.0) {
    // The next segment's stream media start: from its SegmentInfo when
    // known, else from the uniform layout (start_frame is always
    // segment × frames_per_segment — only the final frame_count varies).
    double media_start =
        segment_ < metadata_.segment_count()
            ? metadata_.segments[segment_].start_frame / fps_
            : segment_ * segment_seconds_;
    double earliest = play_start_ + stall_total_ +
                      (media_start - media_origin_) -
                      options_.buffer_ahead_seconds;
    deadline = std::max(deadline, earliest);
  }
  // A live segment cannot be fetched before the ingest pipeline publishes
  // it: blocking at the live edge is just a later deadline.
  if (options_.live != nullptr && segment_ < FinalSegmentCount()) {
    deadline = std::max(deadline, options_.live->PublishTimeOf(segment_));
  }
  return deadline;
}

PrefetchHint ClientSession::NextPrefetchHint() const {
  PrefetchHint hint;
  if (done_) return hint;
  // At the live edge the next segment is not published yet: its cell files
  // do not exist, so there is nothing to warm — and speculatively touching
  // them would race the ingest pipeline. No hint until it lands.
  if (options_.live != nullptr && segment_ >= metadata_.segment_count()) {
    return hint;
  }

  // Mirror Step()'s prediction inputs without mutating anything: the same
  // playback position, the same lookahead to the segment midpoint. The
  // forecast is made with the orientations fed so far; by the time Step()
  // runs the predictor will have seen more — that gap is exactly the
  // uncertainty real prefetching lives with.
  const SegmentInfo& info = metadata_.segments[segment_];
  const double media_start = info.start_frame / fps_ - media_origin_;
  const double media_mid = media_start + info.frame_count / fps_ / 2.0;
  double media_now = 0.0;
  if (play_start_ >= 0.0) {
    media_now =
        Clamp(wall_ - play_start_ - stall_total_, 0.0, media_duration_);
  }

  hint.valid = true;
  hint.segment = segment_;
  if (options_.approach == StreamingApproach::kOracle) {
    hint.predicted = trace_.At(media_mid);
  } else {
    hint.predicted = predictor_->Predict(std::max(0.0, media_mid - media_now));
  }
  hint.fov_yaw = options_.viewport.fov_yaw;
  hint.fov_pitch = options_.viewport.fov_pitch;
  hint.margin = options_.viewport_margin;
  hint.high_quality = options_.high_quality;
  return hint;
}

Status ClientSession::Step(double now) {
  if (done_) return Status::Aborted("session already complete");
  if (now > wall_) wall_ = now;
  RefreshLiveMetadata();
  if (segment_ >= metadata_.segment_count()) {
    return Status::Aborted("segment not published yet");
  }

  const int segment = segment_;
  const SegmentInfo& info = metadata_.segments[segment];
  // Viewer-local media time (origin 0 offline, the join point live).
  const double media_start = info.start_frame / fps_ - media_origin_;
  const double media_mid = media_start + info.frame_count / fps_ / 2.0;

  // The viewer's current playback position: media advances in wall time
  // once playback starts, minus accumulated stalls.
  double media_now = 0.0;
  if (play_start_ >= 0.0) {
    media_now =
        Clamp(wall_ - play_start_ - stall_total_, 0.0, media_duration_);
  }

  // Feed the predictor (and any shared popularity model) every orientation
  // report up to "now".
  for (double t = (last_fed_ < 0 ? 0.0 : last_fed_ + kFeedDt);
       t <= media_now; t += kFeedDt) {
    Orientation seen = trace_.At(t, &feed_cursor_);
    predictor_->Observe(t, seen);
    if (options_.popularity_sink != nullptr) {
      // The shared model is indexed by stream media time, so mid-join
      // viewers teach (and learn) about the segments they actually watch.
      options_.popularity_sink->Observe(t + media_origin_, seen);
    }
    last_fed_ = t;
  }

  // Orientation the plan is built around.
  Orientation predicted;
  if (options_.approach == StreamingApproach::kOracle) {
    predicted = trace_.At(media_mid);
  } else {
    double lookahead = std::max(0.0, media_mid - media_now);
    predicted = predictor_->Predict(lookahead);
  }

  double budget =
      SegmentByteBudget(estimator_.estimate_bps(), segment_seconds_,
                        kBudgetSafety);
  TileQualityPlan plan;
  {
    ScopedTimer plan_timer(plan_seconds_);
    if (options_.approach == StreamingApproach::kOracle) {
      // The oracle knows the viewer's entire path through the segment: the
      // high-quality set is the union of the viewports along it. This is
      // the true upper bound a predictor can approach.
      AssignmentOptions assignment;
      assignment.fov_yaw = options_.viewport.fov_yaw;
      assignment.fov_pitch = options_.viewport.fov_pitch;
      assignment.margin = 0.0;
      assignment.high_quality = options_.high_quality;
      plan.assign(metadata_.tile_count(), metadata_.quality_count() - 1);
      for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        double t = media_start + fraction * segment_seconds_;
        TileQualityPlan at_t =
            AssignTileQualities(metadata_, trace_.At(t), assignment);
        for (int i = 0; i < metadata_.tile_count(); ++i) {
          plan[i] = std::min(plan[i], at_t[i]);
        }
      }
      if (options_.adaptive) {
        TileQualityPlan requested = plan;
        plan = FitPlanToBudget(metadata_, segment, std::move(plan), predicted,
                               budget);
        DowngradeCounter()->Add(CountDowngrades(requested, plan));
      }
    } else {
      plan = PlanSegment(metadata_, segment, options_.approach, predicted,
                         options_, budget);
    }
  }
  segments_streamed_->Add();

  const int lowest = metadata_.quality_count() - 1;
  uint64_t bytes = PlanBytes(metadata_, segment, plan);
  TransferResult transfer = network_.Transfer(wall_, bytes);
  bool delivered = true;
  bool skipped = false;
  if (transfer.faulted) {
    // The request timed out. Retry once with every tile one rung lower — a
    // smaller request with better odds of landing inside the viewer's
    // patience window. A second fault abandons the segment; the resulting
    // stall is charged against the playback deadline below.
    ++stats_.transfer_faults;
    transfer_faults_->Add();
    wall_ = transfer.completion_time;
    for (int& q : plan) q = std::min(q + 1, lowest);
    bytes = PlanBytes(metadata_, segment, plan);
    ++stats_.transfer_retries;
    transfer_retries_->Add();
    transfer = network_.Transfer(wall_, bytes);
    if (transfer.faulted) {
      ++stats_.transfer_faults;
      transfer_faults_->Add();
      ++stats_.segments_skipped;
      segments_skipped_->Add();
      delivered = false;
      skipped = true;
      bytes = 0;
    }
  }
  if (delivered) {
    estimator_.AddSample(bytes, transfer.completion_time - wall_);
    stats_.bytes_sent += bytes;
  }
  wall_ = transfer.completion_time;

  if (segment == start_segment_) {
    play_start_ = wall_;
    stats_.startup_delay = wall_;
  } else {
    double deadline = play_start_ + stall_total_ + media_start;
    if (wall_ > deadline + 1e-9) {
      stats_.stall_seconds += wall_ - deadline;
      stall_total_ += wall_ - deadline;
      ++stats_.stall_events;
      stall_events_->Add();
      stall_seconds_->Observe(wall_ - deadline);
    }
  }

  // Under a server, delivery is real: pull every planned cell through the
  // shared storage cache, so concurrent viewers contend for — and reuse —
  // the same buffer pool. With an I/O pool the segment's cells load as one
  // overlapped batch.
  if (options_.cell_source != nullptr && delivered) {
    VC_RETURN_IF_ERROR(
        options_.cell_source->ReadPlannedCells(metadata_, segment, plan));
  }

  // In-view quality bookkeeping: the rung the viewer actually sees (the
  // lowest rung when the segment was skipped — the player shows stale or
  // minimal detail).
  {
    TileGrid grid = metadata_.tile_grid();
    Orientation actual = trace_.At(media_mid);
    grid.ForEachTileInViewport(
        actual, options_.viewport.fov_yaw, options_.viewport.fov_pitch,
        [&](TileId tile) {
          inview_quality_sum_ += skipped ? lowest : plan[grid.IndexOf(tile)];
          ++inview_quality_count_;
        });
    // Predictor accuracy as the session experienced it: did the viewport
    // planned around the prediction (FOV + selection margin) cover the
    // tile the viewer actually gazed at mid-segment? The oracle is
    // excluded — its "prediction" is the ground truth.
    if (options_.approach != StreamingApproach::kOracle) {
      bool hit = grid.ViewportContains(
          predicted, options_.viewport.fov_yaw + 2 * options_.viewport_margin,
          options_.viewport.fov_pitch + 2 * options_.viewport_margin,
          grid.TileFor(actual));
      (hit ? predict_hits_ : predict_misses_)->Add();
    }
  }

  if (options_.evaluate_quality && delivered) {
    std::vector<Frame> dframes;
    VC_ASSIGN_OR_RETURN(
        dframes, ReconstructSegment(storage_, metadata_, segment, plan));
    int step = std::max(1, static_cast<int>(info.frame_count) /
                               kEvalFramesPerSegment);
    for (int k = step / 2; k < static_cast<int>(info.frame_count); k += step) {
      int frame_index = static_cast<int>(info.start_frame) + k;
      double media_t = frame_index / fps_ - media_origin_;
      Orientation actual = trace_.At(media_t);
      Frame original = reference_->FrameAt(frame_index);
      double psnr;
      VC_ASSIGN_OR_RETURN(
          psnr, ViewportPsnr(original, dframes[k], actual, options_.viewport));
      psnr_sum_ += psnr;
      psnr_min_ = std::min(psnr_min_, psnr);
      ++stats_.quality_samples;
    }
  }

  ++segment_;
  if (segment_ == FinalSegmentCount()) Finalize();
  return Status::OK();
}

void ClientSession::Finalize() {
  done_ = true;
  if (stats_.quality_samples > 0) {
    stats_.mean_viewport_psnr = psnr_sum_ / stats_.quality_samples;
    stats_.min_viewport_psnr = psnr_min_;
  }
  if (inview_quality_count_ > 0) {
    stats_.mean_inview_quality = inview_quality_sum_ / inview_quality_count_;
  }
  if (options_.popularity_sink != nullptr) {
    options_.popularity_sink->EndViewer();
  }
}

Result<SessionStats> SimulateSession(StorageManager* storage,
                                     const VideoMetadata& metadata,
                                     const HeadTrace& trace,
                                     const SessionOptions& options,
                                     const SceneGenerator* reference) {
  std::unique_ptr<ClientSession> session;
  VC_ASSIGN_OR_RETURN(session, ClientSession::Create(storage, metadata, trace,
                                                     options, reference));
  while (!session->done()) {
    VC_RETURN_IF_ERROR(session->Step(session->NextDeadline()));
  }
  return session->stats();
}

}  // namespace vc
