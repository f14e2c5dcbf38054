#include "server/live_feed.h"

#include <algorithm>

#include "obs/metrics.h"

namespace vc {

Status LiveFeedOptions::Validate() const {
  if (encode_seconds < 0) {
    return Status::InvalidArgument(
        "LiveFeedOptions.encode_seconds must be >= 0");
  }
  if (degraded_encode_seconds < 0) {
    return Status::InvalidArgument(
        "LiveFeedOptions.degraded_encode_seconds must be >= 0");
  }
  if (max_lag_seconds < 0) {
    return Status::InvalidArgument(
        "LiveFeedOptions.max_lag_seconds must be >= 0");
  }
  for (const auto& [segment, cost] : encode_overrides) {
    if (segment < 0 || cost < 0) {
      return Status::InvalidArgument("bad encode_overrides entry");
    }
  }
  return Status::OK();
}

LiveFeed::LiveFeed(VisualCloud* db, std::string name,
                   const SceneGenerator* scene, int frame_count,
                   std::unique_ptr<LiveIngestSession> session,
                   const LiveFeedOptions& options)
    : db_(db),
      name_(std::move(name)),
      scene_(scene),
      frame_count_(frame_count),
      frames_per_segment_(session->metadata().frames_per_segment),
      session_(std::move(session)),
      snapshot_(session_->metadata()) {
  const double fps = snapshot_.fps();
  total_segments_ =
      (frame_count_ + frames_per_segment_ - 1) / frames_per_segment_;
  arrival_.reserve(total_segments_);
  publish_.reserve(total_segments_);
  degraded_.reserve(total_segments_);

  // The whole schedule up front: capture finishes a segment when its last
  // frame lands; the encoder is a single pipeline stage (segment s+1 waits
  // for s); the degrade policy reacts to the *projected* lag, exactly like
  // a real ingest switching presets when its input queue grows.
  double prev_publish = 0.0;
  for (int s = 0; s < total_segments_; ++s) {
    int end_frame = std::min(frame_count_, (s + 1) * frames_per_segment_);
    double arrival = end_frame / fps;
    double encode_start = (s == 0) ? arrival : std::max(arrival, prev_publish);
    auto override_it = options.encode_overrides.find(s);
    bool overridden = override_it != options.encode_overrides.end();
    double cost = overridden ? override_it->second : options.encode_seconds;
    bool degraded = false;
    if (!overridden && options.max_lag_seconds > 0 &&
        options.degraded_encode_seconds > 0 &&
        options.degraded_encode_seconds < cost &&
        encode_start + cost - arrival > options.max_lag_seconds + 1e-12) {
      cost = options.degraded_encode_seconds;
      degraded = true;
    }
    prev_publish = encode_start + cost;
    arrival_.push_back(arrival);
    publish_.push_back(prev_publish);
    degraded_.push_back(degraded ? 1 : 0);
  }
}

Result<std::unique_ptr<LiveFeed>> LiveFeed::Create(
    VisualCloud* db, const std::string& name, const SceneGenerator& scene,
    int frame_count, const IngestOptions& ingest,
    const LiveFeedOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("live feed requires a database");
  }
  VC_RETURN_IF_ERROR(options.Validate());
  VC_RETURN_IF_ERROR(ingest.Validate());
  if (frame_count <= 0) {
    return Status::InvalidArgument("frame_count must be positive");
  }

  LiveIngestOptions live;
  live.ingest = ingest;
  live.publish_segments = true;
  std::unique_ptr<LiveIngestSession> session;
  VC_ASSIGN_OR_RETURN(
      session,
      db->StartLiveIngest(name, scene.width(), scene.height(), live));
  return std::unique_ptr<LiveFeed>(new LiveFeed(
      db, name, &scene, frame_count, std::move(session), options));
}

double LiveFeed::PublishTimeOf(int segment) const {
  segment = std::min(std::max(segment, 0), total_segments_ - 1);
  return publish_[segment];
}

double LiveFeed::ArrivalTimeOf(int segment) const {
  segment = std::min(std::max(segment, 0), total_segments_ - 1);
  return arrival_[segment];
}

double LiveFeed::LagOf(int segment) const {
  return PublishTimeOf(segment) - ArrivalTimeOf(segment);
}

bool LiveFeed::IsDegraded(int segment) const {
  segment = std::min(std::max(segment, 0), total_segments_ - 1);
  return degraded_[segment] != 0;
}

Status LiveFeed::Publish(int segment) {
  MetricRegistry& registry = MetricRegistry::Global();
  static Gauge* lag_gauge = registry.GetGauge("ingest.live_edge_lag_seconds");
  static Counter* published_counter =
      registry.GetCounter("ingest.live_segments_published");
  static Counter* degraded_counter =
      registry.GetCounter("ingest.live_degraded_segments");

  if (segment != published_) {
    return Status::InvalidArgument("live segments publish in order");
  }
  if (segment >= total_segments_) {
    return Status::InvalidArgument("live feed already complete");
  }

  int first = segment * frames_per_segment_;
  int last = std::min(frame_count_, first + frames_per_segment_);
  std::vector<Frame> frames;
  frames.reserve(last - first);
  for (int i = first; i < last; ++i) frames.push_back(scene_->FrameAt(i));
  VC_RETURN_IF_ERROR(session_->AppendFrames(frames));

  // Refresh the snapshot from the catalog itself — the round trip through
  // the committed metadata is the same read path a joining viewer takes.
  if (segment + 1 == total_segments_) {
    VC_ASSIGN_OR_RETURN(final_version_, session_->Close());
    VC_ASSIGN_OR_RETURN(snapshot_,
                        db_->storage()->GetVideoVersion(name_, final_version_));
  } else {
    VC_ASSIGN_OR_RETURN(
        snapshot_, db_->storage()->GetVideoVersion(
                       name_, session_->last_published_version()));
  }
  if (snapshot_.segment_count() != segment + 1) {
    return Status::Internal("live checkpoint segment count mismatch");
  }

  ++published_;
  published_counter->Add();
  if (degraded_[segment] != 0) degraded_counter->Add();
  lag_gauge->Set(LagOf(segment));
  return Status::OK();
}

LiveFeedStats LiveFeed::stats() const {
  LiveFeedStats stats;
  stats.total_segments = total_segments_;
  stats.segments_published = published_;
  double lag_sum = 0.0;
  for (int s = 0; s < published_; ++s) {
    double lag = LagOf(s);
    lag_sum += lag;
    stats.max_lag_seconds = std::max(stats.max_lag_seconds, lag);
    if (degraded_[s] != 0) ++stats.degraded_segments;
  }
  if (published_ > 0) {
    stats.mean_lag_seconds = lag_sum / published_;
    stats.final_lag_seconds = LagOf(published_ - 1);
  }
  return stats;
}

}  // namespace vc
