#ifndef VC_SERVER_LIVE_FEED_H_
#define VC_SERVER_LIVE_FEED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/visualcloud.h"
#include "image/scene.h"

namespace vc {

/// Timing model of a simulated live capture + encode pipeline.
///
/// All values are simulated seconds on the same wall clock the server's
/// event scheduler uses; capture starts at t = 0. The publish schedule is a
/// pure function of these options (plus the segment layout), computed up
/// front, so every run of the same feed publishes at identical instants
/// regardless of host speed, node count, or prefetch settings — the
/// encoding work itself happens at those instants but costs only host time.
struct LiveFeedOptions {
  /// Simulated encode latency of one segment (full ladder).
  double encode_seconds = 0.2;
  /// Simulated encode latency under the degraded (fast) preset the ingest
  /// pipeline falls back to when it is behind. 0 disables degradation.
  /// The produced bytes do not change — the model is a speed preset whose
  /// quality cost this simulation does not render — so degraded runs stay
  /// byte-identical to healthy ones; only the timing moves.
  double degraded_encode_seconds = 0.0;
  /// Glass-to-glass budget: when the projected publish lag of a segment
  /// exceeds this, the encoder degrades (if it can). 0 = unbounded.
  double max_lag_seconds = 0.0;
  /// Fault injection: per-segment encode latency overrides (e.g. one slow
  /// segment models an encoder hiccup). Overridden segments never degrade
  /// — the override *is* their cost — but later segments see the backlog
  /// and degrade to catch back up under the budget.
  std::map<int, double> encode_overrides;

  Status Validate() const;
};

/// Ingest-side accounting of a live feed (schedule-derived lag numbers
/// cover the published prefix, so they are final once the feed completes).
struct LiveFeedStats {
  int total_segments = 0;
  int segments_published = 0;
  int degraded_segments = 0;
  double max_lag_seconds = 0.0;
  double mean_lag_seconds = 0.0;
  /// Lag of the most recently published segment — the live-edge lag.
  double final_lag_seconds = 0.0;
};

/// \brief A live 360° feed: deterministic capture/encode schedule in front
/// of a real append-only ingest.
///
/// Owns a LiveIngestSession in publish-per-segment mode. The server event
/// loop calls Publish(s) at PublishTimeOf(s); each call renders the
/// segment's frames from the scene, encodes them through the database's
/// ingest pool (full ladder, multi-rate hint reuse — the exact offline
/// path), and commits a streaming checkpoint version, so the catalog
/// `snapshot()` grows append-only under live viewers. The final segment's
/// publish also closes the session, committing the archived version: a
/// fully caught-up live catalog holds byte-identical cells to the same
/// video ingested offline.
///
/// Implements LiveAvailability for sessions joining mid-stream.
class LiveFeed : public LiveAvailability {
 public:
  /// Validates and builds the feed: opens the ingest session (the catalog
  /// entry exists but is empty until the first publish) and precomputes
  /// the publish schedule. `db` and `scene` must outlive the feed.
  static Result<std::unique_ptr<LiveFeed>> Create(
      VisualCloud* db, const std::string& name, const SceneGenerator& scene,
      int frame_count, const IngestOptions& ingest,
      const LiveFeedOptions& options);

  // LiveAvailability:
  int published_segments() const override { return published_; }
  double PublishTimeOf(int segment) const override;
  int final_segment_count() const override { return total_segments_; }
  const VideoMetadata& snapshot() const override { return snapshot_; }

  /// When the last frame of `segment` has been captured — the earliest
  /// instant its encode can start; publish lag is measured from here.
  double ArrivalTimeOf(int segment) const;
  /// Publish lag (publish − capture-complete) of `segment`.
  double LagOf(int segment) const;
  /// Whether the schedule degrades `segment`'s encode to stay in budget.
  bool IsDegraded(int segment) const;

  /// Renders, encodes, and publishes segment `segment` — which must be the
  /// next unpublished one. Called by the server at PublishTimeOf(segment);
  /// the final segment also commits the archived version.
  Status Publish(int segment);

  const std::string& name() const { return name_; }
  /// Version of the archived commit; 0 until the final publish.
  uint32_t final_version() const { return final_version_; }
  bool complete() const { return published_ == total_segments_; }
  LiveFeedStats stats() const;

 private:
  LiveFeed(VisualCloud* db, std::string name, const SceneGenerator* scene,
           int frame_count, std::unique_ptr<LiveIngestSession> session,
           const LiveFeedOptions& options);

  VisualCloud* db_;
  std::string name_;
  const SceneGenerator* scene_;
  int frame_count_;
  int frames_per_segment_;
  int total_segments_ = 0;
  std::unique_ptr<LiveIngestSession> session_;
  /// Newest committed checkpoint, re-read from the catalog after every
  /// publish. Stable address (sessions and prefetchers hold pointers to
  /// it); mutated append-only on the scheduler thread.
  VideoMetadata snapshot_;

  // The precomputed schedule, indexed by segment.
  std::vector<double> arrival_;
  std::vector<double> publish_;
  std::vector<uint8_t> degraded_;

  int published_ = 0;
  uint32_t final_version_ = 0;
};

}  // namespace vc

#endif  // VC_SERVER_LIVE_FEED_H_
