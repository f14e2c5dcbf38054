#ifndef VC_SERVER_STREAMING_SERVER_H_
#define VC_SERVER_STREAMING_SERVER_H_

#include <memory>
#include <vector>

#include "core/session.h"
#include "predict/popularity.h"
#include "server/live_feed.h"
#include "storage/prefetcher.h"
#include "storage/storage_manager.h"

namespace vc {

/// One viewer joining a StreamingServer run: a head-movement trace, the
/// client's session configuration, and when (server wall clock) it arrives.
struct ViewerRequest {
  HeadTrace trace;
  SessionOptions session;
  double arrival_seconds = 0.0;
  /// Which catalog video the viewer streams — an index into the video list
  /// given to ClusterServer::Run. Range-checked like any other input, so a
  /// single-video StreamingServer run accepts only 0.
  int video = 0;
};

/// Admission and sharing policy of a streaming server.
struct ServerOptions {
  /// Sessions streaming at once; arrivals beyond this wait in FIFO order.
  int max_concurrent_sessions = 64;
  /// Aggregate client byte-rate budget (bits/second) admission control
  /// guards: admitted session bandwidths never sum over this. A viewer
  /// whose own bandwidth exceeds the whole budget is rejected outright
  /// (it could never be admitted); others wait in the queue until enough
  /// bandwidth and a slot free up. 0 disables the budget.
  double bandwidth_budget_bps = 0.0;

  /// Maintain one PlanCache per run (per video under a cluster): sessions
  /// with identical planning inputs share one computed TileQualityPlan.
  /// Exact memoization — served bytes and QoE are byte-identical with this
  /// on or off; only host time and `plan` stats move. On by default.
  bool share_plans = true;

  /// Speculative cell loading: ahead of each session's pacing deadline,
  /// its orientation prediction (and, under kPopularity, the shared
  /// popularity model) warms the storage cache on the I/O pool's
  /// low-priority lane. Requires the storage manager to have an I/O pool
  /// (StorageOptions::io_threads > 0); without one the mode silently
  /// degrades to kOff. Prefetching never changes a run's simulated
  /// outcome — served bytes, QoE, admission, and fault accounting are
  /// byte-identical with it on or off — only host wall time and cache
  /// statistics move.
  PrefetchMode prefetch = PrefetchMode::kOff;

  Status Validate() const;
};

/// Aggregate accounting of one server run.
struct ServerStats {
  int sessions_offered = 0;    ///< Viewers presented to admission.
  int sessions_admitted = 0;   ///< Started (immediately or from the queue).
  int sessions_rejected = 0;   ///< Refused by the byte-rate budget.
  int sessions_queued = 0;     ///< Arrivals that had to wait for a slot.
  int sessions_completed = 0;
  int max_queue_depth = 0;
  int max_active_sessions = 0;

  uint64_t bytes_sent = 0;       ///< Media bytes across all sessions.
  double wall_seconds = 0.0;     ///< When the last session finished.
  /// Real (host) time Run() took — the only field that legitimately moves
  /// with io_threads / prefetch settings. Everything above is simulated.
  double host_seconds = 0.0;
  double media_seconds = 0.0;    ///< Sum of media durations streamed.
  double stall_seconds = 0.0;    ///< Sum of rebuffering time.
  int stall_events = 0;
  int transfer_faults = 0;
  int transfer_retries = 0;
  int segments_skipped = 0;

  /// Shared-cache activity attributable to this run (delta over the
  /// storage manager's counters; bytes_cached is the end-of-run value).
  /// Includes the prefetch issued/hit/wasted attribution deltas.
  CacheStats cache;
  /// Prefetch request-queue accounting (zero when prefetch is off).
  PrefetcherStats prefetch;
  /// Plan-cache accounting (zero when share_plans is off). Under a cluster
  /// this sums the per-video caches.
  PlanCache::Stats plan;

  /// Ingest-side accounting of the feed a RunLive() run served (all zero
  /// for an ordinary video-on-demand run).
  LiveFeedStats live;

  /// Per-admitted-session stats, in viewer order (rejected viewers have
  /// no entry; see `admitted` for the mapping).
  std::vector<SessionStats> sessions;
  /// Viewer indices (into the Run() request vector) of `sessions` entries.
  std::vector<int> admitted;

  /// Aggregate delivered rate over the busy period (megabits/second).
  double ServedMbps() const {
    return wall_seconds > 0
               ? static_cast<double>(bytes_sent) * 8.0 / wall_seconds / 1e6
               : 0.0;
  }
  /// Fraction of media time spent rebuffering across all sessions.
  double RebufferRatio() const {
    return media_seconds > 0 ? stall_seconds / media_seconds : 0.0;
  }
};

/// \brief A multi-viewer VisualCloud streaming server simulation.
///
/// Runs N concurrent ClientSessions over one shared StorageManager (and
/// its LRU cell cache, which stays warm across Run calls). This is a
/// one-node run of ClusterServer's deterministic scheduler whose node is
/// the storage manager itself — no L1/L2 tiers — so a run's outcome is a
/// pure function of its inputs: identical viewer requests and seeds give
/// bit-identical stats regardless of host timing. Admission control bounds
/// concurrency (FIFO wait queue) and aggregate client bandwidth (reject),
/// and a shared popularity model is fed live by every session and
/// consulted by every kVisualCloud plan.
class StreamingServer {
 public:
  StreamingServer(StorageManager* storage, const ServerOptions& options);

  /// Streams `metadata` to every viewer in `viewers`, advancing simulated
  /// time until the last admitted session completes. `reference` is needed
  /// only when some viewer evaluates quality.
  Result<ServerStats> Run(const VideoMetadata& metadata,
                          const std::vector<ViewerRequest>& viewers,
                          const SceneGenerator* reference = nullptr);

  /// Streams a still-growing feed: the scheduler drives `feed`'s publish
  /// schedule and the viewers together, so sessions join at the live edge,
  /// discover segments as they are published, and wait (as ordinary
  /// pacing) for segments that do not exist yet. Publish events are pushed
  /// before any arrival, so at equal times the catalog grows first —
  /// making the run a pure function of the feed and cohort, byte-identical
  /// across host timing and prefetch settings. `feed` must be freshly
  /// created (nothing published).
  Result<ServerStats> RunLive(LiveFeed* feed,
                              const std::vector<ViewerRequest>& viewers,
                              const SceneGenerator* reference = nullptr);

  const ServerOptions& options() const { return options_; }

 private:
  StorageManager* storage_;
  ServerOptions options_;
};

}  // namespace vc

#endif  // VC_SERVER_STREAMING_SERVER_H_
