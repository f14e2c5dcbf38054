#ifndef VC_STORAGE_PREFETCHER_H_
#define VC_STORAGE_PREFETCHER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "predict/popularity.h"
#include "storage/cell_key.h"
#include "storage/cell_source.h"

namespace vc {

/// What the prefetcher speculates on.
enum class PrefetchMode {
  kOff,
  /// Each session's own plan for its next segment, made on its current
  /// orientation prediction: every tile at the rung the plan names.
  kPredict,
};

/// Stable flag name ("off", "predict").
const char* PrefetchModeName(PrefetchMode mode);

/// One session's forecast of its next segment, produced by
/// `ClientSession::NextPrefetchHint()` on the scheduler thread: the rungs
/// the session's planner picks for that segment with what it knows now.
/// The prefetcher warms exactly those cells, so it follows whatever rule
/// the planner applies without a copy of it.
struct PrefetchHint {
  bool valid = false;
  int segment = 0;  ///< Segment the session will stream next.
  /// Planned ladder rung per tile (grid index order).
  std::vector<int> tile_qualities;
};

/// Accounting of one prefetcher instance (cache-level issued/hit/wasted
/// counts live in CacheStats; these cover the request queue itself).
struct PrefetcherStats {
  uint64_t enqueued = 0;    ///< Requests accepted into the queue.
  uint64_t dispatched = 0;  ///< Requests handed to the I/O pool.
  /// Requests dropped before dispatch: stale (their playback deadline
  /// passed) or evicted by a fuller queue.
  uint64_t cancelled = 0;
  /// Hints suppressed by the dedupe TTL: the cell was accepted within the
  /// last 2 simulated seconds, even if that request has since left the
  /// queue. Sessions pacing the same segment re-hint the same cells every
  /// deadline; without a memory the queue refills with work that the next
  /// Pump cancels again. Never affects served bytes or outcomes — only
  /// which speculative loads are attempted.
  uint64_t deduped = 0;
  /// Hints refused at enqueue because their deadline had already passed —
  /// the next Pump would cancel them before any dispatch, so queueing them
  /// is pure churn.
  uint64_t stale_skipped = 0;

  /// Fraction of accepted requests later dropped without dispatch — the
  /// churn the dedupe TTL and stale skip exist to keep low.
  double CancellationRatio() const {
    return enqueued == 0 ? 0.0 : static_cast<double>(cancelled) / enqueued;
  }

  PrefetcherStats& operator+=(const PrefetcherStats& other) {
    enqueued += other.enqueued;
    dispatched += other.dispatched;
    cancelled += other.cancelled;
    deduped += other.deduped;
    stale_skipped += other.stale_skipped;
    return *this;
  }
};

/// \brief Prediction-driven cell prefetcher: VisualCloud's "do the work
/// before the viewer needs it" half, applied to storage.
///
/// The streaming server calls `EnqueueSegment` one pacing deadline ahead of
/// each session — the session's plan for its next segment names the
/// (segment, tile, quality) cells it is likely to request, and the
/// prefetcher loads them through the shared LRU cache on the I/O pool's
/// low-priority lane. Demand loads are never delayed: speculation is
/// bounded, runs strictly below demand priority, and coalesces with demand
/// reads through the cache's single-flight machinery. At most 512 requests
/// wait in the queue (when full, the lowest-scored one is evicted —
/// popularity-ordered eviction), and at most 2× the I/O pool's workers (4
/// without a pool) are in flight.
///
/// Threading: EnqueueSegment/Pump/Drain must be called from one thread (the
/// server's scheduler thread). The loads themselves run on the storage
/// manager's I/O pool. Requests hold pointers to the caller's VideoMetadata,
/// which must outlive the prefetcher.
///
/// Determinism: the prefetcher only warms the cache. It never touches the
/// predictor, the popularity model (read-only), or any session accounting,
/// so a server run's served bytes / QoE / admission outcomes are
/// byte-identical with prefetching on or off — only host wall time and
/// cache statistics change.
class PredictivePrefetcher {
 public:
  /// `storage` must outlive the prefetcher and should have an I/O pool
  /// (without one, dispatched loads run synchronously inside Pump, which
  /// still works but hides nothing). Any CellSource works: a plain
  /// StorageManager or one node of a sharded store.
  PredictivePrefetcher(CellSource* storage, PrefetchMode mode);

  /// Queues one speculative load per tile of `hint.segment` of `metadata`,
  /// at the tile's planned rung, due at simulated time `deadline` (the
  /// session's pacing deadline — requests still queued past it are stale
  /// and get cancelled). A request scores `popularity`'s probability for
  /// its tile, plus 1 when the tile is planned above the lowest rung, so
  /// the high-rung tiles of a plan dispatch first and are evicted last.
  /// `popularity` may be null; it is consulted synchronously on the
  /// calling thread.
  void EnqueueSegment(const VideoMetadata& metadata, const PrefetchHint& hint,
                      const PopularityModel* popularity, double deadline);

  /// Advances the pipeline at simulated time `now`: cancels stale requests,
  /// reaps completed loads, and dispatches queued requests (highest score
  /// first) while the in-flight cap allows.
  void Pump(double now);

  /// Blocks until every dispatched load has completed and drops the
  /// remaining queue (counted as cancelled). Call before reading end-of-run
  /// cache statistics.
  void Drain();

  const PrefetcherStats& stats() const { return stats_; }

 private:
  struct Request {
    const VideoMetadata* metadata;
    CellKey cell;
    PackedCellKey key;  ///< cell.Packed(*metadata), computed once at Add.
    double score;       ///< Higher dispatches first; lowest is evicted.
    double deadline;    ///< Simulated time after which the request is stale.
    uint64_t seq;       ///< Tie-break: earlier requests win.
  };

  void Add(const VideoMetadata& metadata, CellKey cell, double score,
           double deadline);
  void DispatchPending();

  CellSource* storage_;
  const PrefetchMode mode_;
  const int max_inflight_;
  uint64_t seq_ = 0;
  /// Latest simulated time seen by Pump; the stale skip and dedupe TTL are
  /// measured on this clock.
  double now_ = 0.0;
  std::vector<Request> queue_;
  /// Cells currently queued or in flight, to avoid duplicate requests.
  std::unordered_set<PackedCellKey, CellKeyHash> pending_;
  /// Dedupe-TTL memory: key -> simulated time its suppression expires.
  /// Purged lazily when it outgrows the queue bound.
  std::unordered_map<PackedCellKey, double, CellKeyHash> recent_;
  std::vector<std::pair<LruCache::AsyncHandle, PackedCellKey>> inflight_;
  PrefetcherStats stats_;
};

}  // namespace vc

#endif  // VC_STORAGE_PREFETCHER_H_
