#include "storage/prefetcher.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"

namespace vc {

namespace {

/// Pending (not yet dispatched) requests kept before eviction starts.
constexpr size_t kMaxQueue = 512;
/// Simulated seconds a hinted cell stays suppressed after it was accepted.
constexpr double kDedupeTtlSeconds = 2.0;

/// Speculative loads allowed in flight at once: bounds how much of the I/O
/// pool speculation can occupy.
int MaxInflight(const CellSource* storage) {
  ThreadPool* pool = storage->io_pool();
  return pool != nullptr ? 2 * static_cast<int>(pool->num_threads()) : 4;
}

Counter* CancelledCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.cancelled");
  return counter;
}
Counter* DedupedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.deduped");
  return counter;
}
Counter* StaleSkippedCounter() {
  static Counter* counter =
      MetricRegistry::Global().GetCounter("prefetch.stale_skipped");
  return counter;
}

}  // namespace

const char* PrefetchModeName(PrefetchMode mode) {
  switch (mode) {
    case PrefetchMode::kOff:
      return "off";
    case PrefetchMode::kPredict:
      return "predict";
    case PrefetchMode::kPopularity:
      return "popularity";
  }
  return "unknown";
}

PredictivePrefetcher::PredictivePrefetcher(CellSource* storage,
                                           PrefetchMode mode)
    : storage_(storage), mode_(mode), max_inflight_(MaxInflight(storage)) {}

void PredictivePrefetcher::EnqueueSegment(const VideoMetadata& metadata,
                                          const PrefetchHint& hint,
                                          const PopularityModel* popularity,
                                          double deadline) {
  if (mode_ == PrefetchMode::kOff || !hint.valid) return;
  if (hint.segment < 0 || hint.segment >= metadata.segment_count()) return;

  const TileGrid grid = metadata.tile_grid();
  const int lowest = metadata.quality_count() - 1;
  const int high = std::min(std::max(hint.high_quality, 0), lowest);

  std::vector<double> probabilities;
  if (popularity != nullptr && popularity->grid() == grid) {
    probabilities = popularity->TileProbabilities(hint.segment);
  }
  auto probability = [&probabilities](int tile) {
    return tile < static_cast<int>(probabilities.size())
               ? probabilities[tile]
               : 0.0;
  };

  // The predicted viewport (with the session's selection margin) at the
  // session's high rung — what the plan will most likely request.
  for (const TileId& tile : grid.TilesInViewport(
           hint.predicted, hint.fov_yaw + 2 * hint.margin,
           hint.fov_pitch + 2 * hint.margin)) {
    int index = grid.IndexOf(tile);
    Add(metadata, CellKey{hint.segment, index, high},
        1.0 + probability(index), deadline);
  }

  // Cross-user popularity: tiles covering most of the historical gaze mass
  // are planned at high quality too (see PlanSegment), so warm them.
  if (mode_ == PrefetchMode::kPopularity && popularity != nullptr &&
      popularity->grid() == grid) {
    for (const TileId& tile :
         popularity->PopularTiles(hint.segment, kPopularTileCoverage)) {
      int index = grid.IndexOf(tile);
      Add(metadata, CellKey{hint.segment, index, high},
          0.8 + probability(index), deadline);
    }
  }

  // Every remaining tile streams at the lowest rung; backfill those at low
  // score so they fill otherwise-idle I/O capacity.
  if (lowest != high) {
    for (int index = 0; index < grid.tile_count(); ++index) {
      Add(metadata, CellKey{hint.segment, index, lowest},
          0.05 + 0.05 * probability(index), deadline);
    }
  }
}

void PredictivePrefetcher::Add(const VideoMetadata& metadata, CellKey cell,
                               double score, double deadline) {
  // Cancellation-aware enqueue: Pump cancels any request whose deadline has
  // passed *before* dispatching, and Pump runs at or after `now_` — so a
  // request already stale on arrival can never dispatch. Refusing it here
  // saves the queue insert, the eviction scan it might trigger, and the
  // guaranteed cancellation.
  if (deadline <= now_) {
    ++stats_.stale_skipped;
    StaleSkippedCounter()->Add();
    return;
  }
  PackedCellKey key = cell.Packed(metadata);
  auto recent = recent_.find(key);
  if (recent != recent_.end() && recent->second > now_) {
    ++stats_.deduped;
    DedupedCounter()->Add();
    return;
  }
  if (!pending_.insert(key).second) return;  // already queued or in flight
  recent_[key] = now_ + kDedupeTtlSeconds;
  // Lazy purge: once the memory far outgrows the queue bound, sweep
  // expired entries in one pass (deterministic — depends only on `now_`).
  if (recent_.size() > kMaxQueue * 4 + 4096) {
    for (auto it = recent_.begin(); it != recent_.end();) {
      it = it->second <= now_ ? recent_.erase(it) : std::next(it);
    }
  }

  if (queue_.size() >= kMaxQueue) {
    // Popularity-ordered eviction: the lowest-scored pending request makes
    // room, unless the newcomer scores even lower.
    auto victim = std::min_element(
        queue_.begin(), queue_.end(), [](const Request& a, const Request& b) {
          return a.score != b.score ? a.score < b.score : a.seq > b.seq;
        });
    if (victim->score >= score) {
      pending_.erase(key);
      // Nothing was accepted — leave no dedupe memory behind.
      recent_.erase(key);
      return;
    }
    pending_.erase(victim->key);
    ++stats_.cancelled;
    CancelledCounter()->Add();
    *victim = Request{&metadata, cell, key, score, deadline, seq_++};
    ++stats_.enqueued;
    return;
  }
  queue_.push_back(Request{&metadata, cell, key, score, deadline, seq_++});
  ++stats_.enqueued;
}

void PredictivePrefetcher::Pump(double now) {
  if (now > now_) now_ = now;
  // Reap finished loads so their slots free up (and a later re-request of
  // the same cell is possible — it would hit the cache anyway).
  for (size_t i = 0; i < inflight_.size();) {
    if (inflight_[i].first.ready()) {
      pending_.erase(inflight_[i].second);
      if (i + 1 != inflight_.size()) {  // guard the self-move at the back
        inflight_[i] = std::move(inflight_.back());
      }
      inflight_.pop_back();
    } else {
      ++i;
    }
  }

  // Cancel stale requests: their demand read happens at `deadline`, so once
  // the clock reaches it there is nothing left to win.
  for (size_t i = 0; i < queue_.size();) {
    if (queue_[i].deadline <= now) {
      pending_.erase(queue_[i].key);
      ++stats_.cancelled;
      CancelledCounter()->Add();
      if (i + 1 != queue_.size()) {  // guard the self-move at the back
        queue_[i] = std::move(queue_.back());
      }
      queue_.pop_back();
    } else {
      ++i;
    }
  }

  DispatchPending();
}

void PredictivePrefetcher::DispatchPending() {
  if (queue_.empty() ||
      static_cast<int>(inflight_.size()) >= max_inflight_) {
    return;
  }
  // One sort per Pump instead of a max_element scan per dispatch: worst
  // request first, so popping the back yields the same highest-score /
  // earliest-seq order the scan produced — O(n log n) per Pump where the
  // scan was O(n²) once 10k-viewer cohorts deepen the queue.
  std::sort(queue_.begin(), queue_.end(),
            [](const Request& a, const Request& b) {
              return a.score != b.score ? a.score < b.score : a.seq > b.seq;
            });
  while (static_cast<int>(inflight_.size()) < max_inflight_ &&
         !queue_.empty()) {
    Request request = queue_.back();
    queue_.pop_back();

    PackedCellKey key = request.key;
    auto handle = storage_->ReadCellAsync(
        *request.metadata, request.cell.segment, request.cell.tile,
        request.cell.quality, LoadKind::kPrefetch);
    ++stats_.dispatched;
    if (!handle.ok() || handle->ready()) {
      // Out of range (cannot happen for well-formed hints), already cached,
      // or resolved synchronously: nothing to track.
      pending_.erase(key);
      continue;
    }
    inflight_.emplace_back(std::move(*handle), key);
  }
}

void PredictivePrefetcher::Drain() {
  for (auto& [handle, key] : inflight_) {
    handle.Wait();  // outcome irrelevant — speculation may fail freely
    pending_.erase(key);
  }
  inflight_.clear();
  stats_.cancelled += queue_.size();
  CancelledCounter()->Add(queue_.size());
  for (const Request& request : queue_) {
    pending_.erase(request.key);
  }
  queue_.clear();
}

}  // namespace vc
