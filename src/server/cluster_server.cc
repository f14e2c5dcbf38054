#include "server/cluster_server.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <string>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace vc {

Status ClusterOptions::Validate() const {
  if (nodes < 1) {
    return Status::InvalidArgument("ClusterOptions.nodes must be >= 1");
  }
  return node.Validate();
}

namespace {

enum class EventKind { kPublish, kArrival, kStep };

/// Placement's balance guard: a node is eligible only while its active
/// sessions are under the cluster mean (rounded down) + 1 + this slack, so
/// co-scheduling a hot scene cannot pile every viewer onto one node.
constexpr int kBalanceSlack = 1;

/// One scheduler entry. `seq` (assigned in push order) breaks time ties, so
/// the event order — and therefore the whole run — is deterministic.
/// Publish events (live runs) reuse `viewer` for the segment index; they
/// are pushed before any arrival, so their seqs win every time tie — the
/// catalog grows before viewers act. A step runs on the node its viewer
/// was placed on.
struct Event {
  double time;
  uint64_t seq;
  EventKind kind;
  int viewer;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// `after - before` for every counter; bytes_cached is a level, so the
/// delta keeps `after`'s value.
CacheStats Delta(const CacheStats& after, const CacheStats& before) {
  CacheStats d = after;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  d.coalesced -= before.coalesced;
  d.rejected_oversize -= before.rejected_oversize;
  d.prefetch_issued -= before.prefetch_issued;
  d.prefetch_hits -= before.prefetch_hits;
  d.prefetch_wasted -= before.prefetch_wasted;
  return d;
}

/// Mutable per-node serving state.
struct NodeState {
  /// The node's L1-over-L2 read path; null on a one-node run, whose node
  /// reads through the storage manager itself.
  std::unique_ptr<ShardedStore::Node> tiers;
  CellSource* source = nullptr;  ///< Where the node's sessions read cells.
  CacheStats cache_before;
  std::unique_ptr<PredictivePrefetcher> prefetcher;
  int active = 0;
  double admitted_bps = 0.0;
  std::vector<int> video_active;  ///< Active sessions per catalog video.
  ClusterNodeStats stats;
};

}  // namespace

ClusterServer::ClusterServer(ShardedStore* store,
                             const ClusterOptions& options)
    : store_(store),
      storage_(store != nullptr ? store->shard(0) : nullptr),
      options_(options) {}

ClusterServer::ClusterServer(StorageManager* storage,
                             const ServerOptions& options)
    : storage_(storage) {
  options_.node = options;
}

Result<ClusterStats> ClusterServer::Run(
    const std::vector<VideoMetadata>& videos,
    const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  return RunInternal(videos.data(), static_cast<int>(videos.size()), nullptr,
                     viewers, reference);
}

Result<ClusterStats> ClusterServer::RunLive(
    LiveFeed* feed, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  return RunInternal(nullptr, 1, feed, viewers, reference);
}

Result<ClusterStats> ClusterServer::RunInternal(
    const VideoMetadata* static_videos, int video_count, LiveFeed* live,
    const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  VC_RETURN_IF_ERROR(options_.Validate());
  if (storage_ == nullptr) {
    return Status::InvalidArgument("server requires a storage backend");
  }
  if (static_videos == nullptr) {
    if (live == nullptr) {
      return Status::InvalidArgument("RunLive requires a live feed");
    }
    if (live->published_segments() != 0) {
      return Status::InvalidArgument("live feed already partially published");
    }
  } else {
    if (video_count == 0) {
      return Status::InvalidArgument("server requires at least one video");
    }
    for (int v = 0; v < video_count; ++v) {
      if (static_videos[v].segment_count() == 0) {
        return Status::InvalidArgument("video has no segments");
      }
    }
  }
  // A live run serves a one-video catalog whose metadata is the feed's
  // growing snapshot; `video_of` reads the newest published state.
  auto video_of = [&](int video) -> const VideoMetadata& {
    return live != nullptr ? live->snapshot() : static_videos[video];
  };
  for (const ViewerRequest& viewer : viewers) {
    if (viewer.arrival_seconds < 0) {
      return Status::InvalidArgument("viewer arrival_seconds must be >= 0");
    }
    if (viewer.video < 0 || viewer.video >= video_count) {
      return Status::InvalidArgument("viewer video index out of range");
    }
  }

  const ServerOptions& node_options = options_.node;
  MetricRegistry& registry = MetricRegistry::Global();
  Gauge* active_gauge = registry.GetGauge("server.active_sessions");
  Gauge* queue_gauge = registry.GetGauge("server.queue_depth");
  Counter* admitted_counter = registry.GetCounter("server.sessions_admitted");
  Counter* rejected_counter = registry.GetCounter("server.sessions_rejected");
  Counter* completed_counter =
      registry.GetCounter("server.sessions_completed");
  Counter* locality_counter =
      registry.GetCounter("server.cluster.locality_placements");
  Counter* spillover_counter =
      registry.GetCounter("server.cluster.spillovers");

  const Stopwatch host_clock;
  const CacheStats l2_before =
      store_ != nullptr ? store_->l2_stats() : CacheStats{};

  // One popularity model per catalog video, shared by every node: viewers
  // of a video teach each other where to look no matter where they were
  // placed. The event loop is single-threaded, and the model feed order is
  // fixed by the (time, seq) event order — placement never perturbs it.
  std::vector<std::unique_ptr<PopularityModel>> popularity;
  popularity.reserve(video_count);
  for (int v = 0; v < video_count; ++v) {
    const VideoMetadata& video = video_of(v);
    popularity.push_back(std::make_unique<PopularityModel>(
        video.tile_grid(), video.segment_duration_seconds(),
        live != nullptr ? live->final_segment_count()
                        : video.segment_count()));
  }

  // One plan cache per catalog video, shared by every node: a session's
  // planning inputs carry no node identity, so any node's viewer can reuse
  // a plan first computed anywhere in the cluster. Exact memoization keeps
  // outcomes byte-identical across node counts and with the cache off.
  std::vector<std::unique_ptr<PlanCache>> plan_caches;
  plan_caches.reserve(video_count);
  for (int v = 0; v < video_count; ++v) {
    plan_caches.push_back(std::make_unique<PlanCache>());
  }

  // Speculative loading rides alongside the scheduler: it only warms a
  // node's cache, so the event loop stays logically deterministic. Without
  // an I/O pool there is nothing to overlap, so the mode degrades to off.
  std::vector<NodeState> nodes(options_.nodes);
  for (int n = 0; n < options_.nodes; ++n) {
    NodeState& node = nodes[n];
    if (store_ != nullptr) {
      node.tiers = store_->CreateNode(options_.l1_capacity_bytes);
      node.source = node.tiers.get();
    } else {
      node.source = storage_;
    }
    node.cache_before = node.source->cache_stats();
    node.video_active.assign(video_count, 0);
    node.stats.node_id = n;
    if (node_options.prefetch != PrefetchMode::kOff &&
        node.source->io_pool() != nullptr) {
      node.prefetcher = std::make_unique<PredictivePrefetcher>(
          node.source, node_options.prefetch);
    }
  }

  ClusterStats stats;
  ServerStats& totals = stats.totals;
  std::vector<std::unique_ptr<ClientSession>> sessions(viewers.size());
  // Which node each admitted viewer runs on.
  std::vector<int> placed_on(viewers.size(), -1);
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::deque<int> waiting;  // cluster-wide FIFO for the admission limits
  uint64_t seq = 0;
  int total_active = 0;

  // Arrivals before the first publish are clamped to it (nothing exists to
  // join earlier), mirroring a player that holds its join until the stream
  // goes up.
  if (live != nullptr) {
    for (int s = 0; s < live->final_segment_count(); ++s) {
      events.push(
          Event{live->PublishTimeOf(s), seq++, EventKind::kPublish, s});
    }
  }
  for (size_t i = 0; i < viewers.size(); ++i) {
    double at = viewers[i].arrival_seconds;
    if (live != nullptr) at = std::max(at, live->PublishTimeOf(0));
    events.push(Event{at, seq++, EventKind::kArrival, static_cast<int>(i)});
  }

  auto enqueue_prefetch = [&](NodeState& node, int viewer, double deadline) {
    if (node.prefetcher == nullptr) return;
    int video = viewers[viewer].video;
    node.prefetcher->EnqueueSegment(
        video_of(video), sessions[viewer]->NextPrefetchHint(),
        popularity[video].get(), deadline);
  };

  // Popularity-locality placement with a balance guard. Among nodes that
  // can admit the viewer *and* sit under the balance limit, pick the one
  // with the most active sessions of the viewer's video (tie: fewer active
  // sessions, then lower id). Returns -1 when no node can admit.
  auto place = [&](int viewer) -> int {
    double viewer_bps = viewers[viewer].session.network.bandwidth_bps;
    int video = viewers[viewer].video;
    int limit = total_active / options_.nodes + 1 + kBalanceSlack;
    auto better = [&](int a, int b) {  // is node a a better target than b?
      if (b < 0) return true;
      const NodeState& na = nodes[a];
      const NodeState& nb = nodes[b];
      if (na.video_active[video] != nb.video_active[video]) {
        return na.video_active[video] > nb.video_active[video];
      }
      if (na.active != nb.active) return na.active < nb.active;
      return a < b;
    };
    int preferred = -1;  // locality ideal, ignoring capacity — for counters
    int chosen = -1;
    for (int n = 0; n < options_.nodes; ++n) {
      if (better(n, preferred)) preferred = n;
      const NodeState& node = nodes[n];
      bool admissible =
          node.active < node_options.max_concurrent_sessions &&
          (node_options.bandwidth_budget_bps <= 0 ||
           node.admitted_bps + viewer_bps <=
               node_options.bandwidth_budget_bps + 1e-9);
      if (admissible && node.active < limit && better(n, chosen)) chosen = n;
    }
    if (chosen < 0) return -1;
    if (nodes[chosen].video_active[video] > 0) {
      ++nodes[chosen].stats.locality_placements;
      locality_counter->Add();
    }
    if (chosen != preferred) {
      ++nodes[chosen].stats.spillovers;
      spillover_counter->Add();
    }
    return chosen;
  };

  auto admit = [&](int viewer, int node_id, double now) -> Status {
    NodeState& node = nodes[node_id];
    int video = viewers[viewer].video;
    SessionOptions session_options = viewers[viewer].session;
    // A viewer's own cell source (e.g. an instrumenting decorator) wins.
    if (session_options.cell_source == nullptr) {
      session_options.cell_source = node.source;
    }
    session_options.live = live;
    session_options.popularity = popularity[video].get();
    session_options.popularity_sink = popularity[video].get();
    if (node_options.share_plans) {
      session_options.plan_cache = plan_caches[video].get();
    }
    Stopwatch node_clock;
    std::unique_ptr<ClientSession> session;
    VC_ASSIGN_OR_RETURN(
        session, ClientSession::Create(storage_, video_of(video),
                                       viewers[viewer].trace, session_options,
                                       reference));
    sessions[viewer] = std::move(session);
    placed_on[viewer] = node_id;
    ++node.active;
    ++total_active;
    ++node.video_active[video];
    ++node.stats.sessions_placed;
    node.stats.max_active_sessions =
        std::max(node.stats.max_active_sessions, node.active);
    node.admitted_bps += viewers[viewer].session.network.bandwidth_bps;
    ++totals.sessions_admitted;
    admitted_counter->Add();
    totals.max_active_sessions =
        std::max(totals.max_active_sessions, total_active);
    active_gauge->Set(total_active);
    double deadline = std::max(now, sessions[viewer]->NextDeadline());
    events.push(Event{deadline, seq++, EventKind::kStep, viewer});
    enqueue_prefetch(node, viewer, deadline);
    node.stats.host_seconds += node_clock.ElapsedSeconds();
    return Status::OK();
  };

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();

    if (event.kind == EventKind::kPublish) {
      VC_RETURN_IF_ERROR(live->Publish(event.viewer));
      continue;
    }

    if (event.kind == EventKind::kArrival) {
      ++totals.sessions_offered;
      double viewer_bps = viewers[event.viewer].session.network.bandwidth_bps;
      if (node_options.bandwidth_budget_bps > 0 &&
          viewer_bps > node_options.bandwidth_budget_bps + 1e-9) {
        // Exceeds a whole node's budget: no placement could ever admit it,
        // so reject instead of queueing it forever.
        ++totals.sessions_rejected;
        rejected_counter->Add();
        continue;
      }
      int node_id = place(event.viewer);
      if (node_id < 0) {
        waiting.push_back(event.viewer);
        ++totals.sessions_queued;
        totals.max_queue_depth = std::max(totals.max_queue_depth,
                                          static_cast<int>(waiting.size()));
        queue_gauge->Set(static_cast<double>(waiting.size()));
        continue;
      }
      VC_RETURN_IF_ERROR(admit(event.viewer, node_id, event.time));
      continue;
    }

    // Advance the stepping node's speculation to the event's simulated
    // time: reap finished loads, cancel requests whose demand moment has
    // arrived, dispatch the best of what remains.
    NodeState& node = nodes[placed_on[event.viewer]];
    if (node.prefetcher != nullptr) node.prefetcher->Pump(event.time);
    ClientSession* session = sessions[event.viewer].get();
    Stopwatch node_clock;
    Status stepped = session->Step(event.time);
    node.stats.host_seconds += node_clock.ElapsedSeconds();
    VC_RETURN_IF_ERROR(stepped);
    if (!session->done()) {
      // The session just told us when it will want its next segment; start
      // warming the cells its predictor expects it to ask for.
      double deadline = session->NextDeadline();
      events.push(Event{deadline, seq++, EventKind::kStep, event.viewer});
      enqueue_prefetch(node, event.viewer, deadline);
      continue;
    }

    // Session completed: free its node's slot and bandwidth, then admit
    // waiters (head of line first — FIFO fairness over placement greed).
    --node.active;
    --total_active;
    active_gauge->Set(total_active);
    --node.video_active[viewers[event.viewer].video];
    node.admitted_bps -= viewers[event.viewer].session.network.bandwidth_bps;
    ++totals.sessions_completed;
    completed_counter->Add();
    totals.wall_seconds =
        std::max(totals.wall_seconds, session->wall_seconds());
    while (!waiting.empty()) {
      int next = waiting.front();
      int next_node = place(next);
      if (next_node < 0) break;  // head of line waits for capacity
      waiting.pop_front();
      VC_RETURN_IF_ERROR(admit(next, next_node, event.time));
    }
    queue_gauge->Set(static_cast<double>(waiting.size()));
  }

  for (size_t i = 0; i < viewers.size(); ++i) {
    if (sessions[i] == nullptr) continue;  // rejected
    const SessionStats& session = sessions[i]->stats();
    totals.sessions.push_back(session);
    totals.admitted.push_back(static_cast<int>(i));
    totals.bytes_sent += session.bytes_sent;
    totals.media_seconds += session.duration_seconds;
    totals.stall_seconds += session.stall_seconds;
    totals.stall_events += session.stall_events;
    totals.transfer_faults += session.transfer_faults;
    totals.transfer_retries += session.transfer_retries;
    totals.segments_skipped += session.segments_skipped;
    nodes[placed_on[i]].stats.bytes_sent += session.bytes_sent;
  }

  if (live != nullptr) totals.live = live->stats();

  // Settle speculation before reading the cache counters, so every
  // prefetched value has been classified as hit or wasted-so-far.
  stats.nodes.reserve(nodes.size());
  for (NodeState& node : nodes) {
    if (node.prefetcher != nullptr) {
      node.prefetcher->Drain();
      node.stats.prefetch = node.prefetcher->stats();
      totals.prefetch.enqueued += node.stats.prefetch.enqueued;
      totals.prefetch.dispatched += node.stats.prefetch.dispatched;
      totals.prefetch.cancelled += node.stats.prefetch.cancelled;
      totals.prefetch.deduped += node.stats.prefetch.deduped;
      totals.prefetch.stale_skipped += node.stats.prefetch.stale_skipped;
    }
    node.stats.l1 = Delta(node.source->cache_stats(), node.cache_before);
    const CacheStats& l1 = node.stats.l1;
    totals.cache.hits += l1.hits;
    totals.cache.misses += l1.misses;
    totals.cache.evictions += l1.evictions;
    totals.cache.coalesced += l1.coalesced;
    totals.cache.rejected_oversize += l1.rejected_oversize;
    totals.cache.bytes_cached += l1.bytes_cached;
    totals.cache.prefetch_issued += l1.prefetch_issued;
    totals.cache.prefetch_hits += l1.prefetch_hits;
    totals.cache.prefetch_wasted += l1.prefetch_wasted;
    if (store_ != nullptr) {
      std::string prefix =
          "server.node." + std::to_string(node.stats.node_id);
      registry.GetGauge(prefix + ".cache_hit_rate")->Set(l1.HitRate());
      registry.GetGauge(prefix + ".host_seconds")
          ->Set(node.stats.host_seconds);
    }
    stats.nodes.push_back(node.stats);
  }
  if (store_ != nullptr) stats.l2 = Delta(store_->l2_stats(), l2_before);

  for (const std::unique_ptr<PlanCache>& cache : plan_caches) {
    PlanCache::Stats plan = cache->stats();
    totals.plan.hits += plan.hits;
    totals.plan.misses += plan.misses;
  }
  registry.GetGauge("server.plan_cache_hit_rate")->Set(totals.plan.HitRate());
  registry.GetGauge("server.cache_hit_rate")->Set(totals.cache.HitRate());
  registry.GetGauge("server.rebuffer_ratio")->Set(totals.RebufferRatio());

  totals.host_seconds = host_clock.ElapsedSeconds();
  return stats;
}

}  // namespace vc
