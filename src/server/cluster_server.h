#ifndef VC_SERVER_CLUSTER_SERVER_H_
#define VC_SERVER_CLUSTER_SERVER_H_

#include <memory>
#include <vector>

#include "server/streaming_server.h"
#include "storage/sharded_store.h"

namespace vc {

/// Topology and placement policy of a multi-node serving cluster.
struct ClusterOptions {
  /// Simulated serving nodes, each with a private L1 cache, its own
  /// admission control, and its own prefetcher.
  int nodes = 1;
  /// Per-node private L1 cache capacity.
  size_t l1_capacity_bytes = 16ull << 20;
  /// Per-node admission, sharing, and prefetch settings
  /// (max_concurrent_sessions and bandwidth_budget_bps apply per node).
  ServerOptions node;

  Status Validate() const;
};

/// Accounting of one node across a cluster run.
struct ClusterNodeStats {
  int node_id = 0;
  int sessions_placed = 0;
  /// Placements that landed the session next to an active session of the
  /// same video — the L1-sharing win the balancer optimizes for.
  int locality_placements = 0;
  /// Placements diverted off the locality-preferred node (it was full or
  /// over the balance limit).
  int spillovers = 0;
  int max_active_sessions = 0;

  uint64_t bytes_sent = 0;
  /// Host time spent stepping this node's sessions (admission + segment
  /// work). The per-node share of the run's real cost: roughly flat as
  /// nodes are added is the scale-out goal.
  double host_seconds = 0.0;
  /// The node's private L1 activity during the run (counter deltas;
  /// bytes_cached is the end-of-run level).
  CacheStats l1;
  /// The node's prefetch request-queue accounting.
  PrefetcherStats prefetch;
};

/// Aggregate accounting of one cluster run.
struct ClusterStats {
  /// Cluster-wide totals; `totals.cache` sums the per-node L1 deltas and
  /// `totals.host_seconds` is the whole run's host time.
  ServerStats totals;
  /// Shared-L2 activity during the run (its hits are L1 misses that were
  /// saved from a backend read).
  CacheStats l2;
  std::vector<ClusterNodeStats> nodes;

  /// Total placements diverted off their locality-preferred node.
  int spillovers() const {
    int n = 0;
    for (const ClusterNodeStats& node : nodes) n += node.spillovers;
    return n;
  }
};

/// \brief A multi-node VisualCloud serving cluster simulation.
///
/// N serving nodes share one ShardedStore: every node reads any cell
/// through its private L1 over the cluster's shared L2, with cold reads
/// routed to the cell's owning backend by consistent hash. One global
/// deterministic scheduler drives all nodes — events order by (time, seq),
/// with seq assigned in push order — so a run's simulated outcome (served
/// bytes, QoE, admission and fault accounting) is a pure function of the
/// viewer cohort: byte-identical across host timing, prefetch settings,
/// and — when admission never queues — across node counts. Only
/// host_seconds and cache hit rates may move. This is the repo's only
/// serving scheduler: StreamingServer is a one-node run of it.
///
/// Sessions are placed by popularity locality: an arriving viewer goes to
/// the admissible node with the most active sessions of its video (ties to
/// the emptier node, then the lower id), bounded by a balance guard (a node
/// is eligible only while its active sessions are under the cluster mean,
/// rounded down, plus 2), so hot scenes co-schedule and share L1s without
/// starving the rest of the cluster.
class ClusterServer {
 public:
  ClusterServer(ShardedStore* store, const ClusterOptions& options);

  /// Streams to every viewer in `viewers`; `viewers[i].video` indexes
  /// `videos`. Both vectors (and `reference`, needed only when a viewer
  /// evaluates quality) must stay alive for the duration of the call.
  Result<ClusterStats> Run(const std::vector<VideoMetadata>& videos,
                           const std::vector<ViewerRequest>& viewers,
                           const SceneGenerator* reference = nullptr);

  /// Streams a still-growing feed (single-video catalog) exactly as
  /// StreamingServer::RunLive does: publish events carry the lowest seqs,
  /// so the event order — and the simulated outcome — is identical to the
  /// single-node live run and across node counts. The feed must ingest
  /// into the same store root the cluster's backends share — published
  /// cells are then readable by every node through its L1/L2 tiers,
  /// exactly as for static videos.
  Result<ClusterStats> RunLive(LiveFeed* feed,
                               const std::vector<ViewerRequest>& viewers,
                               const SceneGenerator* reference = nullptr);

  const ClusterOptions& options() const { return options_; }

 private:
  friend class StreamingServer;

  /// A one-node run whose node is `storage` itself: sessions read through
  /// its own (persistent) cache, with no L1/L2 tiers.
  ClusterServer(StorageManager* storage, const ServerOptions& options);

  /// The scheduler. Serves `video_count` videos from `videos`, or — when
  /// `videos` is null — the one growing video of `live`.
  Result<ClusterStats> RunInternal(const VideoMetadata* videos,
                                   int video_count, LiveFeed* live,
                                   const std::vector<ViewerRequest>& viewers,
                                   const SceneGenerator* reference);

  ShardedStore* store_ = nullptr;  ///< Null on a one-node run.
  /// Catalog and quality-evaluation reads (the store's shard 0 under a
  /// cluster); the node itself on a one-node run.
  StorageManager* storage_ = nullptr;
  ClusterOptions options_;
};

}  // namespace vc

#endif  // VC_SERVER_CLUSTER_SERVER_H_
