#include "server/streaming_server.h"

#include <utility>

#include "server/cluster_server.h"

namespace vc {

Status ServerOptions::Validate() const {
  if (max_concurrent_sessions < 1) {
    return Status::InvalidArgument("max_concurrent_sessions must be >= 1");
  }
  if (bandwidth_budget_bps < 0) {
    return Status::InvalidArgument("bandwidth_budget_bps must be >= 0");
  }
  return Status::OK();
}

StreamingServer::StreamingServer(StorageManager* storage,
                                 const ServerOptions& options)
    : storage_(storage), options_(options) {}

Result<ServerStats> StreamingServer::Run(
    const VideoMetadata& metadata, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  ClusterStats stats;
  VC_ASSIGN_OR_RETURN(stats, ClusterServer(storage_, options_)
                                 .RunInternal(&metadata, 1, nullptr, viewers,
                                              reference));
  return std::move(stats.totals);
}

Result<ServerStats> StreamingServer::RunLive(
    LiveFeed* feed, const std::vector<ViewerRequest>& viewers,
    const SceneGenerator* reference) {
  ClusterStats stats;
  VC_ASSIGN_OR_RETURN(stats, ClusterServer(storage_, options_)
                                 .RunInternal(nullptr, 1, feed, viewers,
                                              reference));
  return std::move(stats.totals);
}

}  // namespace vc
