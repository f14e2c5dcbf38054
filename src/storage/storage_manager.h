#ifndef VC_STORAGE_STORAGE_MANAGER_H_
#define VC_STORAGE_STORAGE_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "storage/cache.h"
#include "storage/cell_source.h"
#include "storage/metadata.h"

namespace vc {

/// Configuration for opening a VisualCloud store.
struct StorageOptions {
  Env* env = Env::Default();          ///< Filesystem (not owned).
  std::string root;                   ///< Store root directory.
  size_t cache_capacity_bytes = 64ull << 20;  ///< Segment cell cache.
  /// Workers in the dedicated cell-load I/O pool. 0 (the default) keeps
  /// every read synchronous on the caller's thread — the historical
  /// behaviour; > 0 enables ReadCellAsync and overlapped batch reads.
  int io_threads = 0;
  /// Simulated per-load backing-store latency (seconds): every cold cell
  /// read sleeps this long before touching the filesystem, modelling a
  /// remote object store or spinning disk behind the in-process buffer
  /// cache. Cache hits pay nothing. 0 disables; benches use this to make
  /// miss serialization measurable on any host.
  double read_latency_seconds = 0.0;
};

/// \brief VisualCloud's no-overwrite, multi-version storage manager.
///
/// Layout under `root`:
///
///     <root>/<video>/metadata.v<N>.vcmf    one per committed version
///     <root>/<video>/v<N>/s*_t*_q*.vcc     encoded cell streams
///
/// Writes are copy-on-write: committing a video always creates a new
/// version; readers that opened version N keep seeing exactly N's files
/// (snapshot isolation by immutability). Cell reads are checksum-verified
/// and served through an LRU buffer cache at cell (≈GOP) granularity.
///
/// The committed version set — each video's committed versions and its
/// latest version's metadata — lives in memory. It is loaded from disk once,
/// by Open, and updated by each commit and DROP after its Env write
/// succeeds; catalog reads never touch the Env except GetVideoVersion of a
/// version older than the latest. Another StorageManager on the same root
/// sees the commits made before its own Open (DESIGN.md, "Catalog commits").
class StorageManager : public CellSource {
  struct VersionSet;

 public:
  /// Opens (creating the root directory if needed) and loads the committed
  /// version set. A failure to list the store is returned; a video whose
  /// latest metadata file cannot be read or parsed still opens, and
  /// GetVideo reports that error for it.
  static Result<std::unique_ptr<StorageManager>> Open(
      const StorageOptions& options);

  /// \brief Streaming-friendly writer for one new video version.
  ///
  /// Append segments in order, then Commit() to publish atomically. The
  /// version is invisible to readers until Commit writes the metadata file.
  /// The writer holds its version number reserved until it commits or is
  /// destroyed, so no other writer is handed the same number. It shares
  /// the store's version set, so it may be destroyed after its store (its
  /// reservation then goes back to a set nobody reads); every other call
  /// needs the store alive.
  class VideoWriter {
   public:
    ~VideoWriter();
    VideoWriter(const VideoWriter&) = delete;
    VideoWriter& operator=(const VideoWriter&) = delete;

    /// Appends one segment: `cells` holds tile-major × quality-minor encoded
    /// streams (tile_count × quality_count entries).
    Status AddSegment(uint32_t frame_count,
                      const std::vector<std::vector<uint8_t>>& cells);

    /// Publishes the version; returns the assigned version number. The
    /// writer must not be used afterwards. On error nothing is published
    /// and the commit may be retried.
    Result<uint32_t> Commit();

    /// Live-ingest checkpoint: publishes the segments written so far as a
    /// new committed version (flagged `streaming`) and keeps the writer
    /// open under the next version the store hands out. Successive
    /// checkpoints produce versions that share the same data directory —
    /// already-written cells are never copied.
    Result<uint32_t> CommitCheckpoint();

    /// The metadata accumulated so far (pre-commit: version already set).
    const VideoMetadata& metadata() const { return metadata_; }

   private:
    friend class StorageManager;
    VideoWriter(StorageManager* store, VideoMetadata metadata,
                std::string version_dir);

    StorageManager* store_;
    std::shared_ptr<VersionSet> versions_;  ///< Outlives store_ if need be.
    VideoMetadata metadata_;
    std::string version_dir_;
    bool committed_ = false;
  };

  /// Starts writing a new version of `metadata.name`: one past every
  /// version committed or held by a live writer. `metadata.segments` and
  /// `metadata.cells` must be empty; layout fields must validate.
  Result<std::unique_ptr<VideoWriter>> NewVideoWriter(VideoMetadata metadata);

  /// Video names with a committed version (sorted).
  Result<std::vector<std::string>> ListVideos() const;

  /// Committed versions of a video (ascending); NotFound when it has none.
  Result<std::vector<uint32_t>> ListVersions(const std::string& name) const;

  /// Latest committed version's metadata.
  Result<VideoMetadata> GetVideo(const std::string& name) const;

  /// A committed version's metadata; only versions older than the latest
  /// are read from disk.
  Result<VideoMetadata> GetVideoVersion(const std::string& name,
                                        uint32_t version) const;

  /// Reads one encoded cell stream (checksum-verified, cached).
  Result<LruCache::Value> ReadCell(const VideoMetadata& metadata, int segment,
                                   int tile, int quality) override;

  /// Asynchronous ReadCell: validates coordinates, then hands the load to
  /// the I/O pool and returns a handle to its eventual outcome. Demand
  /// loads run on the pool's high-priority lane; kPrefetch loads run on the
  /// low lane and stay invisible to the cache's hit/miss statistics.
  /// Single-flight with every other sync/async read of the same cell. When
  /// the store was opened with `io_threads == 0` the load runs
  /// synchronously on the caller's thread and an already-resolved handle is
  /// returned.
  Result<LruCache::AsyncHandle> ReadCellAsync(
      const VideoMetadata& metadata, int segment, int tile, int quality,
      LoadKind kind = LoadKind::kDemand) override;

  /// Removes a video and all of its versions from disk, catalog and cache.
  Status DropVideo(const std::string& name);

  /// Buffer-cache statistics.
  CacheStats cache_stats() const override { return cache_.stats(); }

  /// The buffer cache: every hit in it is a complete demand read.
  LruCache* nearest_cache() override { return &cache_; }

  /// Drops every cached cell (statistics are preserved). Benchmarks use
  /// this to measure cold-vs-warm cache behaviour between runs.
  void ClearCache();

  Env* env() const { return options_.env; }
  const std::string& root() const { return options_.root; }
  /// The async cell-load pool, or nullptr when `io_threads == 0`.
  ThreadPool* io_pool() const override { return io_pool_.get(); }

  /// The (owning) loader that reads and checksum-verifies one cell of this
  /// store, bypassing its cache; safe to run on a pool thread after the
  /// caller returns. Sharded stores use this to route a cell to its owning
  /// backend while caching in their own tiers.
  LruCache::Loader CellLoader(const VideoMetadata& metadata, int segment,
                              int tile, int quality) const;

 private:
  explicit StorageManager(const StorageOptions& options);

  /// One video in the committed version set.
  struct CatalogEntry {
    std::vector<uint32_t> committed;  ///< ascending
    std::vector<uint32_t> reserved;   ///< held by live writers
    /// The latest committed version's metadata (null when `committed` is
    /// empty or its load at Open failed with `latest_status`).
    std::shared_ptr<const VideoMetadata> latest;
    Status latest_status;
  };

  /// The committed version set, shared with the store's writers.
  struct VersionSet {
    /// Guards `videos` and serializes the metadata writes and DROPs that
    /// change it, so the set and the files never disagree.
    std::mutex mu;
    std::map<std::string, CatalogEntry> videos;

    /// Hands out max(committed ∪ reserved) + 1 and reserves it; needs mu.
    static uint32_t ReserveLocked(CatalogEntry* entry);
    /// Drops a writer's reservation.
    void Release(const std::string& name, uint32_t version);
  };

  std::string VideoDir(const std::string& name) const;
  std::string MetadataPath(const std::string& name, uint32_t version) const;

  /// Builds the committed version set from disk: the only catalog code
  /// that lists directories, and the only parse of latest versions.
  Status LoadCatalog();
  /// Reads and parses one version's metadata file.
  Result<VideoMetadata> ReadVersion(const std::string& name,
                                    uint32_t version) const;
  /// Writes `metadata`'s file and, once that succeeded, adds its version
  /// to the set. With `reserve_next` the writer keeps going: returns the
  /// next version reserved for it (0 otherwise).
  Result<uint32_t> Publish(const VideoMetadata& metadata, bool reserve_next);

  StorageOptions options_;
  LruCache cache_;
  /// Declared after cache_: destroyed (shut down and joined) first, so no
  /// in-flight loader can touch a dead cache.
  std::unique_ptr<ThreadPool> io_pool_;
  const std::shared_ptr<VersionSet> versions_;
};

/// \brief The backing-store read of one cell (`store`'s CellLoader) as a
/// synchronous cache loader.
///
/// Hand it to a cache through a lambda that captures only a reference to
/// it: std::function stores such a lambda inline, so a read that turns out
/// to be a hit allocates nothing, and the loader and file path are built
/// only by the read that runs the load.
struct CellLoad {
  const StorageManager* store;
  const VideoMetadata& metadata;
  int segment;
  int tile;
  int quality;

  Result<LruCache::Value> operator()() const {
    return store->CellLoader(metadata, segment, tile, quality)();
  }
};

}  // namespace vc

#endif  // VC_STORAGE_STORAGE_MANAGER_H_
