#ifndef VC_STORAGE_CELL_SOURCE_H_
#define VC_STORAGE_CELL_SOURCE_H_

#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/cache.h"
#include "storage/metadata.h"

namespace vc {

class Counter;
class Histogram;

/// The `storage.*` read metrics every CellSource reports under, so
/// session-level observability cannot tell which topology served a read.
struct CellReadMetrics {
  Counter* reads;           ///< storage.cell_reads (every demand read)
  Counter* read_bytes;      ///< storage.cell_read_bytes
  Histogram* read_seconds;  ///< storage.read_seconds (misses only)

  static const CellReadMetrics& Get();

  /// Records one finished demand read: its bytes and, when it missed the
  /// reader's nearest cache (`miss_seconds >= 0`), its latency. A hit
  /// passes a negative value: hits are counted, never timed.
  void Record(const Result<LruCache::Value>& value, double miss_seconds) const;
};

/// \brief Read-side interface over stored segment cells.
///
/// Sessions and the prefetcher only ever *read* cells, so this is the seam
/// between the serving layer and the storage topology: a plain
/// StorageManager satisfies it directly, and a sharded store's per-node
/// view (private L1 over a shared L2, cells routed to their owning backend
/// by consistent hash) satisfies it too — the session code cannot tell the
/// difference. Implementations are thread-safe.
class CellSource {
 public:
  virtual ~CellSource() = default;

  /// The one cell read: returns a handle to one encoded cell stream
  /// (checksum-verified, cached), handing a miss's load to the I/O pool.
  /// kPrefetch loads run on the low lane and stay invisible to demand
  /// hit/miss statistics. Without an I/O pool the load runs on the calling
  /// thread and the handle is resolved on return, unless it shares another
  /// thread's load of the same cell.
  virtual Result<LruCache::AsyncHandle> ReadCellAsync(
      const VideoMetadata& metadata, int segment, int tile, int quality,
      LoadKind kind = LoadKind::kDemand) = 0;

  /// Demand-reads one cell and waits for it: ReadCellAsync, then Wait,
  /// recorded in CellReadMetrics (a miss is timed from the request to its
  /// outcome).
  virtual Result<LruCache::Value> ReadCell(const VideoMetadata& metadata,
                                           int segment, int tile,
                                           int quality);

  /// Demand-reads one cell per tile of `segment` at the planned qualities
  /// (`tile_qualities[t]` is tile t's ladder rung). Tiles are read in order
  /// as runs of consecutive hits in nearest_cache(), each run under one
  /// cache lock (LruCache::TouchCachedRun), with ReadCellAsync called only
  /// on the tile where a run stops: a miss, an entry still tagged as
  /// prefetched, or an out-of-range cell. With an I/O pool every load, done
  /// or not when its tile is issued, is awaited in tile order after the
  /// last tile is issued (so cold tiles overlap); without one, only a load
  /// shared with another thread is. The first error in tile order wins. An
  /// error known at issue — a cell out of range, or a failed load that ran
  /// on the calling thread — stops the loop, so no later tile is read; a
  /// pooled load's failure never does, so every later tile is read.
  virtual Status ReadPlannedCells(const VideoMetadata& metadata, int segment,
                                  const std::vector<int>& tile_qualities);

  /// The cache closest to this reader in which a hit is a complete demand
  /// read (nothing left to load, credit or promote): ReadPlannedCells
  /// serves runs of such hits straight from it. The default, nullptr,
  /// sends every tile through ReadCellAsync.
  virtual LruCache* nearest_cache() { return nullptr; }

  /// The async cell-load pool, or nullptr when every read is synchronous.
  virtual ThreadPool* io_pool() const = 0;

  /// Statistics of the cache closest to this reader (a node's private L1;
  /// the one and only cache of a plain StorageManager).
  virtual CacheStats cache_stats() const = 0;
};

}  // namespace vc

#endif  // VC_STORAGE_CELL_SOURCE_H_
