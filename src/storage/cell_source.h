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

  /// Reads one encoded cell stream (checksum-verified, cached).
  virtual Result<LruCache::Value> ReadCell(const VideoMetadata& metadata,
                                           int segment, int tile,
                                           int quality) = 0;

  /// Asynchronous ReadCell: hands the load to the I/O pool and returns a
  /// handle to its eventual outcome. kPrefetch loads run on the low lane
  /// and stay invisible to demand hit/miss statistics. Synchronous when
  /// there is no I/O pool.
  virtual Result<LruCache::AsyncHandle> ReadCellAsync(
      const VideoMetadata& metadata, int segment, int tile, int quality,
      LoadKind kind = LoadKind::kDemand) = 0;

  /// Demand-reads one cell per tile of `segment` at the planned qualities
  /// (`tile_qualities[t]` is tile t's ladder rung). Without an I/O pool the
  /// tiles are read in order as runs of consecutive hits in nearest_cache(),
  /// each run under one cache lock (LruCache::TouchCachedRun), with
  /// ReadCell called only on the tile where a run stops: a miss, an entry
  /// still tagged as prefetched, or an out-of-range cell. With a pool,
  /// every tile's load is issued first (cold tiles overlap on the pool),
  /// then awaited in tile order. Either way the first error in tile order
  /// wins and no later tile is read.
  virtual Status ReadPlannedCells(const VideoMetadata& metadata, int segment,
                                  const std::vector<int>& tile_qualities);

  /// The cache closest to this reader in which a hit is a complete demand
  /// read (nothing left to load, credit or promote): ReadPlannedCells
  /// serves runs of such hits straight from it. The default, nullptr,
  /// sends every tile through ReadCell.
  virtual LruCache* nearest_cache() { return nullptr; }

  /// The async cell-load pool, or nullptr when every read is synchronous.
  virtual ThreadPool* io_pool() const = 0;

  /// Statistics of the cache closest to this reader (a node's private L1;
  /// the one and only cache of a plain StorageManager).
  virtual CacheStats cache_stats() const = 0;
};

}  // namespace vc

#endif  // VC_STORAGE_CELL_SOURCE_H_
