#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Thin pass-through decorators over the library's public seams: `Env`
// (every persisted byte), `CellSource` (the serving read path, installed
// through SessionOptions::cell_source) and `CatalogObserver` (commit
// notifications). Each forwards every call unchanged and accumulates what
// crossed the seam. Counts and bytes are always accumulated (relaxed
// atomics); call timing and spans are taken only while the global tracer
// is enabled, so an untraced run pays a few atomic adds per call.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/visualcloud.h"
#include "storage/cell_source.h"

namespace perfbench {

/// Totals of one seam, copyable for before/after deltas.
struct EnvTotals {
  uint64_t writes = 0;          ///< WriteFile + AppendFile calls.
  uint64_t write_bytes = 0;
  uint64_t metadata_writes = 0; ///< Writes of catalog metadata files.
  uint64_t metadata_bytes = 0;
  uint64_t reads = 0;           ///< ReadFile + ReadFileRange calls.
  uint64_t read_bytes = 0;
  uint64_t other_ops = 0;       ///< Size/exists/delete/rename/dir calls.
  int64_t write_ns = 0;         ///< Timed only while tracing.
  int64_t read_ns = 0;
  int64_t other_ns = 0;

  EnvTotals operator-(const EnvTotals& before) const;
  EnvTotals& operator+=(const EnvTotals& delta);
};

class CountingEnv : public vc::Env {
 public:
  explicit CountingEnv(std::unique_ptr<vc::Env> base);

  vc::Status WriteFile(const std::string& path, vc::Slice contents) override;
  vc::Status AppendFile(const std::string& path, vc::Slice contents) override;
  vc::Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  vc::Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                                 uint64_t offset,
                                                 uint64_t length) override;
  vc::Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  vc::Status DeleteFile(const std::string& path) override;
  vc::Status RenameFile(const std::string& from,
                        const std::string& to) override;
  vc::Status CreateDirs(const std::string& path) override;
  vc::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  vc::Status RemoveDirRecursive(const std::string& path) override;

  EnvTotals totals() const;

 private:
  void CountWrite(const std::string& path, uint64_t bytes, int64_t ns);
  void CountRead(uint64_t bytes, int64_t ns);
  void CountOther(int64_t ns);

  std::unique_ptr<vc::Env> base_;
  std::atomic<uint64_t> writes_{0}, write_bytes_{0}, metadata_writes_{0},
      metadata_bytes_{0}, reads_{0}, read_bytes_{0}, other_ops_{0};
  std::atomic<int64_t> write_ns_{0}, read_ns_{0}, other_ns_{0};
};

struct CellSourceTotals {
  uint64_t calls = 0;  ///< ReadCell / ReadCellAsync / ReadPlannedCells calls.
  uint64_t cells = 0;  ///< Cells requested through those calls.
  int64_t ns = 0;      ///< Timed only while tracing.

  CellSourceTotals operator-(const CellSourceTotals& before) const;
};

class CountingCellSource : public vc::CellSource {
 public:
  explicit CountingCellSource(vc::CellSource* base) : base_(base) {}

  vc::Result<vc::LruCache::Value> ReadCell(const vc::VideoMetadata& metadata,
                                           int segment, int tile,
                                           int quality) override;
  vc::Result<vc::LruCache::AsyncHandle> ReadCellAsync(
      const vc::VideoMetadata& metadata, int segment, int tile, int quality,
      vc::LoadKind kind) override;
  vc::Status ReadPlannedCells(const vc::VideoMetadata& metadata, int segment,
                              const std::vector<int>& tile_qualities) override;
  vc::ThreadPool* io_pool() const override { return base_->io_pool(); }
  vc::CacheStats cache_stats() const override { return base_->cache_stats(); }

  CellSourceTotals totals() const;

 private:
  void Count(uint64_t cells, int64_t ns);

  vc::CellSource* base_;
  std::atomic<uint64_t> calls_{0}, cells_{0};
  std::atomic<int64_t> ns_{0};
};

/// Counts commit notifications (a span each while tracing) and forwards
/// them to an optional inner observer, e.g. a view maintainer.
class CountingObserver : public vc::CatalogObserver {
 public:
  explicit CountingObserver(vc::CatalogObserver* inner = nullptr)
      : inner_(inner) {}

  void OnCommit(const std::string& name, uint32_t version,
                bool final) override;

  uint64_t commits() const { return commits_.load(); }
  uint64_t final_commits() const { return final_commits_.load(); }

 private:
  vc::CatalogObserver* inner_;
  std::atomic<uint64_t> commits_{0}, final_commits_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
