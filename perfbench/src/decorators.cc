#include "decorators.h"

#include "trace.h"

namespace perfbench {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// Times one forwarded call and records its span while tracing.
class SeamTimer {
 public:
  explicit SeamTimer(const char* name)
      : traced_(Tracer::Global().enabled()),
        span_(traced_ ? Tracer::Global().Begin(name) : 0),
        start_(traced_ ? NowNs() : 0) {}
  ~SeamTimer() {
    if (span_ != 0) Tracer::Global().End(span_);
  }
  SeamTimer(const SeamTimer&) = delete;
  SeamTimer& operator=(const SeamTimer&) = delete;

  int64_t ElapsedNs() const { return traced_ ? NowNs() - start_ : 0; }

 private:
  bool traced_;
  uint64_t span_;
  int64_t start_;
};

bool IsMetadataPath(const std::string& path) {
  size_t slash = path.rfind('/');
  return path.compare(slash == std::string::npos ? 0 : slash + 1, 10,
                      "metadata.v") == 0;
}

}  // namespace

EnvTotals EnvTotals::operator-(const EnvTotals& b) const {
  EnvTotals d;
  d.writes = writes - b.writes;
  d.write_bytes = write_bytes - b.write_bytes;
  d.metadata_writes = metadata_writes - b.metadata_writes;
  d.metadata_bytes = metadata_bytes - b.metadata_bytes;
  d.reads = reads - b.reads;
  d.read_bytes = read_bytes - b.read_bytes;
  d.other_ops = other_ops - b.other_ops;
  d.write_ns = write_ns - b.write_ns;
  d.read_ns = read_ns - b.read_ns;
  d.other_ns = other_ns - b.other_ns;
  return d;
}

EnvTotals& EnvTotals::operator+=(const EnvTotals& d) {
  writes += d.writes;
  write_bytes += d.write_bytes;
  metadata_writes += d.metadata_writes;
  metadata_bytes += d.metadata_bytes;
  reads += d.reads;
  read_bytes += d.read_bytes;
  other_ops += d.other_ops;
  write_ns += d.write_ns;
  read_ns += d.read_ns;
  other_ns += d.other_ns;
  return *this;
}

CountingEnv::CountingEnv(std::unique_ptr<vc::Env> base)
    : base_(std::move(base)) {}

void CountingEnv::CountWrite(const std::string& path, uint64_t bytes,
                             int64_t ns) {
  writes_.fetch_add(1, kRelaxed);
  write_bytes_.fetch_add(bytes, kRelaxed);
  write_ns_.fetch_add(ns, kRelaxed);
  if (IsMetadataPath(path)) {
    metadata_writes_.fetch_add(1, kRelaxed);
    metadata_bytes_.fetch_add(bytes, kRelaxed);
  }
}

void CountingEnv::CountRead(uint64_t bytes, int64_t ns) {
  reads_.fetch_add(1, kRelaxed);
  read_bytes_.fetch_add(bytes, kRelaxed);
  read_ns_.fetch_add(ns, kRelaxed);
}

void CountingEnv::CountOther(int64_t ns) {
  other_ops_.fetch_add(1, kRelaxed);
  other_ns_.fetch_add(ns, kRelaxed);
}

vc::Status CountingEnv::WriteFile(const std::string& path,
                                  vc::Slice contents) {
  SeamTimer timer("env.WriteFile");
  vc::Status status = base_->WriteFile(path, contents);
  CountWrite(path, contents.size(), timer.ElapsedNs());
  return status;
}

vc::Status CountingEnv::AppendFile(const std::string& path,
                                   vc::Slice contents) {
  SeamTimer timer("env.AppendFile");
  vc::Status status = base_->AppendFile(path, contents);
  CountWrite(path, contents.size(), timer.ElapsedNs());
  return status;
}

vc::Result<std::vector<uint8_t>> CountingEnv::ReadFile(
    const std::string& path) {
  SeamTimer timer("env.ReadFile");
  auto result = base_->ReadFile(path);
  CountRead(result.ok() ? result->size() : 0, timer.ElapsedNs());
  return result;
}

vc::Result<std::vector<uint8_t>> CountingEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  SeamTimer timer("env.ReadFileRange");
  auto result = base_->ReadFileRange(path, offset, length);
  CountRead(result.ok() ? result->size() : 0, timer.ElapsedNs());
  return result;
}

vc::Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  SeamTimer timer("env.FileSize");
  auto result = base_->FileSize(path);
  CountOther(timer.ElapsedNs());
  return result;
}

bool CountingEnv::FileExists(const std::string& path) {
  SeamTimer timer("env.FileExists");
  bool exists = base_->FileExists(path);
  CountOther(timer.ElapsedNs());
  return exists;
}

vc::Status CountingEnv::DeleteFile(const std::string& path) {
  SeamTimer timer("env.DeleteFile");
  vc::Status status = base_->DeleteFile(path);
  CountOther(timer.ElapsedNs());
  return status;
}

vc::Status CountingEnv::RenameFile(const std::string& from,
                                   const std::string& to) {
  SeamTimer timer("env.RenameFile");
  vc::Status status = base_->RenameFile(from, to);
  CountOther(timer.ElapsedNs());
  return status;
}

vc::Status CountingEnv::CreateDirs(const std::string& path) {
  SeamTimer timer("env.CreateDirs");
  vc::Status status = base_->CreateDirs(path);
  CountOther(timer.ElapsedNs());
  return status;
}

vc::Result<std::vector<std::string>> CountingEnv::ListDir(
    const std::string& path) {
  SeamTimer timer("env.ListDir");
  auto result = base_->ListDir(path);
  CountOther(timer.ElapsedNs());
  return result;
}

vc::Status CountingEnv::RemoveDirRecursive(const std::string& path) {
  SeamTimer timer("env.RemoveDirRecursive");
  vc::Status status = base_->RemoveDirRecursive(path);
  CountOther(timer.ElapsedNs());
  return status;
}

EnvTotals CountingEnv::totals() const {
  EnvTotals t;
  t.writes = writes_.load(kRelaxed);
  t.write_bytes = write_bytes_.load(kRelaxed);
  t.metadata_writes = metadata_writes_.load(kRelaxed);
  t.metadata_bytes = metadata_bytes_.load(kRelaxed);
  t.reads = reads_.load(kRelaxed);
  t.read_bytes = read_bytes_.load(kRelaxed);
  t.other_ops = other_ops_.load(kRelaxed);
  t.write_ns = write_ns_.load(kRelaxed);
  t.read_ns = read_ns_.load(kRelaxed);
  t.other_ns = other_ns_.load(kRelaxed);
  return t;
}

CellSourceTotals CellSourceTotals::operator-(
    const CellSourceTotals& b) const {
  return CellSourceTotals{calls - b.calls, cells - b.cells, ns - b.ns};
}

void CountingCellSource::Count(uint64_t cells, int64_t ns) {
  calls_.fetch_add(1, kRelaxed);
  cells_.fetch_add(cells, kRelaxed);
  ns_.fetch_add(ns, kRelaxed);
}

vc::Result<vc::LruCache::Value> CountingCellSource::ReadCell(
    const vc::VideoMetadata& metadata, int segment, int tile, int quality) {
  SeamTimer timer("storage.ReadCell");
  auto result = base_->ReadCell(metadata, segment, tile, quality);
  Count(1, timer.ElapsedNs());
  return result;
}

vc::Result<vc::LruCache::AsyncHandle> CountingCellSource::ReadCellAsync(
    const vc::VideoMetadata& metadata, int segment, int tile, int quality,
    vc::LoadKind kind) {
  SeamTimer timer("storage.ReadCellAsync");
  auto result = base_->ReadCellAsync(metadata, segment, tile, quality, kind);
  Count(1, timer.ElapsedNs());
  return result;
}

vc::Status CountingCellSource::ReadPlannedCells(
    const vc::VideoMetadata& metadata, int segment,
    const std::vector<int>& tile_qualities) {
  SeamTimer timer("storage.ReadPlannedCells");
  vc::Status status =
      base_->ReadPlannedCells(metadata, segment, tile_qualities);
  Count(tile_qualities.size(), timer.ElapsedNs());
  return status;
}

CellSourceTotals CountingCellSource::totals() const {
  return CellSourceTotals{calls_.load(kRelaxed), cells_.load(kRelaxed),
                          ns_.load(kRelaxed)};
}

void CountingObserver::OnCommit(const std::string& name, uint32_t version,
                                bool final) {
  SeamTimer timer("catalog.OnCommit");
  commits_.fetch_add(1, kRelaxed);
  if (final) final_commits_.fetch_add(1, kRelaxed);
  if (inner_ != nullptr) inner_->OnCommit(name, version, final);
}

}  // namespace perfbench
