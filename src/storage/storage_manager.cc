#include "storage/storage_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "storage/cell_key.h"

namespace vc {

namespace {

constexpr char kMetadataPrefix[] = "metadata.v";
constexpr char kMetadataSuffix[] = ".vcmf";

/// Parses "metadata.v<N>.vcmf" into N; returns 0 for non-matching names.
/// N must be canonical decimal (no sign, no leading zero) in [1, 2^32 - 1]:
/// exactly the names MetadataPath writes, so a listed version always opens.
uint32_t VersionFromMetadataName(const std::string& filename) {
  const size_t prefix_len = sizeof(kMetadataPrefix) - 1;
  const size_t suffix_len = sizeof(kMetadataSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return 0;
  if (filename.compare(0, prefix_len, kMetadataPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kMetadataSuffix) != 0) {
    return 0;
  }
  if (filename[prefix_len] == '0') return 0;
  uint64_t version = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return 0;
    version = version * 10 + static_cast<uint64_t>(filename[i] - '0');
    if (version > 0xffffffffull) return 0;
  }
  return static_cast<uint32_t>(version);
}

}  // namespace

StorageManager::StorageManager(const StorageOptions& options)
    : options_(options),
      cache_(options.cache_capacity_bytes),
      versions_(std::make_shared<VersionSet>()) {
  if (options.io_threads > 0) {
    io_pool_ = std::make_unique<ThreadPool>(options.io_threads);
  }
}

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const StorageOptions& options) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("StorageOptions.env must not be null");
  }
  if (options.root.empty()) {
    return Status::InvalidArgument("StorageOptions.root must not be empty");
  }
  if (options.io_threads < 0) {
    return Status::InvalidArgument("StorageOptions.io_threads must be >= 0");
  }
  if (options.read_latency_seconds < 0) {
    return Status::InvalidArgument(
        "StorageOptions.read_latency_seconds must be >= 0");
  }
  VC_RETURN_IF_ERROR(options.env->CreateDirs(options.root));
  std::unique_ptr<StorageManager> store(new StorageManager(options));
  VC_RETURN_IF_ERROR(store->LoadCatalog());
  return store;
}

Status StorageManager::LoadCatalog() {
  std::vector<std::string> names;
  VC_ASSIGN_OR_RETURN(names, options_.env->ListDir(options_.root));
  for (const std::string& name : names) {
    // A listing failure is returned, never read as "no versions": an empty
    // entry would hand out version 1 again and overwrite committed cells.
    auto entries = options_.env->ListDir(VideoDir(name));
    if (!entries.ok()) {
      if (entries.status().IsNotFound()) continue;  // a file, not a video
      return entries.status();
    }
    std::vector<uint32_t> versions;
    for (const std::string& entry : *entries) {
      uint32_t version = VersionFromMetadataName(entry);
      if (version > 0) versions.push_back(version);
    }
    if (versions.empty()) continue;
    std::sort(versions.begin(), versions.end());
    CatalogEntry& video = versions_->videos[name];
    video.committed = std::move(versions);
    auto latest = ReadVersion(name, video.committed.back());
    if (latest.ok()) {
      video.latest =
          std::make_shared<const VideoMetadata>(*std::move(latest));
    } else {
      video.latest_status = latest.status();
    }
  }
  return Status::OK();
}

std::string StorageManager::VideoDir(const std::string& name) const {
  return options_.root + "/" + name;
}

std::string StorageManager::MetadataPath(const std::string& name,
                                         uint32_t version) const {
  return VideoDir(name) + "/" + kMetadataPrefix + std::to_string(version) +
         kMetadataSuffix;
}

StorageManager::VideoWriter::VideoWriter(StorageManager* store,
                                         VideoMetadata metadata,
                                         std::string version_dir)
    : store_(store),
      versions_(store->versions_),
      metadata_(std::move(metadata)),
      version_dir_(std::move(version_dir)) {}

StorageManager::VideoWriter::~VideoWriter() {
  if (!committed_) versions_->Release(metadata_.name, metadata_.version);
}

uint32_t StorageManager::VersionSet::ReserveLocked(CatalogEntry* entry) {
  uint32_t version = entry->committed.empty() ? 0 : entry->committed.back();
  for (uint32_t held : entry->reserved) version = std::max(version, held);
  entry->reserved.push_back(version + 1);
  return version + 1;
}

void StorageManager::VersionSet::Release(const std::string& name,
                                         uint32_t version) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = videos.find(name);
  if (it == videos.end()) return;
  std::vector<uint32_t>& reserved = it->second.reserved;
  reserved.erase(std::remove(reserved.begin(), reserved.end(), version),
                 reserved.end());
  if (reserved.empty() && it->second.committed.empty()) videos.erase(it);
}

Result<std::unique_ptr<StorageManager::VideoWriter>>
StorageManager::NewVideoWriter(VideoMetadata metadata) {
  if (!metadata.segments.empty() || !metadata.cells.empty()) {
    return Status::InvalidArgument(
        "NewVideoWriter expects empty segment/cell lists");
  }
  // Validate layout fields using a dummy single segment.
  VideoMetadata probe = metadata;
  probe.segments = {SegmentInfo{0, metadata.frames_per_segment}};
  probe.cells.assign(
      static_cast<size_t>(probe.tile_count()) * probe.quality_count(),
      CellInfo{});
  probe.version = 1;
  VC_RETURN_IF_ERROR(probe.Validate());

  {
    std::lock_guard<std::mutex> lock(versions_->mu);
    metadata.version =
        VersionSet::ReserveLocked(&versions_->videos[metadata.name]);
  }
  metadata.data_dir = "v" + std::to_string(metadata.version);
  std::string dir = VideoDir(metadata.name) + "/" + metadata.data_dir;
  // From here on the writer owns the reservation and releases it if it
  // never commits, including when this function fails.
  std::unique_ptr<VideoWriter> writer(
      new VideoWriter(this, std::move(metadata), std::move(dir)));
  VC_RETURN_IF_ERROR(options_.env->CreateDirs(writer->version_dir_));
  return writer;
}

Status StorageManager::VideoWriter::AddSegment(
    uint32_t frame_count, const std::vector<std::vector<uint8_t>>& cells) {
  if (committed_) return Status::Aborted("writer already committed");
  size_t expected =
      static_cast<size_t>(metadata_.tile_count()) * metadata_.quality_count();
  if (cells.size() != expected) {
    return Status::InvalidArgument(
        "segment cell count mismatch: have " + std::to_string(cells.size()) +
        ", want " + std::to_string(expected));
  }
  if (frame_count == 0) {
    return Status::InvalidArgument("segment must contain frames");
  }
  uint32_t start = 0;
  if (!metadata_.segments.empty()) {
    start = metadata_.segments.back().start_frame +
            metadata_.segments.back().frame_count;
  }
  int segment = metadata_.segment_count();
  for (int tile = 0; tile < metadata_.tile_count(); ++tile) {
    for (int quality = 0; quality < metadata_.quality_count(); ++quality) {
      const auto& payload =
          cells[static_cast<size_t>(tile) * metadata_.quality_count() +
                quality];
      std::string path = version_dir_ + "/" +
                         metadata_.CellFileName(segment, tile, quality);
      VC_RETURN_IF_ERROR(
          store_->options_.env->WriteFile(path, Slice(payload)));
      CellInfo info;
      info.byte_size = payload.size();
      info.crc32 = Crc32(Slice(payload));
      metadata_.cells.push_back(info);
    }
  }
  metadata_.segments.push_back(SegmentInfo{start, frame_count});
  return Status::OK();
}

Result<uint32_t> StorageManager::VideoWriter::Commit() {
  if (committed_) return Status::Aborted("writer already committed");
  metadata_.streaming = false;
  VC_RETURN_IF_ERROR(metadata_.Validate());
  VC_RETURN_IF_ERROR(store_->Publish(metadata_, /*reserve_next=*/false)
                         .status());
  committed_ = true;
  return metadata_.version;
}

Result<uint32_t> StorageManager::VideoWriter::CommitCheckpoint() {
  if (committed_) return Status::Aborted("writer already committed");
  metadata_.streaming = true;
  VC_RETURN_IF_ERROR(metadata_.Validate());
  uint32_t published = metadata_.version;
  // Continue into the next version, reusing the same data directory so the
  // cells published so far are shared, not copied.
  VC_ASSIGN_OR_RETURN(metadata_.version,
                      store_->Publish(metadata_, /*reserve_next=*/true));
  return published;
}

Result<uint32_t> StorageManager::Publish(const VideoMetadata& metadata,
                                         bool reserve_next) {
  const std::vector<uint8_t> bytes = metadata.Serialize();
  auto snapshot = std::make_shared<const VideoMetadata>(metadata);
  std::lock_guard<std::mutex> lock(versions_->mu);
  // The commit point: the cells are written, and the version exists once
  // its metadata file does. The set changes only after that write.
  VC_RETURN_IF_ERROR(options_.env->WriteFile(
      MetadataPath(metadata.name, metadata.version), Slice(bytes)));
  CatalogEntry& entry = versions_->videos[metadata.name];
  std::vector<uint32_t>& committed = entry.committed;
  auto at = std::lower_bound(committed.begin(), committed.end(),
                             metadata.version);
  if (at == committed.end() || *at != metadata.version) {
    committed.insert(at, metadata.version);
  }
  if (committed.back() == metadata.version) {
    entry.latest = std::move(snapshot);
    entry.latest_status = Status::OK();
  }
  entry.reserved.erase(std::remove(entry.reserved.begin(),
                                   entry.reserved.end(), metadata.version),
                       entry.reserved.end());
  return reserve_next ? VersionSet::ReserveLocked(&entry) : 0;
}

Result<std::vector<std::string>> StorageManager::ListVideos() const {
  std::vector<std::string> videos;
  std::lock_guard<std::mutex> lock(versions_->mu);
  for (const auto& [name, entry] : versions_->videos) {
    if (!entry.committed.empty()) videos.push_back(name);
  }
  return videos;
}

Result<std::vector<uint32_t>> StorageManager::ListVersions(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(versions_->mu);
  auto it = versions_->videos.find(name);
  if (it == versions_->videos.end() || it->second.committed.empty()) {
    return Status::NotFound("video '" + name + "' not in catalog");
  }
  return it->second.committed;
}

Result<VideoMetadata> StorageManager::GetVideo(const std::string& name) const {
  std::shared_ptr<const VideoMetadata> latest;
  {
    std::lock_guard<std::mutex> lock(versions_->mu);
    auto it = versions_->videos.find(name);
    if (it == versions_->videos.end() || it->second.committed.empty()) {
      return Status::NotFound("video '" + name + "' not in catalog");
    }
    if (!it->second.latest) return it->second.latest_status;
    latest = it->second.latest;
  }
  return *latest;
}

Result<VideoMetadata> StorageManager::GetVideoVersion(
    const std::string& name, uint32_t version) const {
  {
    std::lock_guard<std::mutex> lock(versions_->mu);
    auto it = versions_->videos.find(name);
    const std::vector<uint32_t>* committed =
        it == versions_->videos.end() ? nullptr : &it->second.committed;
    if (committed == nullptr ||
        !std::binary_search(committed->begin(), committed->end(), version)) {
      return Status::NotFound("video '" + name + "' version " +
                              std::to_string(version) + " not found");
    }
    if (version == committed->back()) {
      if (!it->second.latest) return it->second.latest_status;
      std::shared_ptr<const VideoMetadata> latest = it->second.latest;
      return *latest;
    }
  }
  return ReadVersion(name, version);
}

Result<VideoMetadata> StorageManager::ReadVersion(const std::string& name,
                                                  uint32_t version) const {
  auto bytes = options_.env->ReadFile(MetadataPath(name, version));
  if (!bytes.ok()) {
    return Status::NotFound("video '" + name + "' version " +
                            std::to_string(version) + " not found");
  }
  return VideoMetadata::Parse(Slice(*bytes));
}

LruCache::Loader StorageManager::CellLoader(const VideoMetadata& metadata,
                                            int segment, int tile,
                                            int quality) const {
  // Owning captures only: the loader may run on an I/O pool thread after
  // the calling frame (and its metadata reference) is gone.
  std::string path = VideoDir(metadata.name) + "/" + metadata.DataDir() +
                     "/" + CellKey{segment, tile, quality}.FileName(metadata);
  CellInfo info = metadata.cells[metadata.CellIndex(segment, tile, quality)];
  Env* env = options_.env;
  double latency = options_.read_latency_seconds;
  return [path = std::move(path), info, env,
          latency]() -> Result<LruCache::Value> {
    if (latency > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(latency));
    }
    std::vector<uint8_t> bytes;
    VC_ASSIGN_OR_RETURN(bytes, env->ReadFile(path));
    if (bytes.size() != info.byte_size || Crc32(Slice(bytes)) != info.crc32) {
      return Status::Corruption("cell '" + path + "' fails checksum");
    }
    return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  };
}

Result<LruCache::Value> StorageManager::ReadCell(
    const VideoMetadata& metadata, int segment, int tile, int quality) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  const CellReadMetrics& metrics = CellReadMetrics::Get();
  metrics.reads->Add();
  // Single-flight through the cache: when many concurrent sessions miss on
  // the same popular cell, exactly one hits the filesystem; the rest share
  // its result. The packed cache key is three shifts and an OR; the file
  // path and the clock are only touched on misses.
  CellLoad load{this, metadata, segment, tile, quality};
  double miss_seconds = -1.0;
  Result<LruCache::Value> value =
      cache_.GetOrCompute(cell.Packed(metadata), [&load] { return load(); },
                          nullptr, nullptr, &miss_seconds);
  metrics.Record(value, miss_seconds);
  return value;
}

Result<LruCache::AsyncHandle> StorageManager::ReadCellAsync(
    const VideoMetadata& metadata, int segment, int tile, int quality,
    LoadKind kind) {
  CellKey cell{segment, tile, quality};
  if (!cell.InRange(metadata)) {
    return Status::InvalidArgument("cell coordinates out of range");
  }
  if (kind == LoadKind::kDemand) CellReadMetrics::Get().reads->Add();
  // A null pool makes GetOrComputeAsync run the load synchronously and
  // return a resolved handle, so callers need not care whether the store
  // has an I/O pipeline.
  return cache_.GetOrComputeAsync(cell.Packed(metadata),
                                  CellLoader(metadata, segment, tile, quality),
                                  io_pool_.get(), kind);
}

void StorageManager::ClearCache() { cache_.Clear(); }

Status StorageManager::DropVideo(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(versions_->mu);
    auto it = versions_->videos.find(name);
    if (it == versions_->videos.end() || it->second.committed.empty()) {
      return Status::NotFound("video '" + name + "' not in catalog");
    }
    VC_RETURN_IF_ERROR(options_.env->RemoveDirRecursive(VideoDir(name)));
    if (it->second.reserved.empty()) {
      versions_->videos.erase(it);
    } else {
      it->second.committed.clear();
      it->second.latest.reset();
    }
  }
  cache_.Clear();
  return Status::OK();
}

}  // namespace vc
