// `ingest`: live-publishing ingest of the standard scenes.
//
// Four live streams — one per standard scene (timelapse, venice, coaster)
// plus a "cycled" stream whose segments rotate through the three scenes in
// a seeded order — are appended to round-robin, one segment per request.
// Each stream is a LiveIngestSession with publish_segments = true, so a
// request covers the segment's encode (on the encode pool), its cell
// writes and the checkpoint commit; the request that appends a video's
// last segment also closes it (the archived commit). Videos are
// kVideoSegments long; a closed video is verified and dropped untimed and
// the stream starts a new one, so requests stay stationary however long
// the run is.

#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kVideoSegments = 8;
constexpr int kStreams = 4;  // three scenes + the cycled stream
const char* const kStreamNames[kStreams] = {"timelapse", "venice", "coaster",
                                            "cycled"};
constexpr int kOfflineStream = 1;  // venice: compared with IngestScene
// The encode pool runs one worker. With two, a request's wall time
// depended on whether the host gave the second worker a CPU at that
// moment: on a shared 4-vCPU VM the achieved parallelism of one seed
// ranged 1.44-1.73 between runs and moved p95 by a third, which no
// single-thread calibration can correct.
constexpr int kEncodeThreads = 1;

/// What one cycle position produced; the timed loop must reproduce it.
struct Outputs {
  uint64_t write_bytes = 0;
  uint64_t commits = 0;
  uint64_t cell_crcs = 0;  ///< Hash of the segment's cell CRCs.

  bool operator==(const Outputs&) const = default;
};

struct LayerSums {
  double wall_s = 0, encode_s = 0;
  uint64_t sad_evals = 0, hinted = 0, full = 0, commits = 0;
  EnvTotals env;
};

class IngestWorkload : public Workload {
 public:
  const char* name() const override { return "ingest"; }
  const char* work_unit() const override { return "segment"; }
  int CycleLength() const override { return kStreams * kVideoSegments; }

  std::map<std::string, std::string> Config() const override {
    return {{"encode_threads", std::to_string(kEncodeThreads)},
            {"ingest.video_segments", std::to_string(kVideoSegments)},
            {"ingest.streams", "timelapse,venice,coaster,cycled"},
            {"store", "in-memory Env"}};
  }

  vc::Status Setup(uint64_t seed) override;
  vc::Result<double> Request(uint64_t index, bool traced) override;
  vc::Status Verify(uint64_t index) override;
  vc::Status Finish(int64_t traced_requests, WorkloadReport* report) override;

 private:
  const std::vector<vc::Frame>& SegmentFrames(int stream, int segment) const {
    const int scene = stream < 3 ? stream : cycle_order_[segment % 3];
    return frames_[scene][segment];
  }
  /// Runs cycle position `pos` of video number `video` of its stream.
  vc::Status Append(int pos, uint64_t video);
  /// Checks every committed cell of `name` against its CRC on read-back.
  vc::Status ReadBack(const std::string& name);

  std::vector<std::unique_ptr<vc::SceneGenerator>> scenes_;
  std::vector<std::vector<std::vector<vc::Frame>>> frames_;  // scene, seg
  int cycle_order_[3] = {0, 1, 2};
  BenchStore store_;
  std::unique_ptr<CountingObserver> observer_;
  std::unique_ptr<vc::LiveIngestSession> sessions_[kStreams];
  std::string open_names_[kStreams];

  std::vector<Outputs> expected_;  ///< Per cycle position, from set-up.
  Outputs last_;                   ///< Outputs of the latest request.
  std::string last_closed_;        ///< Video the latest request closed.

  double raw_bytes_ = 0, written_bytes_ = 0, quality_db_ = 0;
  LayerSums layers_;
};

vc::Status IngestWorkload::Setup(uint64_t seed) {
  for (auto& session : sessions_) session.reset();
  store_.db.reset();  // before the Env it writes through
  store_.env.reset();
  observer_.reset();
  layers_ = LayerSums();

  SeedStream seeds(seed);
  scenes_.clear();
  frames_.clear();
  for (const std::string& scene : vc::StandardSceneNames()) {
    std::unique_ptr<vc::SceneGenerator> generator;
    VC_ASSIGN_OR_RETURN(generator, BenchScene(scene));
    std::vector<std::vector<vc::Frame>> segments(kVideoSegments);
    for (int s = 0; s < kVideoSegments; ++s) {
      for (int f = 0; f < kSegmentFrames; ++f) {
        segments[s].push_back(generator->FrameAt(s * kSegmentFrames + f));
      }
    }
    frames_.push_back(std::move(segments));
    scenes_.push_back(std::move(generator));
  }
  for (int i = 2; i > 0; --i) {
    std::swap(cycle_order_[i], cycle_order_[seeds.Below(i + 1)]);
  }

  VC_ASSIGN_OR_RETURN(store_,
                      OpenBenchStore("/ingest", 64ull << 20, kEncodeThreads));
  observer_ = std::make_unique<CountingObserver>();
  store_.db->AddObserver(observer_.get());

  // Check pass: one full cycle (video 0 of every stream), recording each
  // position's outputs for the timed loop to reproduce.
  expected_.clear();
  raw_bytes_ = written_bytes_ = 0;
  std::vector<std::string> closed;
  for (int pos = 0; pos < CycleLength(); ++pos) {
    VC_RETURN_IF_ERROR(Append(pos, 0));
    expected_.push_back(last_);
    written_bytes_ += static_cast<double>(last_.write_bytes);
    for (const vc::Frame& frame :
         SegmentFrames(pos % kStreams, pos / kStreams)) {
      raw_bytes_ += static_cast<double>(frame.ByteSize());
    }
    if (!last_closed_.empty()) closed.push_back(last_closed_);
  }

  // Every committed cell reads back under its CRC; quality is the top
  // rung's reconstruction PSNR against the ingested frames.
  double psnr_sum = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    VC_RETURN_IF_ERROR(ReadBack(closed[stream]));
    std::vector<vc::Frame> decoded, source;
    VC_ASSIGN_OR_RETURN(
        decoded, store_.db->ReadFrames(
                     closed[stream], 0, kVideoSegments * kSegmentFrames - 1,
                     /*quality=*/0));
    for (int s = 0; s < kVideoSegments; ++s) {
      const auto& frames = SegmentFrames(stream, s);
      source.insert(source.end(), frames.begin(), frames.end());
    }
    double psnr;
    VC_ASSIGN_OR_RETURN(psnr, MeanPsnr(decoded, source));
    psnr_sum += psnr;
  }
  quality_db_ = psnr_sum / kStreams;

  // The live-published catalog equals offline IngestScene of the same
  // frames, cell for cell.
  VC_RETURN_IF_ERROR(store_.db
                         ->IngestScene("offline_check",
                                       *scenes_[kOfflineStream],
                                       kVideoSegments * kSegmentFrames,
                                       BenchIngestOptions())
                         .status());
  vc::VideoMetadata live, offline;
  VC_ASSIGN_OR_RETURN(live, store_.db->Describe(closed[kOfflineStream]));
  VC_ASSIGN_OR_RETURN(offline, store_.db->Describe("offline_check"));
  if (live.cells.size() != offline.cells.size()) {
    return vc::Status::Internal("live and offline catalogs differ in size");
  }
  for (size_t i = 0; i < live.cells.size(); ++i) {
    if (live.cells[i].crc32 != offline.cells[i].crc32 ||
        live.cells[i].byte_size != offline.cells[i].byte_size) {
      return vc::Status::Internal("live catalog differs from IngestScene");
    }
  }
  VC_RETURN_IF_ERROR(store_.db->Drop("offline_check"));
  for (const std::string& name : closed) {
    VC_RETURN_IF_ERROR(store_.db->Drop(name));
  }
  return vc::Status::OK();
}

vc::Status IngestWorkload::Append(int pos, uint64_t video) {
  const int stream = pos % kStreams;
  const int segment = pos / kStreams;
  const EnvTotals env_before = store_.env->totals();
  const uint64_t commits_before = observer_->commits();
  last_closed_.clear();

  if (segment == 0) {
    // Fixed-width numbering: every video's metadata has the same size.
    char name[64];
    std::snprintf(name, sizeof(name), "%s_%08llu", kStreamNames[stream],
                  static_cast<unsigned long long>(video));
    open_names_[stream] = name;
    vc::LiveIngestOptions options;
    options.ingest = BenchIngestOptions();
    options.publish_segments = true;
    ScopedSpan span("ingest.StartLiveIngest");
    VC_ASSIGN_OR_RETURN(sessions_[stream],
                        store_.db->StartLiveIngest(open_names_[stream],
                                                   kWidth, kHeight, options));
  }
  vc::LiveIngestSession* session = sessions_[stream].get();
  if (session == nullptr) return vc::Status::Internal("stream not started");
  {
    ScopedSpan span("ingest.AppendFrames");
    VC_RETURN_IF_ERROR(session->AppendFrames(SegmentFrames(stream, segment)));
  }
  if (session->segments_written() != segment + 1) {
    return vc::Status::Internal("segment was not written");
  }
  const vc::VideoMetadata& metadata = session->metadata();
  uint64_t crcs = HashBytes(nullptr, 0);
  for (int tile = 0; tile < metadata.tile_count(); ++tile) {
    for (int q = 0; q < metadata.quality_count(); ++q) {
      const uint32_t crc =
          metadata.cells[metadata.CellIndex(segment, tile, q)].crc32;
      crcs = HashBytes(reinterpret_cast<const uint8_t*>(&crc), sizeof(crc),
                       crcs);
    }
  }
  if (segment == kVideoSegments - 1) {
    ScopedSpan span("ingest.Close");
    VC_RETURN_IF_ERROR(session->Close().status());
    sessions_[stream].reset();
    last_closed_ = open_names_[stream];
  }
  last_.write_bytes = (store_.env->totals() - env_before).write_bytes;
  last_.commits = observer_->commits() - commits_before;
  last_.cell_crcs = crcs;
  return vc::Status::OK();
}

vc::Result<double> IngestWorkload::Request(uint64_t index, bool traced) {
  const int pos = static_cast<int>(index % CycleLength());
  // Video 0 of each stream was the check pass; the timed loop continues
  // from video 1.
  const uint64_t video = 1 + index / CycleLength();
  if (!traced) {
    VC_RETURN_IF_ERROR(Append(pos, video));
    return 1.0;
  }
  RegistryDelta registry;
  registry.before = vc::MetricRegistry::Global().Snapshot();
  const EnvTotals env_before = store_.env->totals();
  const int64_t start = NowNs();
  VC_RETURN_IF_ERROR(Append(pos, video));
  const int64_t wall = NowNs() - start;
  registry.after = vc::MetricRegistry::Global().Snapshot();
  const EnvTotals env = store_.env->totals() - env_before;

  layers_.wall_s += static_cast<double>(wall) / 1e9;
  layers_.encode_s += registry.HistogramSum("ingest.cell_encode_seconds");
  layers_.sad_evals += registry.Counter("codec.sad_evals");
  layers_.hinted += registry.Counter("codec.search_hinted");
  layers_.full += registry.Counter("codec.search_full");
  layers_.env += env;
  layers_.commits += last_.commits;
  return 1.0;
}

vc::Status IngestWorkload::Verify(uint64_t index) {
  const Outputs& want = expected_[index % CycleLength()];
  if (!(last_ == want)) {
    return vc::Status::Internal(
        "ingest outputs differ from the check pass (bytes " +
        std::to_string(last_.write_bytes) + " vs " +
        std::to_string(want.write_bytes) + ")");
  }
  if (last_closed_.empty()) return vc::Status::OK();
  VC_RETURN_IF_ERROR(ReadBack(last_closed_));
  return store_.db->Drop(last_closed_);
}

vc::Status IngestWorkload::ReadBack(const std::string& name) {
  vc::VideoMetadata metadata;
  VC_ASSIGN_OR_RETURN(metadata, store_.db->Describe(name));
  if (metadata.segment_count() != kVideoSegments) {
    return vc::Status::Internal(name + ": wrong segment count");
  }
  for (int s = 0; s < metadata.segment_count(); ++s) {
    for (int t = 0; t < metadata.tile_count(); ++t) {
      for (int q = 0; q < metadata.quality_count(); ++q) {
        // The loader bypasses the cache and verifies the cell's CRC.
        VC_RETURN_IF_ERROR(
            store_.db->storage()->CellLoader(metadata, s, t, q)().status());
      }
    }
  }
  return vc::Status::OK();
}

vc::Status IngestWorkload::Finish(int64_t traced_requests,
                                  WorkloadReport* report) {
  report->end_to_end["data_ratio"] = {written_bytes_ / raw_bytes_, "ratio",
                                      0};
  report->end_to_end["quality_db"] = {quality_db_, "dB", 0};
  report->deterministic["data_ratio"] = Exact(written_bytes_ / raw_bytes_);
  report->deterministic["quality_db"] = Exact(quality_db_);
  uint64_t outputs = HashBytes(nullptr, 0);
  for (const Outputs& o : expected_) {
    outputs = HashBytes(reinterpret_cast<const uint8_t*>(&o), sizeof(o),
                        outputs);
  }
  report->deterministic["cycle_outputs"] = std::to_string(outputs);

  if (traced_requests > 0) {
    const double n = static_cast<double>(traced_requests);
    const LayerSums& l = layers_;
    MetricMap& m = report->per_layer;
    m["ingest.encode_cpu_ms"] = {1e3 * l.encode_s / n, "ms", traced_requests};
    m["ingest.encode_parallelism"] = {l.encode_s / l.wall_s, "ratio",
                                      traced_requests};
    m["codec.sad_evals"] = {static_cast<double>(l.sad_evals) / n, "count",
                            traced_requests};
    m["codec.hinted_share"] = {
        l.hinted + l.full > 0
            ? static_cast<double>(l.hinted) / static_cast<double>(l.hinted +
                                                                  l.full)
            : 0.0,
        "ratio", traced_requests};
    AddEnvLayerMetrics(l.env, traced_requests, &m);
    m["catalog.commits"] = {static_cast<double>(l.commits) / n, "count",
                            traced_requests};
    const double env_s =
        static_cast<double>(l.env.write_ns + l.env.read_ns + l.env.other_ns) /
        1e9;
    m["ingest.self_ms"] = {1e3 * (l.wall_s - env_s) / n, "ms",
                           traced_requests};
  }
  return vc::Status::OK();
}

}  // namespace

std::unique_ptr<Workload> NewIngestWorkload() {
  return std::make_unique<IngestWorkload>();
}

}  // namespace perfbench
