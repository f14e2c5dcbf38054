// Predictive streaming walk-through: compares streaming approaches and
// orientation predictors over a population of synthetic viewers, printing
// bandwidth and in-view quality per configuration — a miniature of the
// paper's headline demonstration.
//
//   ./build/examples/predictive_streaming

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/session.h"
#include "core/visualcloud.h"
#include "predict/trace_synthesizer.h"

namespace {

constexpr int kSeconds = 12;
constexpr int kFps = 15;

}  // namespace

int main() {
  using namespace vc;

  auto env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/visualcloud";
  auto db = VisualCloud::Open(options);

  SceneOptions scene_options;
  scene_options.width = 256;
  scene_options.height = 128;
  auto scene = NewCoasterScene(scene_options);

  IngestOptions ingest;
  ingest.tile_rows = 6;
  ingest.tile_cols = 8;
  ingest.frames_per_segment = kFps;  // 1-second segments
  ingest.fps = kFps;
  auto version = (*db)->IngestScene("coaster", *scene, kSeconds * kFps, ingest);
  if (!version.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 version.status().ToString().c_str());
    return 1;
  }
  auto metadata = (*db)->Describe("coaster");

  // A small population of viewers: each archetype with a few seeds.
  std::vector<HeadTrace> traces;
  for (const std::string& archetype : ViewerArchetypes()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      auto trace_options = ArchetypeOptions(archetype, seed);
      trace_options->duration_seconds = kSeconds;
      traces.push_back(*SynthesizeTrace(*trace_options));
    }
  }

  auto run = [&](StreamingApproach approach, const std::string& predictor) {
    uint64_t bytes = 0;
    double stalls = 0;
    for (const HeadTrace& trace : traces) {
      SessionOptions session;
      session.approach = approach;
      session.predictor = predictor;
      session.viewport.fov_yaw = DegToRad(90);
      session.viewport.fov_pitch = DegToRad(75);
      session.network.bandwidth_bps = 20e6;
      // The object API: create a steppable session and drive it to
      // completion at its own pacing deadlines (a server would interleave
      // many of these on one clock).
      auto client =
          ClientSession::Create((*db)->storage(), *metadata, trace, session);
      if (!client.ok()) {
        std::fprintf(stderr, "session failed: %s\n",
                     client.status().ToString().c_str());
        std::exit(1);
      }
      while (!(*client)->done()) {
        Status status = (*client)->Step((*client)->NextDeadline());
        if (!status.ok()) {
          std::fprintf(stderr, "step failed: %s\n",
                       status.ToString().c_str());
          std::exit(1);
        }
      }
      bytes += (*client)->stats().bytes_sent;
      stalls += (*client)->stats().stall_seconds;
    }
    return std::pair<uint64_t, double>(bytes / traces.size(),
                                       stalls / traces.size());
  };

  std::printf("%zu viewers x %ds of 'coaster' @20 Mbps\n\n", traces.size(),
              kSeconds);
  std::printf("%-32s %14s %10s %8s\n", "configuration", "bytes/session",
              "saved", "stalls");

  auto [mono_bytes, mono_stalls] =
      run(StreamingApproach::kMonolithicFull, "static");
  std::printf("%-32s %14lu %9s %7.2fs\n", "monolithic full quality",
              static_cast<unsigned long>(mono_bytes), "-", mono_stalls);

  auto [dash_bytes, dash_stalls] =
      run(StreamingApproach::kUniformDash, "static");
  std::printf("%-32s %14lu %8.0f%% %7.2fs\n", "uniform DASH",
              static_cast<unsigned long>(dash_bytes),
              100.0 * (1.0 - static_cast<double>(dash_bytes) / mono_bytes),
              dash_stalls);

  for (const char* predictor :
       {"static", "dead_reckoning", "linear_regression", "markov"}) {
    auto [bytes, stalls] = run(StreamingApproach::kVisualCloud, predictor);
    std::string label = std::string("visualcloud + ") + predictor;
    std::printf("%-32s %14lu %8.0f%% %7.2fs\n", label.c_str(),
                static_cast<unsigned long>(bytes),
                100.0 * (1.0 - static_cast<double>(bytes) / mono_bytes),
                stalls);
  }

  auto [oracle_bytes, oracle_stalls] =
      run(StreamingApproach::kOracle, "static");
  std::printf("%-32s %14lu %8.0f%% %7.2fs\n", "visualcloud + oracle",
              static_cast<unsigned long>(oracle_bytes),
              100.0 * (1.0 - static_cast<double>(oracle_bytes) / mono_bytes),
              oracle_stalls);
  return 0;
}
