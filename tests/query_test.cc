#include <gtest/gtest.h>

#include <algorithm>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "common/env.h"
#include "core/visualcloud.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "streaming/manifest.h"
#include "test_digest.h"

namespace vc {
namespace {

/// One in-memory catalog shared by all query tests: a 4-second venice clip
/// at 4x4 tiles, 8-frame 1-second segments, 3-rung ladder — small enough
/// that the encode in SetUpTestSuite dominates, every test after it is
/// cheap.
class QueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = NewMemEnv().release();
    VisualCloudOptions options;
    options.storage.env = env_;
    options.storage.root = "/vcdb";
    auto db = VisualCloud::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = db->release();

    SceneOptions scene_options;
    scene_options.width = 128;
    scene_options.height = 64;
    auto scene = NewVeniceScene(scene_options);

    IngestOptions ingest;
    ingest.tile_rows = 4;
    ingest.tile_cols = 4;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;
    ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};
    auto version = db_->IngestScene("venice", *scene, 32, ingest);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete env_;
    env_ = nullptr;
  }

  static StorageManager* storage() { return db_->storage(); }

  static void ExpectFramesEqual(const std::vector<Frame>& a,
                                const std::vector<Frame>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].SameSize(b[i])) << "frame " << i;
      EXPECT_EQ(a[i].y_plane(), b[i].y_plane()) << "frame " << i;
      EXPECT_EQ(a[i].u_plane(), b[i].u_plane()) << "frame " << i;
      EXPECT_EQ(a[i].v_plane(), b[i].v_plane()) << "frame " << i;
    }
  }

  static VisualCloud* db_;
  static Env* env_;
};

VisualCloud* QueryTest::db_ = nullptr;
Env* QueryTest::env_ = nullptr;

// --- algebra + parser ------------------------------------------------------

TEST(QueryAlgebraTest, BuilderEmitsParseableText) {
  Query q = Query::Scan("venice")
                .TimeSlice(1.0, 3.5)
                .Viewport(kPi, kPi / 2, DegToRad(100), DegToRad(80))
                .QualityFloor("high")
                .Degrade("low");
  std::string text = q.ToString();
  auto reparsed = ParseQuery(Slice(text));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), text);
}

TEST(QueryAlgebraTest, UnionAndSinksRoundTrip) {
  Query q = Query::Union({Query::Scan("a").FrameSlice(0, 7),
                          Query::Scan("b").FrameSlice(8, 15)})
                .QualityFloor("medium")
                .Encode(20)
                .Store("merged");
  auto reparsed = ParseQuery(Slice(q.ToString()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), q.ToString());
}

TEST(QueryAlgebraTest, SubscribeRoundTrip) {
  Query q = Query::Scan("cam")
                .QualityFloor("high")
                .Encode()
                .Store("cam_hi")
                .Subscribe("cam_hi");
  auto reparsed = ParseQuery(Slice(q.ToString()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), q.ToString());
  EXPECT_FALSE(ParseQuery(Slice("scan(a) | subscribe()")).ok());
}

TEST(QueryAlgebraTest, ParserReportsOffset) {
  auto bad = ParseQuery(Slice("scan(venice) | warp(1,2)"));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("query parse error at offset"),
            std::string::npos)
      << bad.status().ToString();

  EXPECT_FALSE(ParseQuery(Slice("")).ok());
  EXPECT_FALSE(ParseQuery(Slice("scan(venice")).ok());
  EXPECT_FALSE(ParseQuery(Slice("scan(v) | timeslice(1)")).ok());
  EXPECT_FALSE(ParseQuery(Slice("scan(v) | encode | junk")).ok());
}

// --- optimizer -------------------------------------------------------------

TEST_F(QueryTest, TimeSliceBecomesSegmentRange) {
  // [1s, 3s) at 8 fps = frames [8, 23] = segments 1 and 2 of 4.
  Query q = Query::Scan("venice").TimeSlice(1.0, 3.0).QualityFloor("low");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->scans.size(), 1u);
  const ScanPlan& scan = plan->scans[0];
  ASSERT_EQ(scan.slices.size(), 2u);
  EXPECT_EQ(scan.slices[0].segment, 1);
  EXPECT_EQ(scan.slices[0].first_frame, 8);
  EXPECT_EQ(scan.slices[0].last_frame, 15);
  EXPECT_EQ(scan.slices[1].segment, 2);
  EXPECT_TRUE(scan.slices[1].WholeSegment(scan.metadata));
  // No viewport: every tile survives, at the pushed-down rung.
  for (int rung : scan.slices[0].tile_quality) EXPECT_EQ(rung, 2);
}

TEST_F(QueryTest, ViewportPrunesTiles) {
  Query q = Query::Scan("venice")
                .Viewport(kPi, kPi / 2, DegToRad(90), DegToRad(60))
                .QualityFloor("high");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int kept = 0, pruned = 0;
  for (int rung : plan->scans[0].slices[0].tile_quality) {
    (rung >= 0 ? kept : pruned) += 1;
  }
  EXPECT_GT(kept, 0);
  EXPECT_GT(pruned, 0);
  EXPECT_LT(plan->ScannedCells(), plan->TotalCells());

  bool saw_tile_rule = false;
  for (const std::string& line : plan->rewrites) {
    if (line.find("viewport->tiles: kept") != std::string::npos) {
      saw_tile_rule = true;
    }
  }
  EXPECT_TRUE(saw_tile_rule);
}

TEST_F(QueryTest, DegradeKeepsPeripheryAtLowerRung) {
  Query q = Query::Scan("venice")
                .Viewport(kPi, kPi / 2, DegToRad(90), DegToRad(60))
                .QualityFloor("high")
                .Degrade("low");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int in_view = 0, degraded = 0;
  for (int rung : plan->scans[0].slices[0].tile_quality) {
    ASSERT_GE(rung, 0);  // degrade never prunes
    (rung == 0 ? in_view : degraded) += 1;
  }
  EXPECT_GT(in_view, 0);
  EXPECT_GT(degraded, 0);
  // Every tile is still scanned — degrade trades bytes, not coverage.
  EXPECT_EQ(plan->ScannedCells(), plan->TotalCells());
}

TEST_F(QueryTest, AdjacentPredicatesFuse) {
  Query q = Query::Scan("venice")
                .TimeSlice(0.0, 3.0)
                .TimeSlice(1.0, 4.0)  // intersects to [1, 3)
                .QualityFloor("medium");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->scans[0].slices.size(), 2u);
  EXPECT_EQ(plan->scans[0].slices.front().segment, 1);
  bool fused = false;
  for (const std::string& line : plan->rewrites) {
    if (line.find("fuse-timeslice: 2 time predicates") != std::string::npos) {
      fused = true;
    }
  }
  EXPECT_TRUE(fused);
}

TEST_F(QueryTest, ExplainGolden) {
  Query q = Query::Scan("venice").FrameSlice(0, 7).QualityFloor("high");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->Explain(),
            "plan: sink=materialize\n"
            "scan venice v1: 4 segments, 4x4 tiles, 3 rungs\n"
            "  s0 frames [0,7] tiles 0@0,1@0,2@0,3@0,4@0,5@0,6@0,7@0,8@0,"
            "9@0,10@0,11@0,12@0,13@0,14@0,15@0\n"
            "cells: scan 16 of 64 (pruned 48 = 75.0%)\n"
            "rewrites:\n"
            "  - timeslice->segments: frames [0,7] -> segments [0,0] of 4\n"
            "  - quality-pushdown: serve stored rung 0 ('high')\n");
}

TEST_F(QueryTest, ExplainCostAlternativesGolden) {
  // A hand-stored video with 1000-byte cells pins the operand volumes, and
  // the explicit default CostModel pins the coefficients, so the estimates
  // below are pure arithmetic: cost-model changes show up as a text diff.
  VideoMetadata m;
  m.name = "flat";
  m.width = 128;
  m.height = 64;
  m.fps_times_100 = 800;
  m.frames_per_segment = 8;
  m.tile_rows = 2;
  m.tile_cols = 2;
  m.ladder = {{"only", 30}};
  auto writer = storage()->NewVideoWriter(m);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<std::vector<uint8_t>> cells(4,
                                                std::vector<uint8_t>(1000, 7));
  for (int segment = 0; segment < 2; ++segment) {
    ASSERT_TRUE((*writer)->AddSegment(8, cells).ok());
  }
  auto stored = (*writer)->Commit();
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();

  const CostModel pinned;
  OptimizeOptions options;
  options.cost_model = &pinned;
  Query q = Query::Scan("flat").QualityFloor("only").Encode();
  auto plan = Optimize(q, storage(), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->Explain(),
            "plan: sink=encode transcode=elided\n"
            "scan flat v1: 2 segments, 2x2 tiles, 1 rungs\n"
            "  s0 frames [0,7] tiles 0@0,1@0,2@0,3@0\n"
            "  s1 frames [8,15] tiles 0@0,1@0,2@0,3@0\n"
            "cells: scan 8 of 8 (pruned 0 = 0.0%)\n"
            "alternatives:\n"
            "  - stitch: est 0.320ms (8 cells, 8000B stored) [chosen]\n"
            "  - re-encode: est 19.009ms (would change output bytes "
            "(re-quantizes elided plan)) [infeasible]\n"
            "rewrites:\n"
            "  - quality-pushdown: serve stored rung 0 ('only')\n"
            "  - transcode-elision: full grid of whole segments at rung 0 -> "
            "stitch stored bitstreams, no transcode\n"
            "  - cost-choice: stitch est 0.320ms (cheapest of 2 "
            "alternatives)\n");
}

TEST_F(QueryTest, SubscribePeelsToStandingName) {
  Query q =
      Query::Scan("venice").QualityFloor("high").Encode().Subscribe("watch");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->standing_name, "watch");
  EXPECT_EQ(plan->sink, SinkKind::kEncode);
  EXPECT_NE(plan->Explain().find(" standing=watch"), std::string::npos);
}

TEST_F(QueryTest, OptimizeErrors) {
  EXPECT_FALSE(Optimize(Query::Scan("nope"), storage()).ok());

  auto empty = Optimize(Query::Scan("venice").TimeSlice(2.0, 2.0), storage());
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().ToString().find("empty timeslice"),
            std::string::npos);

  auto bad_rung =
      Optimize(Query::Scan("venice").QualityFloor("ultra"), storage());
  EXPECT_FALSE(bad_rung.ok());

  auto store_sans_encode =
      Optimize(Query::Scan("venice").Store("copy"), storage());
  ASSERT_FALSE(store_sans_encode.ok());
  EXPECT_NE(store_sans_encode.status().ToString().find(
                "sink requires an encoded input"),
            std::string::npos);
}

// --- executor --------------------------------------------------------------

TEST_F(QueryTest, PrunedMatchesNaiveByteForByte) {
  Query q = Query::Scan("venice")
                .TimeSlice(0.5, 2.5)
                .Viewport(kPi / 2, kPi / 2, DegToRad(100), DegToRad(70))
                .QualityFloor("medium");
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto pruned = ExecutePlan(*plan, storage());
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ExecuteOptions naive_options;
  naive_options.naive_full_scan = true;
  auto naive = ExecutePlan(*plan, storage(), naive_options);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  EXPECT_LT(pruned->cells_scanned, naive->cells_scanned);
  EXPECT_GT(pruned->cells_pruned, 0);
  EXPECT_EQ(naive->cells_pruned, 0);  // the baseline prunes nothing
  ExpectFramesEqual(pruned->frames, naive->frames);
}

TEST_F(QueryTest, FrameSliceMaterializesExactRange) {
  Query q = Query::Scan("venice").FrameSlice(3, 12).QualityFloor("high");
  auto result = ExecuteQuery(q, storage());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->frames.size(), 10u);
}

TEST_F(QueryTest, TranscodeElisionOnFullGridExport) {
  Query q = Query::Scan("venice").QualityFloor("medium").Encode();
  auto plan = Optimize(q, storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->transcode_free);

  auto stitched = ExecutePlan(*plan, storage());
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  ASSERT_TRUE(stitched->has_encoded);
  EXPECT_EQ(stitched->transcodes, 0);
  EXPECT_EQ(stitched->transcodes_avoided, 4);  // one merge per segment

  // An explicit quantizer defeats elision and forces a real transcode.
  auto forced = Optimize(
      Query::Scan("venice").QualityFloor("medium").Encode(20), storage());
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_FALSE(forced->transcode_free);
  auto transcoded = ExecutePlan(*forced, storage());
  ASSERT_TRUE(transcoded.ok()) << transcoded.status().ToString();
  EXPECT_GT(transcoded->transcodes, 0);
  EXPECT_EQ(transcoded->transcodes_avoided, 0);

  // Both serve the same 32 frames.
  auto a = DecodeVideo(stitched->encoded);
  auto b = DecodeVideo(transcoded->encoded);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->size(), 32u);
  EXPECT_EQ(b->size(), 32u);
}

TEST_F(QueryTest, DegradeWindowStitchesWholeSegmentsAndReencodesEnds) {
  // [0.5s, 3.5s) = frames [4, 27]: a partial segment at each end, two whole
  // mixed-rung segments in between.
  Query chain = Query::Scan("venice")
                    .TimeSlice(0.5, 3.5)
                    .Viewport(kPi, kPi / 2, DegToRad(90), DegToRad(60))
                    .QualityFloor("high")
                    .Degrade("low");
  auto plan = Optimize(chain.Encode(), storage());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->transcode_free);
  EXPECT_EQ(plan->encode_qp, 14);
  const std::vector<SegmentSlice>& slices = plan->scans[0].slices;
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_FALSE(slices[0].stitch);
  EXPECT_TRUE(slices[1].stitch);
  EXPECT_TRUE(slices[2].stitch);
  EXPECT_FALSE(slices[3].stitch);
  ASSERT_EQ(plan->alternatives.size(), 2u);
  EXPECT_EQ(plan->alternatives[0].name, "stitch");
  EXPECT_TRUE(plan->alternatives[0].chosen);
  EXPECT_FALSE(plan->alternatives[1].feasible);

  auto result = ExecutePlan(*plan, storage());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->transcodes, 2);
  EXPECT_EQ(result->transcodes_avoided, 2);
  auto decoded = DecodeVideo(result->encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 24u);

  // Stitched segments carry the stored pixels exactly; each partial end is
  // its own re-encoded GOP of exactly those pixels.
  auto frames = ExecuteQuery(chain, storage());
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  ASSERT_EQ(frames->frames.size(), 24u);
  std::vector<Frame> middle(decoded->begin() + 4, decoded->begin() + 20);
  ExpectFramesEqual(middle, std::vector<Frame>(frames->frames.begin() + 4,
                                               frames->frames.begin() + 20));
  EncoderOptions encode;
  encode.width = 128;
  encode.height = 64;
  encode.fps = 8.0;
  encode.gop_length = 8;
  encode.qp = 14;
  encode.tile_rows = 4;
  encode.tile_cols = 4;
  for (int begin : {0, 20}) {
    auto piece = EncodeVideo(
        std::vector<Frame>(frames->frames.begin() + begin,
                           frames->frames.begin() + begin + 4),
        encode);
    ASSERT_TRUE(piece.ok());
    auto expected = DecodeVideo(*piece);
    ASSERT_TRUE(expected.ok());
    ExpectFramesEqual(std::vector<Frame>(decoded->begin() + begin,
                                         decoded->begin() + begin + 4),
                      *expected);
  }

  // The naive baseline emits the same bytes (a degrade keeps every tile
  // and this window spans every segment, so it reads the same cells).
  ExecuteOptions naive;
  naive.naive_full_scan = true;
  auto baseline = ExecutePlan(*plan, storage(), naive);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->cells_scanned, result->cells_scanned);
  EXPECT_EQ(baseline->encoded.Serialize(), result->encoded.Serialize());
}

TEST_F(QueryTest, DecodeStopsAtTheLastNeededFrame) {
  // 15-frame segments, as the benchmark stores them. Materialized windows
  // ending at every frame offset of a segment match DecodeVideo of each
  // cell pasted into place.
  VisualCloud* db = db_;
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = NewVeniceScene(scene_options);
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 15;
  ingest.fps = 15.0;
  ingest.ladder = {{"only", 28}};
  ASSERT_TRUE(db->IngestScene("gop15", *scene, 30, ingest).ok());
  auto metadata = db->Describe("gop15");
  ASSERT_TRUE(metadata.ok());

  std::vector<Frame> reference(30, Frame(128, 64));
  const TileGrid grid = metadata->tile_grid();
  for (int segment = 0; segment < 2; ++segment) {
    for (int tile = 0; tile < 4; ++tile) {
      auto bytes = storage()->ReadCell(*metadata, segment, tile, 0);
      ASSERT_TRUE(bytes.ok());
      auto cell = EncodedVideo::Parse(Slice(**bytes));
      ASSERT_TRUE(cell.ok());
      auto decoded = DecodeVideo(*cell);
      ASSERT_TRUE(decoded.ok());
      auto rect = grid.PixelRectOf(grid.TileAt(tile), 128, 64, 16);
      ASSERT_TRUE(rect.ok());
      for (int f = 0; f < 15; ++f) {
        ASSERT_TRUE(
            reference[segment * 15 + f].Paste((*decoded)[f], rect->x, rect->y)
                .ok());
      }
    }
  }
  for (int first : {0, 5}) {
    for (int offset = 0; offset < 15; ++offset) {
      const int last = (first == 0 ? 0 : 15) + offset;
      if (last < first) continue;
      SCOPED_TRACE("frames [" + std::to_string(first) + "," +
                   std::to_string(last) + "]");
      auto window = ExecuteQuery(
          Query::Scan("gop15").FrameSlice(first, last).QualityFloor("only"),
          storage());
      ASSERT_TRUE(window.ok()) << window.status().ToString();
      ExpectFramesEqual(window->frames,
                        std::vector<Frame>(reference.begin() + first,
                                           reference.begin() + last + 1));
    }
  }
}

TEST_F(QueryTest, UnmovedOutputDigestIsPinned) {
  // Window and union materializations and a uniform-rung full-grid export:
  // outputs that per-tile QP stitching and the smart cut must leave
  // byte-identical.
  const char* texts[] = {
      "scan(venice) | timeslice(0.5,2.5) | viewport(180,90,100,80) | "
      "quality(high)",
      "scan(venice) | timeslice(1.5,3.5) | viewport(20,80,110,70) | "
      "quality(medium)",
      "union(scan(venice) | timeslice(0.5,1.5) ; scan(venice) | "
      "timeslice(2.25,3.5)) | viewport(300,100,100,80) | quality(low)",
      "scan(venice) | timeslice(1,3) | quality(medium) | encode",
  };
  Fnv1a digest;
  for (const char* text : texts) {
    auto query = ParseQuery(Slice(text));
    ASSERT_TRUE(query.ok()) << text;
    auto result = ExecuteQuery(*query, storage());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    digest.Add(static_cast<uint64_t>(result->frames.size()));
    for (const Frame& frame : result->frames) {
      for (const auto* plane :
           {&frame.y_plane(), &frame.u_plane(), &frame.v_plane()}) {
        digest.AddBytes(plane->data(), plane->size());
      }
    }
    const std::vector<uint8_t> bytes =
        result->has_encoded ? result->encoded.Serialize()
                            : std::vector<uint8_t>();
    digest.Add(static_cast<uint64_t>(bytes.size()));
    digest.AddBytes(bytes.data(), bytes.size());
  }
  EXPECT_EQ(digest.value(), 0x5bf1428b6f38287cull)
      << std::hex << "actual digest 0x" << digest.value();
}

TEST_F(QueryTest, BorrowedCellsOutliveTheirEviction) {
  // The executor parses each fetched cell as a view into the cache's bytes
  // and holds the cell's shared value until its slice is stitched or
  // decoded. Over a cache smaller than any segment, every
  // fetch evicts cells whose slice is still being stitched or decoded; the
  // outputs must equal the suite's large-cache outputs (the ASan leg turns
  // a read of freed bytes into a failure).
  auto metadata = storage()->GetVideo("venice");
  ASSERT_TRUE(metadata.ok());
  size_t largest = 0;
  for (const CellInfo& cell : metadata->cells) {
    largest = std::max<size_t>(largest, cell.byte_size);
  }
  size_t smallest_segment = SIZE_MAX;
  for (int segment = 0; segment < metadata->segment_count(); ++segment) {
    for (size_t rung = 0; rung < metadata->ladder.size(); ++rung) {
      size_t bytes = 0;
      for (int tile = 0; tile < metadata->tile_count(); ++tile) {
        bytes += metadata->cells[metadata->CellIndex(
                                     segment, tile, static_cast<int>(rung))]
                     .byte_size;
      }
      smallest_segment = std::min(smallest_segment, bytes);
    }
  }
  // Room for the largest cell, so every cell is cached and then evicted.
  StorageOptions options;
  options.env = env_;
  options.root = "/vcdb";
  options.cache_capacity_bytes = largest;
  ASSERT_LT(options.cache_capacity_bytes, smallest_segment);

  const char* texts[] = {
      "scan(venice) | timeslice(0.5,2.5) | viewport(180,90,100,80) | "
      "quality(high)",
      "scan(venice) | quality(medium) | encode",
      "scan(venice) | timeslice(0.5,3.5) | viewport(180,90,90,60) | "
      "quality(high) | degrade(low) | encode",
      "union(scan(venice) | timeslice(0.5,1.5) ; scan(venice) | "
      "timeslice(2.25,3.5)) | viewport(300,100,100,80) | quality(low)",
  };
  for (int io_threads : {0, 2}) {
    options.io_threads = io_threads;
    auto small = StorageManager::Open(options);
    ASSERT_TRUE(small.ok());
    for (const char* text : texts) {
      auto query = ParseQuery(Slice(text));
      ASSERT_TRUE(query.ok()) << text;
      auto want = ExecuteQuery(*query, storage());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = ExecuteQuery(*query, small->get());
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      ExpectFramesEqual(got->frames, want->frames);
      ASSERT_EQ(got->has_encoded, want->has_encoded) << text;
      if (want->has_encoded) {
        EXPECT_EQ(got->encoded.Serialize(), want->encoded.Serialize())
            << text;
      }
    }
    EXPECT_GT((*small)->cache_stats().evictions, 0u)
        << "io_threads " << io_threads;
  }
}

TEST_F(QueryTest, StoreSinkCreatesCatalogVideo) {
  Query q = Query::Scan("venice")
                .TimeSlice(0.0, 2.0)
                .QualityFloor("low")
                .Encode()
                .Store("venice_clip");
  auto result = ExecuteQuery(q, storage());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stored_version, 1u);

  auto stored = db_->Describe("venice_clip");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->segment_count(), 2);
  EXPECT_EQ(stored->tile_rows, 4);
  EXPECT_EQ(stored->tile_cols, 4);
  EXPECT_EQ(stored->quality_count(), 1);
}

TEST_F(QueryTest, QueryCountersAreRegistered) {
  auto result = ExecuteQuery(
      Query::Scan("venice").FrameSlice(0, 7).QualityFloor("low"), storage());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_GT(snapshot.counters["query.cells_scanned"], 0u);
  EXPECT_GT(snapshot.counters["query.cells_pruned"], 0u);
  EXPECT_GT(snapshot.histograms["query.plan_seconds"].count, 0u);
  EXPECT_GT(snapshot.histograms["query.exec_seconds"].count, 0u);
}

TEST_F(QueryTest, ManifestRejectsMalformedPlan) {
  // The manifest no longer carries a query plan: plan lines of any shape
  // are unknown keywords and must be rejected.
  auto metadata = db_->Describe("venice");
  ASSERT_TRUE(metadata.ok());
  std::string text = GenerateManifest(*metadata);

  EXPECT_FALSE(ParseManifest(Slice(text + "plan 1 0 0\n")).ok())
      << "tile count mismatch must be rejected";
  std::string full_row = "plan 9";
  for (int i = 0; i < metadata->tile_count(); ++i) full_row += " 0";
  EXPECT_FALSE(ParseManifest(Slice(text + full_row + "\n")).ok())
      << "out-of-range segment must be rejected";
  std::string in_range_row = "plan 0";
  for (int i = 0; i < metadata->tile_count(); ++i) in_range_row += " 0";
  EXPECT_FALSE(ParseManifest(Slice(text + in_range_row + "\n")).ok())
      << "a plan line is not a manifest keyword";
}

}  // namespace
}  // namespace vc
