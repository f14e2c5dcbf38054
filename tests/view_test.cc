#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/visualcloud.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/parser.h"
#include "view/catalog.h"
#include "view/definition.h"
#include "view/maintainer.h"
#include "test_env.h"

namespace vc {
namespace {

/// One in-memory catalog shared by all view tests: the same 4-second venice
/// clip the query tests use (4x4 tiles, 8-frame segments, 3 rungs). Tests
/// that need their own catalog timeline (staleness, live feeds) ingest
/// under per-test names so `venice` stays at v1 throughout.
class ViewTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = NewMemEnv().release();
    VisualCloudOptions options;
    options.storage.env = env_;
    options.storage.root = "/vcdb";
    auto db = VisualCloud::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = db->release();

    auto version = db_->IngestScene("venice", *Scene(), 32, Ingest44());
    ASSERT_TRUE(version.ok()) << version.status().ToString();
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete env_;
    env_ = nullptr;
  }

  static std::unique_ptr<SceneGenerator> Scene() {
    SceneOptions scene_options;
    scene_options.width = 128;
    scene_options.height = 64;
    return NewVeniceScene(scene_options);
  }

  static IngestOptions Ingest44() {
    IngestOptions ingest;
    ingest.tile_rows = 4;
    ingest.tile_cols = 4;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;
    ingest.ladder = {{"high", 14}, {"medium", 28}, {"low", 42}};
    return ingest;
  }

  static IngestOptions Ingest22() {
    IngestOptions ingest;
    ingest.tile_rows = 2;
    ingest.tile_cols = 2;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;
    ingest.ladder = {{"high", 14}, {"low", 42}};
    return ingest;
  }

  static StorageManager* storage() { return db_->storage(); }

  static VisualCloud* db_;
  static Env* env_;
};

VisualCloud* ViewTest::db_ = nullptr;
Env* ViewTest::env_ = nullptr;

// --- definition format -----------------------------------------------------

TEST(ViewDefinitionTest, MakeSerializeParseRoundTrip) {
  auto def = MakeViewDefinition(
      "periph",
      Slice("scan(demo) | quality(high) | degrade(low) | encode | "
            "store(periph)"));
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def->name, "periph");
  EXPECT_EQ(def->source, "demo");
  EXPECT_EQ(def->source_version, 0u);  // never maintained
  EXPECT_EQ(def->segments, 0);

  auto reparsed = ParseViewDefinition(Slice(def->Serialize()));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->name, def->name);
  EXPECT_EQ(reparsed->source, def->source);
  EXPECT_EQ(reparsed->query, def->query);
  EXPECT_EQ(reparsed->Serialize(), def->Serialize());

  // Maintained progress fields survive the trip too.
  reparsed->source_version = 7;
  reparsed->segments = 12;
  auto again = ParseViewDefinition(Slice(reparsed->Serialize()));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->source_version, 7u);
  EXPECT_EQ(again->segments, 12);
}

TEST(ViewDefinitionTest, MakeRejectsBadDefiningQueries) {
  // Store target must equal the view name.
  EXPECT_FALSE(
      MakeViewDefinition("v", Slice("scan(a) | encode | store(w)")).ok());
  // A sink is required, and it must be store.
  EXPECT_FALSE(MakeViewDefinition("v", Slice("scan(a) | encode")).ok());
  // Standing-query syntax is not a view definition.
  EXPECT_FALSE(MakeViewDefinition(
                   "v", Slice("scan(a) | encode | store(v) | subscribe(v)"))
                   .ok());
  // Unions cannot be maintained incrementally.
  Query u = Query::Union({Query::Scan("a"), Query::Scan("b")})
                .Encode()
                .Store("v");
  EXPECT_FALSE(MakeViewDefinition("v", Slice(u.ToString())).ok());
  // The query must parse at all.
  EXPECT_FALSE(MakeViewDefinition("v", Slice("scan(a) | warp(2)")).ok());
}

TEST(ViewDefinitionTest, ParserRejectsCorruption) {
  auto def = MakeViewDefinition("v", Slice("scan(a) | encode | store(v)"));
  ASSERT_TRUE(def.ok());
  const std::string good = def->Serialize();
  ASSERT_TRUE(ParseViewDefinition(Slice(good)).ok());

  EXPECT_FALSE(ParseViewDefinition(Slice("")).ok());
  EXPECT_FALSE(ParseViewDefinition(Slice("VCVIEW 2\n")).ok());
  // Each keyword line is required exactly once.
  auto drop_line = [&](const std::string& keyword) {
    std::string text;
    size_t start = 0;
    while (start < good.size()) {
      size_t end = good.find('\n', start);
      std::string line = good.substr(start, end - start);
      if (line.compare(0, keyword.size(), keyword) != 0) text += line + "\n";
      start = end + 1;
    }
    return text;
  };
  for (const char* keyword : {"name", "source", "segments", "query"}) {
    EXPECT_FALSE(ParseViewDefinition(Slice(drop_line(keyword))).ok())
        << "missing '" << keyword << "' line must be rejected";
  }
  EXPECT_FALSE(ParseViewDefinition(Slice(good + "name other\n")).ok())
      << "duplicate lines must be rejected";
  // Maintained segments without a maintained source version is nonsense.
  ViewDefinition bad = *def;
  bad.segments = 3;
  EXPECT_FALSE(ParseViewDefinition(Slice(bad.Serialize())).ok());
  // The query line must store into the named view and scan the named
  // source.
  ViewDefinition wrong = *def;
  wrong.source = "b";
  EXPECT_FALSE(ParseViewDefinition(Slice(wrong.Serialize())).ok());
}

// --- catalog ---------------------------------------------------------------

TEST(ViewCatalogTest, SaveLoadListDrop) {
  auto env = NewMemEnv();
  ViewCatalog catalog(env.get(), "/store");

  auto list = catalog.List();
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty());

  auto a = MakeViewDefinition("alpha", Slice("scan(s) | encode | store(alpha)"));
  auto b = MakeViewDefinition("beta", Slice("scan(s) | encode | store(beta)"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(catalog.Save(*b).ok());
  ASSERT_TRUE(catalog.Save(*a).ok());

  list = catalog.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, (std::vector<std::string>{"alpha", "beta"}));

  auto loaded = catalog.Load("alpha");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Serialize(), a->Serialize());
  EXPECT_FALSE(catalog.Load("gamma").ok());

  ASSERT_TRUE(catalog.Drop("alpha").ok());
  EXPECT_FALSE(catalog.Load("alpha").ok());
  EXPECT_FALSE(catalog.Drop("alpha").ok());
  list = catalog.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, (std::vector<std::string>{"beta"}));
}

TEST(ViewCatalogTest, ListingErrorIsNotAnEmptyCatalog) {
  // Only a missing views directory lists as empty; a failed listing of an
  // existing one must not make every view silently disappear.
  auto mem = NewMemEnv();
  FailingListEnv env(mem.get());
  ViewCatalog catalog(&env, "/store");
  auto def =
      MakeViewDefinition("alpha", Slice("scan(s) | encode | store(alpha)"));
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(catalog.Save(*def).ok());
  env.armed = true;
  EXPECT_TRUE(catalog.List().status().IsIOError());
  env.armed = false;
  auto list = catalog.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, std::vector<std::string>{"alpha"});
}

// --- maintainer + candidates ----------------------------------------------

TEST_F(ViewTest, MaintainerMaterializesAndCandidatesTrackFreshness) {
  ASSERT_TRUE(db_->IngestScene("beach", *Scene(), 16, Ingest22()).ok());

  ViewMaintainer maintainer(db_);
  ASSERT_TRUE(maintainer
                  .CreateView("beachview",
                              Slice("scan(beach) | quality(high) | encode | "
                                    "store(beachview)"))
                  .ok());

  auto has_candidate = [&]() {
    auto candidates = maintainer.catalog()->Candidates(*storage());
    EXPECT_TRUE(candidates.ok());
    return std::any_of(candidates->begin(), candidates->end(),
                       [](const MaterializedViewInfo& info) {
                         return info.name == "beachview";
                       });
  };

  // Defined but never maintained: not offered to the optimizer.
  EXPECT_FALSE(has_candidate());

  ASSERT_TRUE(maintainer.Maintain("beachview").ok());
  auto view_md = storage()->GetVideo("beachview");
  ASSERT_TRUE(view_md.ok()) << view_md.status().ToString();
  EXPECT_EQ(view_md->segment_count(), 2);
  EXPECT_EQ(view_md->quality_count(), 1);
  EXPECT_TRUE(has_candidate());

  // A second catch-up with no new source commits is a no-op.
  ASSERT_TRUE(maintainer.Maintain("beachview").ok());
  auto results = maintainer.Results("beachview");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);

  // Re-ingesting the source bumps its version: the view is stale and
  // silently stops matching.
  ASSERT_TRUE(db_->IngestScene("beach", *Scene(), 16, Ingest22()).ok());
  EXPECT_FALSE(has_candidate());

  // A refresh re-derives against the new version and the view is fresh
  // again.
  ASSERT_TRUE(maintainer.RefreshView("beachview").ok());
  EXPECT_TRUE(has_candidate());
  auto def = maintainer.catalog()->Load("beachview");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->source_version, 2u);
  EXPECT_EQ(def->segments, 2);
}

TEST_F(ViewTest, RegisterRejectsUnsupportedShapes) {
  ViewMaintainer maintainer(db_);
  // No subscribe.
  EXPECT_FALSE(
      maintainer.Register(Slice("scan(venice) | quality(high) | encode")).ok());
  // No encode sink under the subscribe.
  EXPECT_FALSE(
      maintainer.Register(Slice("scan(venice) | quality(high) | subscribe(w)"))
          .ok());
  // Store target must equal the subscribe name.
  EXPECT_FALSE(maintainer
                   .Register(Slice("scan(venice) | quality(high) | encode | "
                                   "store(a) | subscribe(b)"))
                   .ok());
  // Unions are not maintainable.
  Query u = Query::Union({Query::Scan("a"), Query::Scan("b")})
                .Encode()
                .Subscribe("u");
  EXPECT_FALSE(maintainer.Register(Slice(u.ToString())).ok());

  auto name = maintainer.Register(
      Slice("scan(venice) | quality(high) | encode | subscribe(w)"));
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(*name, "w");
  // Duplicate registration.
  EXPECT_FALSE(
      maintainer.Register(Slice("scan(venice) | encode | subscribe(w)")).ok());
}

// --- view-matching rewrite: served bytes are the baseline's bytes ----------

TEST_F(ViewTest, SubsumedQueryServesFromViewByteIdentical) {
  // A degrade plan mixes rungs, so the baseline must transcode.
  Query chain = Query::Scan("venice")
                    .Viewport(kPi, kPi / 2, DegToRad(90), DegToRad(60))
                    .QualityFloor("high")
                    .Degrade("low");
  Query q = chain.Encode();

  ViewMaintainer maintainer(db_);
  ASSERT_TRUE(
      maintainer.CreateView("periph", Slice(chain.Encode().Store("periph").ToString()))
          .ok());
  ASSERT_TRUE(maintainer.Maintain("periph").ok());

  const CostModel pinned;
  OptimizeOptions plain;
  plain.cost_model = &pinned;
  auto baseline_plan = Optimize(q, storage(), plain);
  ASSERT_TRUE(baseline_plan.ok()) << baseline_plan.status().ToString();
  EXPECT_FALSE(baseline_plan->transcode_free);
  EXPECT_TRUE(baseline_plan->view_served.empty());
  auto baseline = ExecutePlan(*baseline_plan, storage());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline->has_encoded);
  EXPECT_GT(baseline->transcodes, 0);

  auto candidates = maintainer.catalog()->Candidates(*storage());
  ASSERT_TRUE(candidates.ok());
  MetricsSnapshot before = MetricRegistry::Global().Snapshot();

  OptimizeOptions with_views = plain;
  with_views.views = &*candidates;
  auto served_plan = Optimize(q, storage(), with_views);
  ASSERT_TRUE(served_plan.ok()) << served_plan.status().ToString();
  EXPECT_EQ(served_plan->view_served, "periph");
  EXPECT_TRUE(served_plan->transcode_free);

  MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  EXPECT_GT(after.counters["query.view_hits"],
            before.counters["query.view_hits"]);

  // The costed alternatives name the view scan as chosen and keep the
  // displaced transcode visible.
  bool view_chosen = false, reencode_listed = false;
  for (const PlanAlternative& alt : served_plan->alternatives) {
    if (alt.name == "view-scan(periph)") view_chosen = alt.chosen;
    if (alt.name == "re-encode") reencode_listed = !alt.chosen;
  }
  EXPECT_TRUE(view_chosen);
  EXPECT_TRUE(reencode_listed);

  // Serving from the view changes the work, never the bytes.
  auto served = ExecutePlan(*served_plan, storage());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->has_encoded);
  EXPECT_EQ(served->transcodes, 0);
  EXPECT_EQ(served->encoded.Serialize(), baseline->encoded.Serialize());
}

// --- incremental maintenance == full recompute -----------------------------

TEST_F(ViewTest, IncrementalMaintenanceMatchesFullRecompute) {
  ViewMaintainer maintainer(db_);
  // Registered before the source exists: maintenance no-ops until frames
  // arrive, then rides every live checkpoint.
  ASSERT_TRUE(maintainer
                  .CreateView("feedview",
                              Slice("scan(feed) | quality(high) | encode | "
                                    "store(feedview)"))
                  .ok());
  ASSERT_TRUE(maintainer.Maintain("feedview").ok());

  LiveIngestOptions live_options;
  live_options.ingest = Ingest22();
  live_options.publish_segments = true;
  auto live = db_->StartLiveIngest("feed", 128, 64, live_options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  auto scene = Scene();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*live)->AppendFrame(scene->FrameAt(i)).ok());
  }
  ASSERT_TRUE((*live)->Close().ok());
  ASSERT_TRUE(maintainer.status().ok()) << maintainer.status().ToString();

  // 20 frames at 8/segment = 3 slices (8, 8, 4), each maintained as its
  // own emission when its checkpoint committed.
  auto incremental = maintainer.Results("feedview");
  ASSERT_TRUE(incremental.ok());
  ASSERT_EQ(incremental->size(), 3u);
  for (size_t i = 0; i < incremental->size(); ++i) {
    EXPECT_EQ((*incremental)[i].view_segment, static_cast<int>(i));
    EXPECT_GT((*incremental)[i].bytes, 0u);
  }

  auto inc_md = storage()->GetVideo("feedview");
  ASSERT_TRUE(inc_md.ok()) << inc_md.status().ToString();
  EXPECT_FALSE(inc_md->streaming);
  ASSERT_EQ(inc_md->segment_count(), 3);

  // Full recompute into a fresh view version.
  ASSERT_TRUE(maintainer.RefreshView("feedview").ok());
  auto full_md = storage()->GetVideo("feedview");
  ASSERT_TRUE(full_md.ok());
  EXPECT_GT(full_md->version, inc_md->version);
  ASSERT_EQ(full_md->segment_count(), 3);

  // Per-segment emissions are byte-identical between the two timelines
  // (source_version may differ: incremental saw intermediate checkpoints).
  auto full = maintainer.Results("feedview");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), incremental->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ((*full)[i].source_segment, (*incremental)[i].source_segment);
    EXPECT_EQ((*full)[i].bytes, (*incremental)[i].bytes) << "emission " << i;
    EXPECT_EQ((*full)[i].checksum, (*incremental)[i].checksum)
        << "emission " << i;
  }

  // And so are the stored view cells themselves.
  for (int segment = 0; segment < 3; ++segment) {
    for (int tile = 0; tile < inc_md->tile_count(); ++tile) {
      auto a = storage()->ReadCell(*inc_md, segment, tile, 0);
      auto b = storage()->ReadCell(*full_md, segment, tile, 0);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(**a, **b) << "segment " << segment << " tile " << tile;
    }
  }
}

// --- standing-query determinism --------------------------------------------

/// Runs the full live scenario — fresh store, standing query registered
/// up front, 20 frames fed through a publishing live session — and returns
/// the per-segment emissions. `io_threads` > 0 turns on the async cell
/// I/O pool (the prefetch path).
std::vector<StandingQueryResult> RunStandingScenario(int io_threads) {
  std::unique_ptr<Env> env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/db";
  options.storage.io_threads = io_threads;
  auto db = VisualCloud::Open(options);
  EXPECT_TRUE(db.ok());

  std::vector<StandingQueryResult> results;
  {
    ViewMaintainer maintainer(db->get());
    auto name = maintainer.Register(
        Slice("scan(feed) | quality(high) | encode | subscribe(watch)"));
    EXPECT_TRUE(name.ok()) << name.status().ToString();

    SceneOptions scene_options;
    scene_options.width = 128;
    scene_options.height = 64;
    auto scene = NewVeniceScene(scene_options);

    IngestOptions ingest;
    ingest.tile_rows = 2;
    ingest.tile_cols = 2;
    ingest.frames_per_segment = 8;
    ingest.fps = 8.0;
    ingest.ladder = {{"high", 14}, {"low", 42}};
    LiveIngestOptions live_options;
    live_options.ingest = ingest;
    live_options.publish_segments = true;
    auto live = (*db)->StartLiveIngest("feed", 128, 64, live_options);
    EXPECT_TRUE(live.ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((*live)->AppendFrame(scene->FrameAt(i)).ok());
    }
    EXPECT_TRUE((*live)->Close().ok());
    EXPECT_TRUE(maintainer.status().ok()) << maintainer.status().ToString();

    auto emitted = maintainer.Results("watch");
    EXPECT_TRUE(emitted.ok());
    if (emitted.ok()) results = *emitted;
  }
  return results;
}

TEST(StandingQueryTest, ResultsDeterministicAcrossRerunsAndPrefetchModes) {
  std::vector<StandingQueryResult> sync = RunStandingScenario(0);
  std::vector<StandingQueryResult> rerun = RunStandingScenario(0);
  std::vector<StandingQueryResult> prefetch = RunStandingScenario(2);

  ASSERT_EQ(sync.size(), 3u);
  for (const auto* run : {&rerun, &prefetch}) {
    ASSERT_EQ(run->size(), sync.size());
    for (size_t i = 0; i < sync.size(); ++i) {
      EXPECT_EQ((*run)[i].index, sync[i].index);
      EXPECT_EQ((*run)[i].source_segment, sync[i].source_segment);
      EXPECT_EQ((*run)[i].bytes, sync[i].bytes) << "emission " << i;
      EXPECT_EQ((*run)[i].checksum, sync[i].checksum) << "emission " << i;
      EXPECT_EQ((*run)[i].view_segment, -1);  // plain standing query
    }
  }
}

TEST_F(ViewTest, StandingCatchUpOverArchivedVideoIsRepeatable) {
  auto run = [&]() {
    ViewMaintainer maintainer(db_);
    auto name = maintainer.Register(
        Slice("scan(venice) | quality(medium) | encode | subscribe(replay)"));
    EXPECT_TRUE(name.ok()) << name.status().ToString();
    EXPECT_TRUE(maintainer.Maintain("replay").ok());
    auto results = maintainer.Results("replay");
    EXPECT_TRUE(results.ok());
    return results.ok() ? *results : std::vector<StandingQueryResult>{};
  };
  std::vector<StandingQueryResult> first = run();
  std::vector<StandingQueryResult> second = run();
  ASSERT_EQ(first.size(), 4u);  // one emission per venice segment
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].source_segment, first[i].source_segment);
    EXPECT_EQ(second[i].bytes, first[i].bytes);
    EXPECT_EQ(second[i].checksum, first[i].checksum);
    EXPECT_GT(first[i].cells_scanned, 0);
  }
}


// --- the catalog's in-memory version set ------------------------------------

/// A store opened afresh on `storage`'s root sees exactly the version set
/// the live store keeps in memory.
void ExpectReopenRebuildsVersionSet(const StorageManager& storage) {
  StorageOptions options;
  options.env = storage.env();
  options.root = storage.root();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto videos = storage.ListVideos();
  auto rebuilt = (*reopened)->ListVideos();
  ASSERT_TRUE(videos.ok() && rebuilt.ok());
  ASSERT_EQ(*rebuilt, *videos);
  for (const std::string& name : *videos) {
    SCOPED_TRACE(name);
    auto versions = storage.ListVersions(name);
    auto rebuilt_versions = (*reopened)->ListVersions(name);
    ASSERT_TRUE(versions.ok() && rebuilt_versions.ok());
    EXPECT_EQ(*rebuilt_versions, *versions);
    auto latest = storage.GetVideo(name);
    auto rebuilt_latest = (*reopened)->GetVideo(name);
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    ASSERT_TRUE(rebuilt_latest.ok()) << rebuilt_latest.status().ToString();
    EXPECT_EQ(rebuilt_latest->Serialize(), latest->Serialize());
  }
}

TEST(StorageCatalogTest, ReopenRebuildsTheSameVersionSet) {
  std::unique_ptr<Env> env = NewMemEnv();
  VisualCloudOptions options;
  options.storage.env = env.get();
  options.storage.root = "/db";
  auto db = VisualCloud::Open(options);
  ASSERT_TRUE(db.ok());
  StorageManager* storage = (*db)->storage();
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = NewVeniceScene(scene_options);
  IngestOptions ingest;
  ingest.tile_rows = 2;
  ingest.tile_cols = 2;
  ingest.frames_per_segment = 8;
  ingest.fps = 8.0;
  ingest.ladder = {{"high", 14}, {"low", 42}};

  {
    SCOPED_TRACE("offline ingest");
    ASSERT_TRUE((*db)->IngestScene("offline", *scene, 16, ingest).ok());
    ExpectReopenRebuildsVersionSet(*storage);
  }
  {
    SCOPED_TRACE("live checkpoints and close");
    LiveIngestOptions live_options;
    live_options.ingest = ingest;
    live_options.publish_segments = true;
    auto live = (*db)->StartLiveIngest("live", 128, 64, live_options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*live)->AppendFrame(scene->FrameAt(i)).ok());
      if (i % 8 == 7) ExpectReopenRebuildsVersionSet(*storage);
    }
    ASSERT_TRUE((*live)->Close().ok());
    ExpectReopenRebuildsVersionSet(*storage);
    auto versions = storage->ListVersions("live");
    ASSERT_TRUE(versions.ok());
    EXPECT_EQ(*versions, (std::vector<uint32_t>{1, 2, 3, 4}));
  }
  {
    SCOPED_TRACE("maintained view");
    ViewMaintainer maintainer(db->get());
    ASSERT_TRUE(maintainer
                    .CreateView("offview",
                                Slice("scan(offline) | quality(high) | "
                                      "encode | store(offview)"))
                    .ok());
    ASSERT_TRUE(maintainer.Maintain("offview").ok());
    ASSERT_TRUE(storage->GetVideo("offview").ok());
    ExpectReopenRebuildsVersionSet(*storage);
  }
  {
    SCOPED_TRACE("drop");
    ASSERT_TRUE((*db)->Drop("live").ok());
    EXPECT_TRUE(storage->GetVideo("live").status().IsNotFound());
    ExpectReopenRebuildsVersionSet(*storage);
    auto videos = storage->ListVideos();
    ASSERT_TRUE(videos.ok());
    EXPECT_EQ(*videos, (std::vector<std::string>{"offline", "offview"}));
  }
}

}  // namespace
}  // namespace vc
