// Failure-injection and property-based fuzz tests: a DBMS must treat every
// byte it reads from disk or the network as hostile. Nothing in here may
// crash, hang, or corrupt memory — adversarial inputs must surface as
// Status errors (or, for bit flips that happen to decode, as garbage
// pixels, never UB).

#include <gtest/gtest.h>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "common/env.h"
#include "common/random.h"
#include "container/box.h"
#include "image/scene.h"
#include "storage/metadata.h"
#include "storage/storage_manager.h"
#include "streaming/manifest.h"

namespace vc {
namespace {

std::vector<Frame> SmallFrames(int count) {
  SceneOptions options;
  options.width = 64;
  options.height = 32;
  auto scene = NewVeniceScene(options);
  return RenderScene(*scene, count);
}

EncoderOptions SmallOptions() {
  EncoderOptions options;
  options.width = 64;
  options.height = 32;
  options.gop_length = 4;
  options.tile_rows = 2;
  options.tile_cols = 2;
  return options;
}

// ----------------------------------------------- Decoder vs hostile bytes

class DecoderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzzTest, RandomPayloadNeverCrashes) {
  Random rng(GetParam());
  auto decoder = *Decoder::Create(SmallOptions().ToHeader());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(300) + 1);
    for (auto& byte : junk) byte = static_cast<uint8_t>(rng.Next());
    // Must not crash; almost always errors, occasionally decodes garbage.
    auto result = decoder->Decode(Slice(junk));
    (void)result;
  }
}

TEST_P(DecoderFuzzTest, BitFlippedPayloadNeverCrashes) {
  Random rng(GetParam() ^ 0xF11Full);
  auto frames = SmallFrames(6);
  auto video = *EncodeVideo(frames, SmallOptions());
  auto decoder = *Decoder::Create(video.header);
  for (int trial = 0; trial < 100; ++trial) {
    auto payload = video.frames[trial % video.frames.size()].payload;
    // Flip 1-4 random bits.
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < flips; ++i) {
      size_t bit = rng.Uniform(payload.size() * 8);
      payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    auto result = decoder->Decode(Slice(payload));
    (void)result;
  }
}

TEST_P(DecoderFuzzTest, TruncatedStreamsFailCleanly) {
  Random rng(GetParam() ^ 0x7777ull);
  auto video = *EncodeVideo(SmallFrames(6), SmallOptions());
  auto bytes = video.Serialize();
  for (int trial = 0; trial < 50; ++trial) {
    size_t keep = rng.Uniform(bytes.size());
    auto truncated = bytes;
    truncated.resize(keep);
    auto parsed = EncodedVideo::Parse(Slice(truncated));
    if (parsed.ok()) {
      // A truncation exactly at a frame boundary yields a valid shorter
      // stream; anything else must error.
      EXPECT_LE(parsed->frames.size(), video.frames.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------------- Container vs hostile bytes

class ContainerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContainerFuzzTest, RandomBytesNeverCrashParser) {
  Random rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> junk(rng.Uniform(200));
    for (auto& byte : junk) byte = static_cast<uint8_t>(rng.Next());
    auto boxes = ParseBoxes(Slice(junk));
    (void)boxes;
  }
}

TEST_P(ContainerFuzzTest, MutatedMetadataNeverCrashesParser) {
  Random rng(GetParam() ^ 0x4d455441ull);
  VideoMetadata m;
  m.name = "fuzz";
  m.version = 1;
  m.width = 64;
  m.height = 32;
  m.frames_per_segment = 4;
  m.ladder = {{"only", 30}};
  m.segments = {{0, 4}};
  m.cells = {CellInfo{10, 1}};
  auto bytes = m.Serialize();
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = bytes;
    int mutations = 1 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < mutations; ++i) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<uint8_t>(rng.Next());
    }
    auto parsed = VideoMetadata::Parse(Slice(mutated));
    (void)parsed;  // error or (rarely) a still-valid metadata — never UB
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainerFuzzTest, ::testing::Values(7, 8, 9));

// ----------------------------------------------------- Storage corruption

TEST(StorageRobustnessTest, CorruptMetadataFileSurfacesError) {
  auto env = NewMemEnv();
  StorageOptions options;
  options.env = env.get();
  options.root = "/s";
  auto store = *StorageManager::Open(options);

  VideoMetadata layout;
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  std::vector<std::vector<uint8_t>> cells = {std::vector<uint8_t>(10, 1)};
  for (const char* name : {"v", "w"}) {
    layout.name = name;
    auto writer = *store->NewVideoWriter(layout);
    ASSERT_TRUE(writer->AddSegment(4, cells).ok());
    ASSERT_TRUE(writer->Commit().ok());
  }
  auto intact = store->GetVideo("w");
  ASSERT_TRUE(intact.ok());

  // Overwrite the metadata file with garbage, then reopen: the store still
  // opens, reads of the garbled video error, no crash.
  const Slice garbage("garbage", 7);
  ASSERT_TRUE(env->WriteFile("/s/v/metadata.v1.vcmf", garbage).ok());
  store.reset();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Status parse_error = VideoMetadata::Parse(garbage).status();
  ASSERT_FALSE(parse_error.ok());
  auto latest = (*reopened)->GetVideo("v");
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().ToString(), parse_error.ToString());
  auto version = (*reopened)->GetVideoVersion("v", 1);
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().ToString(), parse_error.ToString());

  // The other video is untouched.
  auto other = (*reopened)->GetVideo("w");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other->Serialize(), intact->Serialize());
  auto cell = (*reopened)->ReadCell(*other, 0, 0, 0);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  EXPECT_EQ(**cell, cells[0]);
}

TEST(StorageRobustnessTest, EveryCorruptedCellByteIsDetected) {
  // Property: flipping any single byte of a stored cell fails the checksum.
  auto env = NewMemEnv();
  StorageOptions options;
  options.env = env.get();
  options.root = "/s";
  auto store = *StorageManager::Open(options);

  VideoMetadata layout;
  layout.name = "v";
  layout.width = 64;
  layout.height = 32;
  layout.frames_per_segment = 4;
  layout.ladder = {{"only", 30}};
  auto writer = *store->NewVideoWriter(layout);
  std::vector<uint8_t> payload(64);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(writer->AddSegment(4, {payload}).ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto metadata = *store->GetVideo("v");
  std::string path = "/s/v/v1/" + metadata.CellFileName(0, 0, 0);

  for (size_t i = 0; i < payload.size(); ++i) {
    auto corrupted = payload;
    corrupted[i] ^= 0x01;
    ASSERT_TRUE(env->WriteFile(path, Slice(corrupted)).ok());
    // Fresh open per mutation so the clean copy is not cached.
    auto fresh = *StorageManager::Open(options);
    EXPECT_TRUE(fresh->ReadCell(metadata, 0, 0, 0).status().IsCorruption())
        << "byte " << i << " flip undetected";
  }
}

// ------------------------------------------------------ Manifest vs noise

class ManifestFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ManifestFuzzTest, RandomTextNeverCrashes) {
  Random rng(GetParam());
  const char charset[] = "abcdefgh 0123456789\nVCMPDcellquality-.";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    size_t length = rng.Uniform(400);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(charset[rng.Uniform(sizeof(charset) - 1)]);
    }
    auto parsed = ParseManifest(Slice(text));
    (void)parsed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestFuzzTest, ::testing::Values(11, 12));

// -------------------------------------------- Geometry property sweeps

struct GridCase {
  int rows, cols;
};

class TileGridPropertyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(TileGridPropertyTest, RandomOrientationInvariants) {
  TileGrid grid(GetParam().rows, GetParam().cols);
  Random rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    Orientation o{rng.UniformDouble(-10, 10), rng.UniformDouble(-2, 5)};
    TileId tile = grid.TileFor(o);
    ASSERT_GE(tile.row, 0);
    ASSERT_LT(tile.row, grid.rows());
    ASSERT_GE(tile.col, 0);
    ASSERT_LT(tile.col, grid.cols());
    // The gaze tile is always part of the covered viewport.
    auto covered = grid.TilesInViewport(o, DegToRad(90), DegToRad(75));
    ASSERT_FALSE(covered.empty());
    bool found = false;
    for (const TileId& t : covered) {
      if (t == tile) found = true;
      ASSERT_GE(t.row, 0);
      ASSERT_LT(t.row, grid.rows());
    }
    ASSERT_TRUE(found) << "gaze tile missing from viewport cover";
  }
}

TEST_P(TileGridPropertyTest, PixelRectsPartitionRandomFrames) {
  TileGrid grid(GetParam().rows, GetParam().cols);
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    int width = 16 * (grid.cols() + static_cast<int>(rng.Uniform(20)));
    int height = 16 * (grid.rows() + static_cast<int>(rng.Uniform(20)));
    long long area = 0;
    for (int i = 0; i < grid.tile_count(); ++i) {
      auto rect = grid.PixelRectOf(grid.TileAt(i), width, height, 16);
      ASSERT_TRUE(rect.ok());
      area += static_cast<long long>(rect->width) * rect->height;
    }
    ASSERT_EQ(area, static_cast<long long>(width) * height);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, TileGridPropertyTest,
    ::testing::Values(GridCase{1, 1}, GridCase{2, 2}, GridCase{4, 4},
                      GridCase{4, 8}, GridCase{6, 8}, GridCase{8, 8}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

// --------------------------------------------- Codec encode/decode parity

TEST(CodecRobustnessTest, NoiseFramesRoundTripBitExactly) {
  // Worst-case content (white noise) still must keep encoder and decoder
  // reconstructions identical — the invariant that prevents drift.
  Random rng(123);
  EncoderOptions options = SmallOptions();
  auto encoder = *Encoder::Create(options);
  auto decoder = *Decoder::Create(options.ToHeader());
  for (int i = 0; i < 8; ++i) {
    Frame frame(64, 32);
    for (auto& v : frame.y_plane()) v = static_cast<uint8_t>(rng.Next());
    for (auto& v : frame.u_plane()) v = static_cast<uint8_t>(rng.Next());
    for (auto& v : frame.v_plane()) v = static_cast<uint8_t>(rng.Next());
    auto encoded = encoder->Encode(frame);
    ASSERT_TRUE(encoded.ok());
    auto decoded = decoder->Decode(Slice(encoded->payload));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->y_plane(), encoder->reconstructed().y_plane());
    ASSERT_EQ(decoded->u_plane(), encoder->reconstructed().u_plane());
    ASSERT_EQ(decoded->v_plane(), encoder->reconstructed().v_plane());
  }
}

}  // namespace
}  // namespace vc
