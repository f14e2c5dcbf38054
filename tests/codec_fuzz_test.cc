#include <gtest/gtest.h>

#include <ios>
#include <vector>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/homomorphic.h"
#include "common/random.h"
#include "image/scene.h"

// Deterministic fuzzing of the bitstream parser and tile decoder: valid
// streams are truncated at every interesting length and peppered with seeded
// bit flips, and every mutant is pushed through EncodedVideo::Parse and full
// tile decoding. The contract under test is totality — every input either
// decodes or returns a clean error Status. Crashes, hangs, and out-of-bounds
// access (the ASan/UBSan CI leg runs this suite) are the failures. One test
// additionally pins which mutants decode, and to what, so a change to the
// entropy reader must accept and reject exactly the same inputs.

namespace vc {
namespace {

std::vector<uint8_t> EncodeFixture(int tile_rows, int tile_cols) {
  SceneOptions scene_options;
  scene_options.width = 64;
  scene_options.height = 32;
  auto scene = NewVeniceScene(scene_options);
  auto frames = RenderScene(*scene, 4);

  EncoderOptions options;
  options.width = 64;
  options.height = 32;
  options.gop_length = 4;
  options.qp = 30;
  options.tile_rows = tile_rows;
  options.tile_cols = tile_cols;
  auto video = EncodeVideo(frames, options);
  EXPECT_TRUE(video.ok());
  return video->Serialize();
}

/// A 2x2 stream stitched from cells encoded at two QPs (tiles 0 and 3 at
/// 30, tiles 1 and 2 at 40): every frame carries per-tile QP bytes.
std::vector<uint8_t> MixedQpFixture() {
  SceneOptions scene_options;
  scene_options.width = 64;
  scene_options.height = 32;
  auto scene = NewVeniceScene(scene_options);
  auto frames = RenderScene(*scene, 4);

  EncoderOptions options;
  options.width = 64;
  options.height = 32;
  options.gop_length = 4;
  options.tile_rows = 2;
  options.tile_cols = 2;
  std::vector<EncodedVideo> cells;
  for (int i = 0; i < 4; ++i) {
    options.qp = (i == 0 || i == 3) ? 30 : 40;
    auto video = EncodeVideo(frames, options);
    EXPECT_TRUE(video.ok());
    auto cell = ExtractTileStream(*video, video->header.tile_grid().TileAt(i));
    EXPECT_TRUE(cell.ok());
    cells.push_back(std::move(*cell));
  }
  auto merged = MergeTileStreams(cells, 2, 2, 64, 32);
  EXPECT_TRUE(merged.ok());
  return merged->Serialize();
}

/// Parses and, when parsing succeeds, fully decodes every frame. Any return
/// path is acceptable; the assertion is that we get here at all (no crash)
/// and that failure surfaces as a Status rather than garbage memory.
void DriveDecoder(const std::vector<uint8_t>& bytes) {
  auto video = EncodedVideo::Parse(Slice(bytes));
  if (!video.ok()) return;
  auto decoder = Decoder::Create(video->header);
  if (!decoder.ok()) return;
  for (const EncodedFrame& frame : video->frames) {
    auto decoded = (*decoder)->Decode(Slice(frame.payload));
    if (!decoded.ok()) return;  // later frames reference this one; stop
  }
}

class FuzzTest : public ::testing::Test {};

/// Every length in the header region, then a deterministic sample of the
/// payload region (every length would be quadratic in stream size).
std::vector<std::vector<uint8_t>> TruncationCorpus(
    const std::vector<uint8_t>& bytes) {
  std::vector<std::vector<uint8_t>> corpus;
  for (size_t keep = 0; keep < 64; ++keep) {
    corpus.emplace_back(bytes.begin(), bytes.begin() + keep);
  }
  Random rng(20260808);
  for (int i = 0; i < 200; ++i) {
    size_t keep = 64 + rng.Uniform(static_cast<uint32_t>(bytes.size() - 64));
    corpus.emplace_back(bytes.begin(), bytes.begin() + keep);
  }
  return corpus;
}

/// Seeded bit flips: 1–8 per mutant; single flips probe every layer, bursts
/// corrupt deeper.
std::vector<std::vector<uint8_t>> BitFlipCorpus(
    const std::vector<uint8_t>& bytes) {
  std::vector<std::vector<uint8_t>> corpus;
  Random rng(971);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> mutant = bytes;
    int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < flips; ++i) {
      size_t bit = rng.Uniform(static_cast<uint32_t>(mutant.size() * 8));
      mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    corpus.push_back(std::move(mutant));
  }
  return corpus;
}

/// FNV-1a over `size` bytes, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

/// Folds one mutant's outcome into `hash`: its corpus index, the bytes of
/// every frame that decoded, and the status (code and message) that stopped
/// decoding (OK when every frame decoded).
uint64_t HashOutcome(uint64_t hash, uint64_t index,
                     const std::vector<uint8_t>& bytes) {
  hash = Fnv1a(hash, &index, sizeof(index));
  Status status;
  auto video = EncodedVideo::Parse(Slice(bytes));
  if (!video.ok()) {
    status = video.status();
  } else if (auto decoder = Decoder::Create(video->header); !decoder.ok()) {
    status = decoder.status();
  } else {
    for (const EncodedFrame& frame : video->frames) {
      auto decoded = (*decoder)->Decode(Slice(frame.payload));
      if (!decoded.ok()) {
        status = decoded.status();
        break;
      }
      for (const auto* plane :
           {&decoded->y_plane(), &decoded->u_plane(), &decoded->v_plane()}) {
        hash = Fnv1a(hash, plane->data(), plane->size());
      }
    }
  }
  const auto code = static_cast<uint8_t>(status.code());
  hash = Fnv1a(hash, &code, sizeof(code));
  return Fnv1a(hash, status.message().data(), status.message().size());
}

TEST_F(FuzzTest, TruncatedStreamsFailCleanly) {
  auto bytes = EncodeFixture(2, 2);
  ASSERT_GT(bytes.size(), 64u);
  for (const auto& mutant : TruncationCorpus(bytes)) DriveDecoder(mutant);
}

TEST_F(FuzzTest, BitFlippedStreamsFailCleanly) {
  auto bytes = EncodeFixture(2, 2);
  for (const auto& mutant : BitFlipCorpus(bytes)) DriveDecoder(mutant);
}

TEST_F(FuzzTest, OutcomeDigestIsPinned) {
  // The constant was computed with the bit-at-a-time entropy reader; the
  // windowed reader must accept, reject and decode every mutant the same.
  auto bytes = EncodeFixture(2, 2);
  ASSERT_GT(bytes.size(), 64u);
  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t index = 0;
  for (const auto& corpus : {TruncationCorpus(bytes), BitFlipCorpus(bytes)}) {
    for (const auto& mutant : corpus) {
      hash = HashOutcome(hash, index++, mutant);
    }
  }
  EXPECT_EQ(index, 664u);
  EXPECT_EQ(hash, 0x8c2924fefe22fa52ull)
      << std::hex << "actual digest 0x" << hash;
}

TEST_F(FuzzTest, MixedQpStreamsFailCleanly) {
  // The same corpora over a stitched per-tile-QP stream. Each mutant must
  // decode or fail with a Status, and so must extracting each of its tiles
  // (the homomorphic path that reads the per-tile QP bytes too).
  auto bytes = MixedQpFixture();
  ASSERT_GT(bytes.size(), 64u);
  for (const auto& corpus : {TruncationCorpus(bytes), BitFlipCorpus(bytes)}) {
    for (const auto& mutant : corpus) {
      DriveDecoder(mutant);
      auto video = EncodedVideo::Parse(Slice(mutant));
      if (!video.ok()) continue;
      for (int i = 0; i < 4; ++i) {
        auto tile = ExtractTileStream(*video, TileGrid(2, 2).TileAt(i));
        if (tile.ok()) DriveDecoder(tile->Serialize());
      }
    }
  }
}

TEST_F(FuzzTest, MixedQpOutcomeDigestIsPinned) {
  // Which mutants of the per-tile-QP stream decode, to what, and with
  // which error the rest stop.
  auto bytes = MixedQpFixture();
  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t index = 0;
  for (const auto& corpus : {TruncationCorpus(bytes), BitFlipCorpus(bytes)}) {
    for (const auto& mutant : corpus) {
      hash = HashOutcome(hash, index++, mutant);
    }
  }
  EXPECT_EQ(index, 664u);
  EXPECT_EQ(hash, 0x66297a8e929df0eeull)
      << std::hex << "actual digest 0x" << hash;
}

TEST_F(FuzzTest, MutatedTilePayloadsFailCleanly) {
  // Mutations aimed past the container framing, straight at tile payloads:
  // parse the valid stream once, corrupt frame payload bytes after the tile
  // offset table, and decode single tiles.
  auto bytes = EncodeFixture(2, 2);
  auto video = EncodedVideo::Parse(Slice(bytes));
  ASSERT_TRUE(video.ok());
  Random rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    EncodedVideo mutant = *video;
    auto& payload = mutant.frames[rng.Uniform(
        static_cast<uint32_t>(mutant.frames.size()))].payload;
    const size_t data_start = 2 + 4 * 4;  // type, qp, 4 tile offsets
    if (payload.size() <= data_start) continue;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < edits; ++i) {
      size_t pos =
          data_start +
          rng.Uniform(static_cast<uint32_t>(payload.size() - data_start));
      payload[pos] = static_cast<uint8_t>(rng.Uniform(256));
    }
    auto decoder = Decoder::Create(mutant.header);
    ASSERT_TRUE(decoder.ok());
    TileGrid grid = mutant.header.tile_grid();
    for (const EncodedFrame& frame : mutant.frames) {
      auto decoded = (*decoder)->DecodeTiles(
          Slice(frame.payload),
          {grid.TileAt(static_cast<int>(rng.Uniform(4)))});
      if (!decoded.ok()) break;
    }
  }
}

TEST_F(FuzzTest, ZeroAndPatternFilledPayloadsFailCleanly) {
  auto bytes = EncodeFixture(1, 1);
  for (uint8_t fill : {0x00, 0xff, 0xaa, 0x41}) {
    std::vector<uint8_t> mutant = bytes;
    // Keep the header so decoding reaches the entropy layer.
    for (size_t i = SequenceHeader::kSerializedSize + 4; i < mutant.size();
         ++i) {
      mutant[i] = fill;
    }
    DriveDecoder(mutant);
  }
}

}  // namespace
}  // namespace vc
