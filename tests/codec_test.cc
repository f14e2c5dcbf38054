#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <string>

#include "codec/bitstream.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/entropy.h"
#include "codec/homomorphic.h"
#include "codec/motion.h"
#include "codec/quality.h"
#include "codec/simd.h"
#include "codec/transform.h"
#include "common/math_util.h"
#include "common/random.h"
#include "image/metrics.h"
#include "image/scene.h"
#include "obs/metrics.h"

namespace vc {
namespace {

// --------------------------------------------------------------- Transform

TEST(TransformTest, DctRoundTripIsWithinTwo) {
  // The HEVC basis is not exactly orthogonal (row norms 32,740 against
  // 64²·8 = 32,768), so an integer round trip is close, not lossless.
  Random rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    ResidualBlock in;
    for (auto& v : in) {
      v = static_cast<int16_t>(static_cast<int>(rng.Uniform(511)) - 255);
    }
    CoeffBlock coeffs;
    ForwardDct(in, &coeffs);
    ResidualBlock out;
    InverseDct(coeffs, &out);
    for (int i = 0; i < kBlockPixels; ++i) {
      ASSERT_NEAR(in[i], out[i], 2) << "trial " << trial << " index " << i;
    }
  }
}

TEST(TransformTest, DcCoefficientIsScaledMean) {
  ResidualBlock in;
  in.fill(100);
  CoeffBlock coeffs;
  ForwardDct(in, &coeffs);
  // 16× the orthonormal DCT, whose DC is mean · 8 = 800 for a constant-100
  // block; the flat block has no AC energy at all.
  EXPECT_EQ(coeffs[0], 12800);
  for (int i = 1; i < kBlockPixels; ++i) EXPECT_EQ(coeffs[i], 0) << i;
}

TEST(TransformTest, QStepDoublesEverySixQp) {
  EXPECT_NEAR(QStepForQp(6) / QStepForQp(0), 2.0, 1e-9);
  EXPECT_NEAR(QStepForQp(24) / QStepForQp(18), 2.0, 1e-9);
  EXPECT_GT(QStepForQp(51), QStepForQp(0));
}

TEST(TransformTest, QStepTableMatchesPowAndClamps) {
  // The encoder's zero-block bound and Lagrangian read these bits: the table
  // must hold exactly what the defining expression computes.
  for (int qp = 0; qp <= kMaxQp; ++qp) {
    EXPECT_EQ(QStepForQp(qp), 0.625 * std::pow(2.0, qp / 6.0)) << "qp " << qp;
  }
  EXPECT_EQ(QStepForQp(-1), QStepForQp(0));
  EXPECT_EQ(QStepForQp(60), QStepForQp(kMaxQp));
}

TEST(TransformTest, DcOnlyDequantizeMatchesDequantizeThenInverseDctDc) {
  // A lone DC level reconstructs from that one level; it must equal
  // dequantizing the whole block and filling with the DC's inverse.
  for (int qp = 0; qp <= kMaxQp; ++qp) {
    for (int32_t level = -5000; level <= 5000; ++level) {
      LevelBlock levels{};
      levels[0] = level;
      CoeffBlock coeffs;
      Dequantize(levels, qp, &coeffs);
      ASSERT_EQ(DequantizeInverseDctDc(level, qp), InverseDctDc(coeffs[0]))
          << "qp " << qp << " level " << level;
    }
  }
}

TEST(TransformTest, QuantizeDequantizeBoundsError) {
  Random rng(12);
  for (int qp : {0, 20, 37, kMaxQp}) {
    // One step in the transform's 16× coefficient scale.
    const double step = 16 * QStepForQp(qp);
    CoeffBlock coeffs;
    for (auto& c : coeffs) {
      c = static_cast<int32_t>(rng.Uniform(16001)) - 8000;
    }
    LevelBlock levels;
    Quantize(coeffs, qp, &levels);
    CoeffBlock recon;
    Dequantize(levels, qp, &recon);
    for (int i = 0; i < kBlockPixels; ++i) {
      EXPECT_LE(std::abs(recon[i] - coeffs[i]), step)
          << "qp " << qp << ": reconstruction off by more than one step";
    }
  }
}

TEST(TransformTest, DcFillMatchesInverseDct) {
  for (int32_t dc = -32768; dc <= 32767; ++dc) {
    CoeffBlock coeffs{};
    coeffs[0] = dc;
    ResidualBlock dense;
    InverseDct(coeffs, &dense);
    const int16_t fill = InverseDctDc(dc);
    for (int i = 0; i < kBlockPixels; ++i) {
      ASSERT_EQ(dense[i], fill) << "dc " << dc << " index " << i;
    }
  }
}

TEST(TransformTest, DequantizeSaturatesExtremeLevels) {
  LevelBlock levels{};
  levels[0] = INT32_MAX;
  levels[1] = INT32_MIN;
  levels[2] = -INT32_MAX;
  levels[3] = 1;
  for (int qp : {0, 28, kMaxQp}) {
    CoeffBlock coeffs;
    Dequantize(levels, qp, &coeffs);
    EXPECT_EQ(coeffs[0], 32767) << "qp " << qp;
    EXPECT_EQ(coeffs[1], -32768) << "qp " << qp;
    EXPECT_EQ(coeffs[2], -32768) << "qp " << qp;
    EXPECT_GT(coeffs[3], 0) << "qp " << qp;
  }
}

TEST(TransformTest, ZigzagIsAPermutation) {
  const auto& order = kZigzagOrder;
  std::array<int, kBlockPixels> seen{};
  for (int i : order) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, kBlockPixels);
    seen[i]++;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  // First entries follow the canonical diagonal walk.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 8);
  EXPECT_EQ(order[3], 16);
  EXPECT_EQ(order[4], 9);
  EXPECT_EQ(order[5], 2);
  const auto& rank = kZigzagRank;
  for (int i = 0; i < kBlockPixels; ++i) EXPECT_EQ(rank[order[i]], i);
}

// ----------------------------------------------------------------- Entropy

/// Bit i set iff `levels[i]` is nonzero: the mask Quantize returns.
uint64_t RasterNonzeroMask(const LevelBlock& levels) {
  uint64_t mask = 0;
  for (int i = 0; i < kBlockPixels; ++i) {
    if (levels[i] != 0) mask |= uint64_t{1} << i;
  }
  return mask;
}

/// The level-block coder as a plain 64-step zigzag scan with one WriteUE /
/// WriteSE per code: the reference EncodeLevelBlock's mask walk and pair
/// writes must reproduce bit for bit.
int ScanReferenceEncodeLevelBlock(const LevelBlock& levels,
                                  BitWriter* writer) {
  int nonzero = 0;
  for (int i = 0; i < kBlockPixels; ++i) {
    if (levels[i] != 0) ++nonzero;
  }
  writer->WriteUE(static_cast<uint64_t>(nonzero));
  const auto& zigzag = kZigzagOrder;
  int run = 0;
  int remaining = nonzero;
  for (int i = 0; i < kBlockPixels && remaining > 0; ++i) {
    int32_t level = levels[zigzag[i]];
    if (level == 0) {
      ++run;
      continue;
    }
    writer->WriteUE(static_cast<uint64_t>(run));
    writer->WriteSE(level);
    run = 0;
    --remaining;
  }
  return nonzero;
}

TEST(EntropyTest, LevelBlockRoundTrip) {
  Random rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    LevelBlock in{};
    // Sparse blocks, as produced by quantization.
    for (int i = 0; i < kBlockPixels; ++i) {
      if (rng.Bernoulli(0.2)) {
        in[i] = static_cast<int32_t>(rng.Uniform(2000)) - 1000;
      }
    }
    BitWriter writer;
    EncodeLevelBlock(in, RasterNonzeroMask(in), &writer);
    auto bytes = writer.Finish();
    BitReader reader{Slice(bytes)};
    LevelBlock out{};
    uint64_t mask = 0;
    ASSERT_TRUE(DecodeLevelBlock(&reader, &out, &mask).ok());
    EXPECT_EQ(in, out);
    EXPECT_EQ(mask, RasterNonzeroMask(in));
  }
}

TEST(EntropyTest, LevelBlockMatchesScanReference) {
  // Crafted blocks: all zero, all 64 nonzero, one level after a run of 63,
  // one at each end of the scan, and magnitudes near 2^31 whose (run,
  // level) pair no longer fits one 32-bit write.
  std::vector<LevelBlock> blocks;
  blocks.push_back(LevelBlock{});
  LevelBlock block;
  for (int i = 0; i < kBlockPixels; ++i) block[i] = i % 2 == 0 ? i + 1 : -i;
  blocks.push_back(block);
  const auto& zigzag = kZigzagOrder;
  block = LevelBlock{};
  block[zigzag[kBlockPixels - 1]] = -7;
  blocks.push_back(block);
  block[zigzag[0]] = 1;
  blocks.push_back(block);
  block = LevelBlock{};
  block[zigzag[0]] = INT32_MAX;
  block[zigzag[5]] = INT32_MIN;
  block[zigzag[40]] = -INT32_MAX;
  block[zigzag[63]] = 1 << 15;
  blocks.push_back(block);
  // Random blocks at densities from one level to every level, with
  // magnitudes of 1 to 31 bits.
  Random rng(2210);
  for (int trial = 0; trial < 400; ++trial) {
    const double density = 0.02 + 0.98 * rng.UniformDouble(0, 1);
    const int width = 1 + static_cast<int>(rng.Uniform(31));
    block = LevelBlock{};
    for (auto& level : block) {
      if (!rng.Bernoulli(density)) continue;
      const auto magnitude =
          static_cast<int32_t>(1 + (rng.Next() >> (64 - width)) % INT32_MAX);
      level = rng.Uniform(2) ? magnitude : -magnitude;
    }
    blocks.push_back(block);
  }
  // All blocks go through one writer each, so every pair write lands at a
  // different bit offset of the accumulator.
  BitWriter writer, reference;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const int got =
        EncodeLevelBlock(blocks[b], RasterNonzeroMask(blocks[b]), &writer);
    const int want = ScanReferenceEncodeLevelBlock(blocks[b], &reference);
    ASSERT_EQ(got, want) << "block " << b;
    ASSERT_EQ(writer.bit_count(), reference.bit_count()) << "block " << b;
  }
  const std::vector<uint8_t> bytes = writer.Finish();
  EXPECT_EQ(bytes, reference.Finish());
  // One block and mask decode the whole sequence, as a decoder keeps them
  // for a tile: each block clears only what the block before it wrote.
  BitReader reader{Slice(bytes)};
  LevelBlock out{};
  uint64_t mask = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    ASSERT_TRUE(DecodeLevelBlock(&reader, &out, &mask).ok()) << "block " << b;
    ASSERT_EQ(out, blocks[b]) << "block " << b;
    ASSERT_EQ(mask, RasterNonzeroMask(blocks[b])) << "block " << b;
  }

  // A pair longer than 32 bits, which leaves the one-write path mid-block,
  // after pairs that leave every accumulator fill from 0 to 31. Before it a
  // block writes 13 bits: its count UE(4) and the pairs (0, 1) and (0, −1);
  // a pad field ahead of the block sets the fill they end on.
  BitWriter long_writer, long_reference;
  std::vector<LevelBlock> long_blocks;
  std::vector<int> pads;
  for (int fill = 0; fill < 32; ++fill) {
    block = LevelBlock{};
    block[zigzag[0]] = 1;
    block[zigzag[1]] = -1;
    const int32_t long_levels[3] = {INT32_MIN, -(1 << 20) - fill,
                                    (1 << 16) + fill};
    block[zigzag[2]] = long_levels[fill % 3];
    block[zigzag[5]] = 3;
    const int pad =
        (fill - 13 - static_cast<int>(long_writer.bit_count() % 32) + 64) % 32;
    const uint64_t pad_bits = pad == 0 ? 0 : rng.Next() >> (64 - pad);
    long_writer.WriteBits(pad_bits, pad);
    long_reference.WriteBits(pad_bits, pad);
    ASSERT_EQ((long_writer.bit_count() + 13) % 32, static_cast<size_t>(fill));
    const int got =
        EncodeLevelBlock(block, RasterNonzeroMask(block), &long_writer);
    const int want = ScanReferenceEncodeLevelBlock(block, &long_reference);
    ASSERT_EQ(got, want) << "fill " << fill;
    ASSERT_EQ(long_writer.bit_count(), long_reference.bit_count())
        << "fill " << fill;
    long_blocks.push_back(block);
    pads.push_back(pad);
  }
  const std::vector<uint8_t> long_bytes = long_writer.Finish();
  EXPECT_EQ(long_bytes, long_reference.Finish());
  BitReader long_reader{Slice(long_bytes)};
  for (size_t b = 0; b < long_blocks.size(); ++b) {
    uint64_t pad_bits;
    ASSERT_TRUE(long_reader.ReadBits(pads[b], &pad_bits).ok());
    ASSERT_TRUE(DecodeLevelBlock(&long_reader, &out, &mask).ok())
        << "fill " << b;
    ASSERT_EQ(out, long_blocks[b]) << "fill " << b;
  }
}

TEST(EntropyTest, AllZeroBlockIsOneBit) {
  LevelBlock zeros{};
  BitWriter writer;
  EncodeLevelBlock(zeros, 0, &writer);
  EXPECT_EQ(writer.bit_count(), 1u);  // UE(0) == one bit
}

TEST(EntropyTest, TruncatedStreamFails) {
  LevelBlock in{};
  in[0] = 500;
  in[63] = -3;
  BitWriter writer;
  EncodeLevelBlock(in, RasterNonzeroMask(in), &writer);
  auto bytes = writer.Finish();
  bytes.resize(bytes.size() / 2);
  BitReader reader{Slice(bytes)};
  LevelBlock out{};
  uint64_t mask = 0;
  EXPECT_FALSE(DecodeLevelBlock(&reader, &out, &mask).ok());
  // The mask still names every position the failed decode wrote.
  EXPECT_EQ(mask, RasterNonzeroMask(out));
}

TEST(EntropyTest, HugeRunIsCorruptionNotOverflow) {
  // A run near INT_MAX after one valid coefficient must be rejected before
  // it is added to the block position, not wrap it.
  BitWriter writer;
  writer.WriteUE(2);
  writer.WriteUE(0);
  writer.WriteSE(1);
  writer.WriteUE(0x7FFFFFFF);
  writer.WriteSE(1);
  auto bytes = writer.Finish();
  BitReader reader{Slice(bytes)};
  LevelBlock out{};
  uint64_t mask = 0;
  EXPECT_TRUE(DecodeLevelBlock(&reader, &out, &mask).IsCorruption());
  EXPECT_EQ(mask, RasterNonzeroMask(out));
}

// --------------------------------------------------------------- Bitstream

TEST(BitstreamTest, SequenceHeaderRoundTrip) {
  SequenceHeader header;
  header.width = 512;
  header.height = 256;
  header.fps_times_100 = 2997;
  header.gop_length = 30;
  header.qp = 33;
  header.tile_rows = 4;
  header.tile_cols = 8;
  header.flags = SequenceHeader::kFlagMotionConstrainedTiles;
  auto bytes = header.Serialize();
  EXPECT_EQ(bytes.size(), SequenceHeader::kSerializedSize);
  auto parsed = SequenceHeader::Parse(Slice(bytes));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->width, 512);
  EXPECT_EQ(parsed->height, 256);
  EXPECT_NEAR(parsed->fps(), 29.97, 1e-9);
  EXPECT_EQ(parsed->gop_length, 30);
  EXPECT_EQ(parsed->qp, 33);
  EXPECT_TRUE(parsed->motion_constrained_tiles());
  EXPECT_EQ(parsed->tile_grid().tile_count(), 32);
}

TEST(BitstreamTest, HeaderRejectsGarbage) {
  std::vector<uint8_t> junk(SequenceHeader::kSerializedSize, 0xAB);
  EXPECT_TRUE(SequenceHeader::Parse(Slice(junk)).status().IsCorruption());
  std::vector<uint8_t> tiny(4, 0);
  EXPECT_TRUE(SequenceHeader::Parse(Slice(tiny)).status().IsCorruption());
  // Valid magic but odd dimensions.
  SequenceHeader header;
  header.width = 100;  // not a multiple of 16
  header.height = 64;
  auto bytes = header.Serialize();
  EXPECT_FALSE(SequenceHeader::Parse(Slice(bytes)).ok());
  // Valid header carrying the retired flag bit 1 alongside bit 0.
  header.width = 128;
  header.flags = 0x3;
  bytes = header.Serialize();
  EXPECT_TRUE(SequenceHeader::Parse(Slice(bytes)).status().IsCorruption());
  // A well-formed header of the retired double-precision stream version.
  header.flags = 0;
  bytes = header.Serialize();
  ASSERT_TRUE(SequenceHeader::Parse(Slice(bytes)).ok());
  bytes[3] = '1';
  EXPECT_TRUE(SequenceHeader::Parse(Slice(bytes)).status().IsCorruption());
}

// ------------------------------------------------------ Encode/decode E2E

EncoderOptions SmallOptions() {
  EncoderOptions options;
  options.width = 128;
  options.height = 64;
  options.gop_length = 8;
  options.qp = 20;
  return options;
}

std::vector<Frame> TestFrames(int count, int width = 128, int height = 64) {
  SceneOptions scene_options;
  scene_options.width = width;
  scene_options.height = height;
  auto scene = NewVeniceScene(scene_options);
  return RenderScene(*scene, count);
}

TEST(CodecTest, ExtremeLevelsDecodeWithoutOverflow) {
  // A crafted one-macroblock intra frame whose levels reach the int32
  // limits: a lone DC (the constant-fill path), a dense block of
  // alternating extremes (the full inverse transform) and lone AC levels.
  // It must decode to valid pixels or fail cleanly; the ASan+UBSan build
  // reports any overflow on the way.
  SequenceHeader header;
  header.width = 16;
  header.height = 16;
  for (int qp : {0, 28, kMaxQp}) {
    BitWriter tile;
    tile.WriteBits(static_cast<uint64_t>(IntraMode::kDc), 2);
    tile.WriteUE(1);  // luma block 0: lone DC
    tile.WriteUE(0);
    tile.WriteSE(INT32_MAX);
    tile.WriteUE(kBlockPixels);  // luma block 1: all 64 levels
    for (int i = 0; i < kBlockPixels; ++i) {
      tile.WriteUE(0);
      tile.WriteSE(i % 2 == 0 ? int64_t{INT32_MIN} : int64_t{INT32_MAX});
    }
    for (int block = 0; block < 2; ++block) {  // luma blocks 2, 3: one AC
      tile.WriteUE(1);
      tile.WriteUE(5);
      tile.WriteSE(-int64_t{INT32_MAX});
    }
    tile.WriteUE(0);  // both chroma blocks empty
    tile.WriteUE(0);
    BitWriter frame;
    frame.WriteBits(static_cast<uint64_t>(FrameType::kIntra), 8);
    frame.WriteBits(static_cast<uint64_t>(qp), 8);
    frame.WriteBits(6, 32);  // the one tile starts after the offset table
    for (uint8_t byte : tile.Finish()) frame.WriteBits(byte, 8);
    std::vector<uint8_t> payload = frame.Finish();

    auto decoder = Decoder::Create(header);
    ASSERT_TRUE(decoder.ok());
    auto decoded = (*decoder)->Decode(Slice(payload));
    ASSERT_TRUE(decoded.ok()) << "qp " << qp << ": "
                              << decoded.status().ToString();
    // Saturated coefficients still reconstruct to clamped pixels: the lone
    // maximal DC fills its block with white.
    EXPECT_EQ(decoded->y_plane()[0], 255) << "qp " << qp;
  }
}

TEST(CodecTest, OptionsValidation) {
  EncoderOptions options = SmallOptions();
  EXPECT_TRUE(options.Validate().ok());
  options.width = 100;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallOptions();
  options.qp = 52;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallOptions();
  options.gop_length = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallOptions();
  options.tile_rows = 300;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CodecTest, SingleIntraFrameRoundTrip) {
  auto frames = TestFrames(1);
  auto encoder = Encoder::Create(SmallOptions());
  ASSERT_TRUE(encoder.ok());
  auto encoded = (*encoder)->Encode(frames[0]);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->type, FrameType::kIntra);

  auto decoder = Decoder::Create((*encoder)->header());
  ASSERT_TRUE(decoder.ok());
  auto decoded = (*decoder)->Decode(Slice(encoded->payload));
  ASSERT_TRUE(decoded.ok());
  auto psnr = LumaPsnr(frames[0], *decoded);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 30.0) << "QP 20 intra should exceed 30 dB";
}

TEST(CodecTest, DecoderMatchesEncoderReconstruction) {
  // The decoder must reproduce the encoder's reconstruction bit-exactly;
  // anything else means encoder/decoder drift that compounds across GOPs.
  auto frames = TestFrames(12);
  auto encoder = Encoder::Create(SmallOptions());
  ASSERT_TRUE(encoder.ok());
  auto decoder = Decoder::Create((*encoder)->header());
  ASSERT_TRUE(decoder.ok());
  for (const Frame& frame : frames) {
    auto encoded = (*encoder)->Encode(frame);
    ASSERT_TRUE(encoded.ok());
    auto decoded = (*decoder)->Decode(Slice(encoded->payload));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->y_plane(), (*encoder)->reconstructed().y_plane());
    EXPECT_EQ(decoded->u_plane(), (*encoder)->reconstructed().u_plane());
    EXPECT_EQ(decoded->v_plane(), (*encoder)->reconstructed().v_plane());
  }
}

TEST(CodecTest, GopStructure) {
  auto frames = TestFrames(17);
  EncoderOptions options = SmallOptions();
  options.gop_length = 8;
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  ASSERT_EQ(video->frames.size(), 17u);
  for (size_t i = 0; i < video->frames.size(); ++i) {
    FrameType expected =
        i % 8 == 0 ? FrameType::kIntra : FrameType::kInter;
    EXPECT_EQ(video->frames[i].type, expected) << "frame " << i;
  }
}

TEST(CodecTest, ForceKeyframe) {
  auto frames = TestFrames(4);
  auto encoder = Encoder::Create(SmallOptions());
  ASSERT_TRUE(encoder.ok());
  ASSERT_TRUE((*encoder)->Encode(frames[0]).ok());
  auto second = (*encoder)->Encode(frames[1]);
  EXPECT_EQ(second->type, FrameType::kInter);
  (*encoder)->ForceKeyframe();
  auto third = (*encoder)->Encode(frames[2]);
  EXPECT_EQ(third->type, FrameType::kIntra);
}

TEST(CodecTest, InterFramesAreSmallerThanIntra) {
  auto frames = TestFrames(8);
  auto video = EncodeVideo(frames, SmallOptions());
  ASSERT_TRUE(video.ok());
  size_t intra_size = video->frames[0].size_bytes();
  double inter_total = 0;
  for (size_t i = 1; i < video->frames.size(); ++i) {
    inter_total += video->frames[i].size_bytes();
  }
  double inter_mean = inter_total / (video->frames.size() - 1);
  EXPECT_LT(inter_mean, intra_size)
      << "motion compensation should beat intra coding on average";
}

TEST(CodecTest, HigherQpMeansFewerBytesAndLowerQuality) {
  auto frames = TestFrames(6);
  EncoderOptions low_qp = SmallOptions();
  low_qp.qp = 10;
  EncoderOptions high_qp = SmallOptions();
  high_qp.qp = 40;

  auto video_lo = EncodeVideo(frames, low_qp);
  auto video_hi = EncodeVideo(frames, high_qp);
  ASSERT_TRUE(video_lo.ok());
  ASSERT_TRUE(video_hi.ok());
  EXPECT_LT(video_hi->size_bytes(), video_lo->size_bytes());

  auto decoded_lo = DecodeVideo(*video_lo);
  auto decoded_hi = DecodeVideo(*video_hi);
  ASSERT_TRUE(decoded_lo.ok());
  ASSERT_TRUE(decoded_hi.ok());
  double psnr_lo = 0, psnr_hi = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    psnr_lo += *LumaPsnr(frames[i], (*decoded_lo)[i]);
    psnr_hi += *LumaPsnr(frames[i], (*decoded_hi)[i]);
  }
  EXPECT_GT(psnr_lo, psnr_hi);
}

TEST(CodecTest, VideoSerializationRoundTrip) {
  auto frames = TestFrames(5);
  auto video = EncodeVideo(frames, SmallOptions());
  ASSERT_TRUE(video.ok());
  auto bytes = video->Serialize();
  EXPECT_EQ(bytes.size(), video->size_bytes());
  auto parsed = EncodedVideo::Parse(Slice(bytes));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->frames.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(parsed->frames[i].payload, video->frames[i].payload);
    EXPECT_EQ(parsed->frames[i].type, video->frames[i].type);
  }
  // Truncated stream is rejected.
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(EncodedVideo::Parse(Slice(bytes)).ok());
}

TEST(CodecTest, MismatchedFrameSizeRejected) {
  auto encoder = Encoder::Create(SmallOptions());
  ASSERT_TRUE(encoder.ok());
  Frame wrong(64, 64);
  EXPECT_TRUE((*encoder)->Encode(wrong).status().IsInvalidArgument());
}

// ------------------------------------------------------------------- Tiles

TEST(CodecTest, TiledStreamRoundTrip) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 4;
  auto frames = TestFrames(10);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  auto decoded = DecodeVideo(*video);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto psnr = LumaPsnr(frames[i], (*decoded)[i]);
    EXPECT_GT(*psnr, 28.0);
  }
}

TEST(CodecTest, TileOffsetsParse) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto frames = TestFrames(1);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  std::vector<TileRange> ranges;
  ASSERT_TRUE(
      ParseTileOffsets(Slice(video->frames[0].payload), 4, &ranges).ok());
  ASSERT_EQ(ranges.size(), 4u);
  size_t total = 2 + 4 * 4;  // type + qp bytes + offset table
  for (auto [offset, length] : ranges) {
    EXPECT_EQ(offset, total);
    total += length;
  }
  EXPECT_EQ(total, video->frames[0].payload.size());
}

TEST(CodecTest, PartialTileDecodeMatchesFullDecode) {
  // With motion-constrained tiles, decoding only tile T across a GOP must
  // produce the same pixels for T as a full decode — this independence is
  // exactly what VisualCloud's selective streaming relies on.
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  options.motion_constrained_tiles = true;
  auto frames = TestFrames(8);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());

  auto full_decoder = Decoder::Create(video->header);
  auto tile_decoder = Decoder::Create(video->header);
  ASSERT_TRUE(full_decoder.ok());
  ASSERT_TRUE(tile_decoder.ok());
  TileGrid grid = video->header.tile_grid();
  TileId target{1, 0};
  auto rect = grid.PixelRectOf(target, options.width, options.height, 16);
  ASSERT_TRUE(rect.ok());

  for (const auto& encoded : video->frames) {
    auto full = (*full_decoder)->Decode(Slice(encoded.payload));
    ASSERT_TRUE(full.ok());
    auto partial =
        (*tile_decoder)->DecodeTiles(Slice(encoded.payload), {target});
    ASSERT_TRUE(partial.ok());
    for (int y = rect->y; y < rect->y + rect->height; ++y) {
      for (int x = rect->x; x < rect->x + rect->width; ++x) {
        ASSERT_EQ(full->y(x, y), partial->y(x, y))
            << "tile pixels diverge at " << x << "," << y;
      }
    }
  }
}

/// Whether the `rect` pixels of `a` and `b` (luma and both chroma planes)
/// are equal.
bool SameRect(const Frame& a, const Frame& b, const TileGrid::PixelRect& r) {
  for (int y = r.y; y < r.y + r.height; ++y) {
    for (int x = r.x; x < r.x + r.width; ++x) {
      if (a.y(x, y) != b.y(x, y)) return false;
    }
  }
  for (int y = r.y / 2; y < (r.y + r.height) / 2; ++y) {
    for (int x = r.x / 2; x < (r.x + r.width) / 2; ++x) {
      if (a.u(x, y) != b.u(x, y) || a.v(x, y) != b.v(x, y)) return false;
    }
  }
  return true;
}

TEST(CodecTest, SubsetDecodeKeepsUntouchedTilesFromTheLastDecode) {
  // The decoder reconstructs each frame over the buffer of the frame before
  // the last one. A subset decode must still show every tile it skips as
  // that tile looked after the last frame that decoded it, not as it
  // looked two frames ago.
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto frames = TestFrames(12);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  ASSERT_EQ(video->frames.size(), 12u);
  const TileGrid grid = video->header.tile_grid();
  std::vector<TileGrid::PixelRect> rects;
  for (int i = 0; i < grid.tile_count(); ++i) {
    auto rect = grid.PixelRectOf(grid.TileAt(i), options.width,
                                 options.height, 16);
    ASSERT_TRUE(rect.ok());
    rects.push_back(*rect);
  }

  auto full_decoder = Decoder::Create(video->header);
  auto decoder = Decoder::Create(video->header);
  ASSERT_TRUE(full_decoder.ok());
  ASSERT_TRUE(decoder.ok());
  // Tile 0 is decoded on every frame; tiles 1 and 3 on even frames, tile 2
  // on odd ones; every third frame decodes tile 0 alone.
  const std::vector<std::vector<TileId>> subsets = {
      {{0, 0}, {0, 1}, {1, 1}}, {{1, 0}, {0, 0}}, {{0, 0}}};
  std::vector<Frame> last(grid.tile_count(),
                          Frame(options.width, options.height));
  for (size_t f = 0; f < video->frames.size(); ++f) {
    const Slice payload(video->frames[f].payload);
    auto full = (*full_decoder)->Decode(payload);
    ASSERT_TRUE(full.ok());
    const std::vector<TileId>& subset =
        f % 3 == 2 ? subsets[2] : subsets[f % 2];
    ASSERT_TRUE((*decoder)->DecodeTilesInPlace(payload, subset).ok());
    const Frame& recon = (*decoder)->reconstructed();
    std::vector<bool> touched(grid.tile_count(), false);
    for (const TileId& tile : subset) touched[grid.IndexOf(tile)] = true;
    for (int i = 0; i < grid.tile_count(); ++i) {
      if (touched[i]) {
        last[i] = recon;
      } else {
        EXPECT_TRUE(SameRect(recon, last[i], rects[i]))
            << "frame " << f << ": untouched tile " << i
            << " is not its last decode";
      }
    }
    // Tile 0, decoded on every frame, matches the full decode.
    EXPECT_TRUE(SameRect(recon, *full, rects[0])) << "frame " << f;
  }

  // A failed decode, full or partial, leaves the last good frame. The
  // corrupt frame's last tile is zeroed: its first residual code never
  // ends, so a full decode fails after writing the other three tiles.
  const Frame good = (*decoder)->reconstructed();
  std::vector<uint8_t> corrupt = video->frames[1].payload;
  std::vector<TileRange> ranges;
  ASSERT_TRUE(ParseTileOffsets(Slice(corrupt), 4, &ranges).ok());
  std::fill_n(corrupt.begin() + ranges[3].first, ranges[3].second, 0);
  EXPECT_TRUE((*decoder)->DecodeInPlace(Slice(corrupt)).IsCorruption());
  EXPECT_TRUE((*decoder)
                  ->DecodeTilesInPlace(Slice(corrupt), {{0, 0}, {1, 1}})
                  .IsCorruption());
  EXPECT_FALSE((*decoder)
                   ->DecodeTilesInPlace(Slice(video->frames[1].payload),
                                        {{0, 0}, {2, 0}})
                   .ok());
  for (int i = 0; i < grid.tile_count(); ++i) {
    EXPECT_TRUE(SameRect((*decoder)->reconstructed(), good, rects[i]))
        << "tile " << i << " changed by a failed decode";
  }
}

TEST(CodecTest, UnconstrainedMotionBreaksTileIndependence) {
  // Sanity check of the ablation: without MCTS the codec may reference
  // pixels outside the tile, so this configuration exists and encodes fine
  // (the streaming layer simply must not use partial decode with it).
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  options.motion_constrained_tiles = false;
  auto frames = TestFrames(6);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  EXPECT_FALSE(video->header.motion_constrained_tiles());
  auto decoded = DecodeVideo(*video);
  ASSERT_TRUE(decoded.ok());
}

TEST(CodecTest, CorruptPayloadIsRejectedNotCrash) {
  auto frames = TestFrames(2);
  auto video = EncodeVideo(frames, SmallOptions());
  ASSERT_TRUE(video.ok());
  auto decoder = Decoder::Create(video->header);
  ASSERT_TRUE(decoder.ok());
  // Truncate the intra frame payload mid-tile.
  auto payload = video->frames[0].payload;
  payload.resize(payload.size() / 3);
  auto result = (*decoder)->Decode(Slice(payload));
  EXPECT_FALSE(result.ok());
}

TEST(CodecTest, EmptyPayloadRejected) {
  auto video = EncodeVideo(TestFrames(1), SmallOptions());
  auto decoder = Decoder::Create(video->header);
  EXPECT_FALSE((*decoder)->Decode(Slice()).ok());
}

// ------------------------------------------------------ Homomorphic ops

TEST(HomomorphicTest, ExtractTileMatchesPartialDecode) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto frames = TestFrames(8);
  auto tiled = EncodeVideo(frames, options);
  ASSERT_TRUE(tiled.ok());

  TileGrid grid = tiled->header.tile_grid();
  TileId target{1, 1};
  auto rect = grid.PixelRectOf(target, options.width, options.height, 16);
  ASSERT_TRUE(rect.ok());

  auto extracted = ExtractTileStream(*tiled, target);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  EXPECT_EQ(extracted->header.width, rect->width);
  EXPECT_EQ(extracted->header.height, rect->height);
  EXPECT_EQ(extracted->header.tile_grid().tile_count(), 1);

  // Decoding the standalone stream must give the same pixels as a partial
  // decode of the tile in the original stream — bit-exactly.
  auto standalone = DecodeVideo(*extracted);
  ASSERT_TRUE(standalone.ok());
  auto full_decoder = Decoder::Create(tiled->header);
  ASSERT_TRUE(full_decoder.ok());
  for (size_t f = 0; f < frames.size(); ++f) {
    auto full = (*full_decoder)->Decode(Slice(tiled->frames[f].payload));
    ASSERT_TRUE(full.ok());
    for (int y = 0; y < rect->height; ++y) {
      for (int x = 0; x < rect->width; ++x) {
        ASSERT_EQ((*standalone)[f].y(x, y),
                  full->y(rect->x + x, rect->y + y))
            << "frame " << f << " pixel " << x << "," << y;
      }
    }
  }
}

TEST(HomomorphicTest, ExtractValidation) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto tiled = EncodeVideo(TestFrames(2), options);
  EXPECT_FALSE(ExtractTileStream(*tiled, {5, 0}).ok());
  options.motion_constrained_tiles = false;
  auto unconstrained = EncodeVideo(TestFrames(2), options);
  EXPECT_TRUE(ExtractTileStream(*unconstrained, {0, 0})
                  .status()
                  .IsNotSupported());
}

TEST(HomomorphicTest, MergeIsInverseOfExtract) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto frames = TestFrames(6);
  auto tiled = EncodeVideo(frames, options);
  ASSERT_TRUE(tiled.ok());

  TileGrid grid = tiled->header.tile_grid();
  std::vector<EncodedVideo> parts;
  for (int i = 0; i < grid.tile_count(); ++i) {
    auto part = ExtractTileStream(*tiled, grid.TileAt(i));
    ASSERT_TRUE(part.ok());
    parts.push_back(std::move(*part));
  }
  auto merged = MergeTileStreams(parts, 2, 2, options.width, options.height);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->frames.size(), tiled->frames.size());
  for (size_t f = 0; f < merged->frames.size(); ++f) {
    EXPECT_EQ(merged->frames[f].payload, tiled->frames[f].payload)
        << "merge(extract(x)) must be byte-identical to x";
  }
}

TEST(HomomorphicTest, MergeValidation) {
  EncoderOptions options = SmallOptions();  // 1x1 stream
  auto a = EncodeVideo(TestFrames(4), options);
  ASSERT_TRUE(a.ok());
  // Wrong part count.
  EXPECT_FALSE(MergeTileStreams({*a}, 2, 2, 128, 64).ok());
  // Dimensions that do not match the grid partition.
  EXPECT_FALSE(MergeTileStreams({*a, *a, *a, *a}, 2, 2, 128, 64).ok());
}

TEST(HomomorphicTest, ConcatenatePlaysBackToBack) {
  EncoderOptions options = SmallOptions();
  options.gop_length = 4;
  auto frames_a = TestFrames(4);
  // Second clip starts later in the scene for distinct content.
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = NewVeniceScene(scene_options);
  std::vector<Frame> frames_b;
  for (int i = 20; i < 24; ++i) frames_b.push_back(scene->FrameAt(i));

  auto a = EncodeVideo(frames_a, options);
  auto b = EncodeVideo(frames_b, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto joined = ConcatenateStreams({*a, *b});
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->frames.size(), 8u);

  auto decoded = DecodeVideo(*joined);
  ASSERT_TRUE(decoded.ok());
  // Second half decodes to the second clip's content.
  auto reference = DecodeVideo(*b);
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*decoded)[4 + i].y_plane(), (*reference)[i].y_plane());
  }
}

TEST(HomomorphicTest, ConcatenateValidation) {
  EncoderOptions options = SmallOptions();
  auto a = EncodeVideo(TestFrames(4), options);
  EncoderOptions other = SmallOptions();
  other.width = 64;
  other.height = 64;
  SceneOptions scene_options;
  scene_options.width = 64;
  scene_options.height = 64;
  auto small_scene = NewVeniceScene(scene_options);
  auto b = EncodeVideo(RenderScene(*small_scene, 4), other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(ConcatenateStreams({*a, *b}).ok());
  EXPECT_FALSE(ConcatenateStreams({}).ok());
}

// ------------------------------------------- Mixed-QP TILEUNION (stitch)

/// Single-tile cells of a 2x2 grid over the same frames, cut from two
/// encodes: tiles 0 and 3 at `qp_a`, tiles 1 and 2 at `qp_b` — what a
/// degrade query stitches from cells stored at different rungs.
std::vector<EncodedVideo> MixedQpCells(int qp_a, int qp_b) {
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;
  auto frames = TestFrames(6);
  options.qp = qp_a;
  auto a = EncodeVideo(frames, options);
  options.qp = qp_b;
  auto b = EncodeVideo(frames, options);
  EXPECT_TRUE(a.ok() && b.ok());
  std::vector<EncodedVideo> cells;
  for (int i = 0; i < 4; ++i) {
    const EncodedVideo& source = (i == 0 || i == 3) ? *a : *b;
    auto cell = ExtractTileStream(source, source.header.tile_grid().TileAt(i));
    EXPECT_TRUE(cell.ok());
    cells.push_back(std::move(*cell));
  }
  return cells;
}

TEST(HomomorphicTest, MixedQpMergeDecodesToPerTileDecodes) {
  const std::vector<EncodedVideo> cells = MixedQpCells(14, 42);
  auto merged = MergeTileStreams(cells, 2, 2, 128, 64);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (const EncodedFrame& frame : merged->frames) {
    EXPECT_EQ(frame.payload[1], kPerTileQp);
  }
  auto decoded = DecodeVideo(*merged);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const TileGrid grid(2, 2);
  for (int i = 0; i < 4; ++i) {
    auto rect = grid.PixelRectOf(grid.TileAt(i), 128, 64, 16);
    ASSERT_TRUE(rect.ok());
    auto reference = DecodeVideo(cells[i]);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->size(), decoded->size());
    for (size_t f = 0; f < decoded->size(); ++f) {
      auto crop = (*decoded)[f].Crop(rect->x, rect->y, rect->width,
                                     rect->height);
      ASSERT_TRUE(crop.ok());
      EXPECT_EQ(crop->y_plane(), (*reference)[f].y_plane())
          << "tile " << i << " frame " << f;
      EXPECT_EQ(crop->u_plane(), (*reference)[f].u_plane());
      EXPECT_EQ(crop->v_plane(), (*reference)[f].v_plane());
    }
  }
}

TEST(HomomorphicTest, ExtractOfMixedQpMergeRestoresEveryCell) {
  const std::vector<EncodedVideo> cells = MixedQpCells(14, 42);
  auto merged = MergeTileStreams(cells, 2, 2, 128, 64);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const TileGrid grid(2, 2);
  for (int i = 0; i < 4; ++i) {
    auto extracted = ExtractTileStream(*merged, grid.TileAt(i));
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    EXPECT_EQ(extracted->Serialize(), cells[i].Serialize()) << "tile " << i;
  }
}

TEST(HomomorphicTest, MixedQpFrameIsOneBytePerTileLarger) {
  // Same tile bits, laid out uniform ([type][qp][offsets][tiles]) vs with a
  // QP byte in front of each tile.
  const std::vector<EncodedVideo> cells = MixedQpCells(14, 42);
  auto merged = MergeTileStreams(cells, 2, 2, 128, 64);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (size_t f = 0; f < merged->frames.size(); ++f) {
    size_t uniform_layout = 2 + 4 * 4;
    for (const EncodedVideo& cell : cells) {
      uniform_layout += cell.frames[f].payload.size() - (2 + 4);
    }
    EXPECT_EQ(merged->frames[f].payload.size(), uniform_layout + 4)
        << "frame " << f;
  }
}

TEST(HomomorphicTest, UniformMergeDigestIsPinned) {
  // Parts that agree on every frame QP keep the uniform layout: the merged
  // stream's bytes are the ones the uniform-only merge produced.
  auto merged = MergeTileStreams(MixedQpCells(28, 28), 2, 2, 128, 64);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  for (const EncodedFrame& frame : merged->frames) {
    EXPECT_EQ(frame.payload[1], 28);
  }
  const std::vector<uint8_t> bytes = merged->Serialize();
  uint64_t hash = 14695981039346656037ull;
  for (uint8_t byte : bytes) hash = (hash ^ byte) * 1099511628211ull;
  EXPECT_EQ(hash, 0x7590178c08b4058full)
      << std::hex << "actual digest 0x" << hash;
}

TEST(HomomorphicTest, MixedQpValidation) {
  std::vector<EncodedVideo> cells = MixedQpCells(14, 42);
  // A part QP that cannot be written per tile.
  std::vector<EncodedVideo> bad = cells;
  bad[1].frames[2].payload[1] = 52;
  EXPECT_TRUE(
      MergeTileStreams(bad, 2, 2, 128, 64).status().IsInvalidArgument());

  auto merged = MergeTileStreams(cells, 2, 2, 128, 64);
  ASSERT_TRUE(merged.ok());
  std::vector<TileRange> ranges;
  ASSERT_TRUE(
      ParseTileOffsets(Slice(merged->frames[0].payload), 4, &ranges).ok());
  // An out-of-range tile QP fails the decode and the extraction cleanly.
  EncodedVideo corrupt = *merged;
  corrupt.frames[0].payload[ranges[3].first] = 52;
  auto decoder = Decoder::Create(corrupt.header);
  ASSERT_TRUE(decoder.ok());
  EXPECT_TRUE((*decoder)
                  ->Decode(Slice(corrupt.frames[0].payload))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ExtractTileStream(corrupt, {1, 1}).status().IsCorruption());
  EXPECT_TRUE(ExtractTileStream(corrupt, {0, 0}).ok());
}

// ---------------------------------------------------------------- Frame QP

TEST(CodecTest, FramePayloadCarriesQp) {
  auto frames = TestFrames(2);
  EncoderOptions options = SmallOptions();
  options.qp = 33;
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  for (const auto& frame : video->frames) {
    auto qp = ParseFrameQp(Slice(frame.payload));
    ASSERT_TRUE(qp.ok());
    EXPECT_EQ(*qp, 33);
  }
}

TEST(CodecTest, DecoderUsesFrameQpOverHeaderQp) {
  // The QP in a frame header, not the sequence header's, sets the frame's
  // quantizer: a decoder created from a QP-28 stream's header decodes the
  // keyframe of a QP-40 encode of the same geometry exactly.
  auto frames = TestFrames(1);
  EncoderOptions options = SmallOptions();
  options.qp = 28;
  auto qp28 = Encoder::Create(options);
  ASSERT_TRUE(qp28.ok());
  options.qp = 40;
  auto qp40 = Encoder::Create(options);
  ASSERT_TRUE(qp40.ok());
  auto encoded = (*qp40)->Encode(frames[0]);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded->type, FrameType::kIntra);

  auto decoder = Decoder::Create((*qp28)->header());
  ASSERT_TRUE(decoder.ok());
  auto decoded = (*decoder)->Decode(Slice(encoded->payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->y_plane(), (*qp40)->reconstructed().y_plane());
  EXPECT_EQ(decoded->u_plane(), (*qp40)->reconstructed().u_plane());
  EXPECT_EQ(decoded->v_plane(), (*qp40)->reconstructed().v_plane());
}

// ----------------------------------------------------------------- Quality

TEST(QualityTest, DefaultLadderIsOrdered) {
  QualityLadder ladder = DefaultQualityLadder();
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_LT(ladder[0].qp, ladder[1].qp);
  EXPECT_LT(ladder[1].qp, ladder[2].qp);
}

TEST(QualityTest, MakeLadderSpansRange) {
  auto ladder = MakeQualityLadder(5, 10, 42);
  ASSERT_TRUE(ladder.ok());
  ASSERT_EQ(ladder->size(), 5u);
  EXPECT_EQ((*ladder)[0].qp, 10);
  EXPECT_EQ((*ladder)[4].qp, 42);
  for (size_t i = 1; i < ladder->size(); ++i) {
    EXPECT_GE((*ladder)[i].qp, (*ladder)[i - 1].qp);
  }
  EXPECT_FALSE(MakeQualityLadder(0).ok());
  EXPECT_FALSE(MakeQualityLadder(3, 40, 10).ok());
}

// ------------------------------------------------- Motion search kernels

TEST(MotionTest, BlockSadBoundedMatchesUnbounded) {
  Random rng(21);
  constexpr int kW = 64, kH = 48;
  std::vector<uint8_t> a(kW * kH), b(kW * kH);
  for (auto& px : a) px = static_cast<uint8_t>(rng.Uniform(256));
  for (auto& px : b) px = static_cast<uint8_t>(rng.Uniform(256));
  PlaneView pa{a.data(), kW}, pb{b.data(), kW};
  for (int trial = 0; trial < 50; ++trial) {
    int ax = static_cast<int>(rng.Uniform(kW - 16));
    int ay = static_cast<int>(rng.Uniform(kH - 16));
    int bx = static_cast<int>(rng.Uniform(kW - 16));
    int by = static_cast<int>(rng.Uniform(kH - 16));
    uint32_t exact = BlockSad(pa, ax, ay, pb, bx, by, 16);
    // A generous limit never trips the early exit.
    EXPECT_EQ(BlockSadBounded(pa, ax, ay, pb, bx, by, 16, UINT32_MAX), exact);
    // Any limit: the bounded kernel is exact below the limit and reports at
    // least the limit once it bails.
    uint32_t limit = static_cast<uint32_t>(rng.Uniform(2 * exact + 2));
    uint32_t bounded = BlockSadBounded(pa, ax, ay, pb, bx, by, 16, limit);
    if (exact < limit) {
      EXPECT_EQ(bounded, exact);
    } else {
      EXPECT_GE(bounded, limit);
    }
  }
}

TEST(MotionTest, RefineMotionFindsSeededShift) {
  Random rng(22);
  constexpr int kW = 96, kH = 64;
  std::vector<uint8_t> reference(kW * kH), current(kW * kH, 0);
  for (auto& px : reference) px = static_cast<uint8_t>(rng.Uniform(256));
  // current(x, y) = reference(x + 3, y + 2): the block at (32, 24) matches
  // the reference exactly at displacement (3, 2).
  for (int y = 0; y < kH - 2; ++y) {
    for (int x = 0; x < kW - 3; ++x) {
      current[y * kW + x] = reference[(y + 2) * kW + x + 3];
    }
  }
  PlaneView cur{current.data(), kW}, ref{reference.data(), kW};
  MotionBounds bounds{0, 0, kW, kH};

  // Exact seed: accepted with a single evaluation.
  uint32_t sad = 0;
  MotionVector mv = RefineMotion(cur, ref, 32, 24, 16, 16, bounds,
                                 MotionVector{3, 2}, /*good_enough_sad=*/0,
                                 &sad);
  EXPECT_EQ(mv, (MotionVector{3, 2}));
  EXPECT_EQ(sad, 0u);

  // Seed one step off: the small-diamond descent recovers the optimum.
  mv = RefineMotion(cur, ref, 32, 24, 16, 16, bounds, MotionVector{2, 2},
                    /*good_enough_sad=*/0, &sad);
  EXPECT_EQ(mv, (MotionVector{3, 2}));
  EXPECT_EQ(sad, 0u);
}

TEST(MotionTest, ScratchDoesNotChangeSearchResults) {
  Random rng(23);
  constexpr int kW = 96, kH = 64;
  std::vector<uint8_t> a(kW * kH), b(kW * kH);
  for (auto& px : a) px = static_cast<uint8_t>(rng.Uniform(256));
  for (auto& px : b) px = static_cast<uint8_t>(rng.Uniform(256));
  PlaneView cur{a.data(), kW}, ref{b.data(), kW};
  MotionBounds bounds{0, 0, kW, kH};
  MotionSearchScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    int x = 16 * static_cast<int>(rng.Uniform(kW / 16 - 1));
    int y = 16 * static_cast<int>(rng.Uniform(kH / 16 - 1));
    uint32_t plain_sad = 0, memo_sad = 0;
    MotionVector plain =
        SearchMotion(cur, ref, x, y, 16, 16, bounds, &plain_sad, nullptr);
    MotionVector memo =
        SearchMotion(cur, ref, x, y, 16, 16, bounds, &memo_sad, &scratch);
    EXPECT_EQ(plain, memo) << "trial " << trial;
    EXPECT_EQ(plain_sad, memo_sad) << "trial " << trial;
  }
  EXPECT_GT(scratch.sad_evals, 0u);
}

// ------------------------------------------------- Motion-analysis reuse

TEST(CodecTest, HintedStreamDecodesBitExactly) {
  // Hints change how the encoder searches, not the bitstream contract: a
  // hinted stream must decode to exactly the hinted encoder's recon.
  auto frames = TestFrames(12);
  MotionHints hints;
  EncoderOptions reference = SmallOptions();
  reference.qp = 14;
  reference.capture_hints = &hints;
  ASSERT_TRUE(EncodeVideo(frames, reference).ok());
  ASSERT_EQ(hints.frames.size(), frames.size());

  EncoderOptions coarse = SmallOptions();
  coarse.qp = 35;
  coarse.reuse_hints = &hints;
  auto encoder = Encoder::Create(coarse);
  ASSERT_TRUE(encoder.ok());
  auto decoder = Decoder::Create((*encoder)->header());
  ASSERT_TRUE(decoder.ok());
  for (const Frame& frame : frames) {
    auto encoded = (*encoder)->Encode(frame);
    ASSERT_TRUE(encoded.ok());
    auto decoded = (*decoder)->Decode(Slice(encoded->payload));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->y_plane(), (*encoder)->reconstructed().y_plane());
    EXPECT_EQ(decoded->u_plane(), (*encoder)->reconstructed().u_plane());
    EXPECT_EQ(decoded->v_plane(), (*encoder)->reconstructed().v_plane());
  }
}

TEST(CodecTest, HintedEncodeQualityMatchesUnhinted) {
  auto frames = TestFrames(12);
  MotionHints hints;
  EncoderOptions reference = SmallOptions();
  reference.qp = 14;
  reference.capture_hints = &hints;
  ASSERT_TRUE(EncodeVideo(frames, reference).ok());

  for (int qp : {28, 42}) {
    EncoderOptions options = SmallOptions();
    options.qp = qp;
    auto unhinted = EncodeVideo(frames, options);
    options.reuse_hints = &hints;
    auto hinted = EncodeVideo(frames, options);
    ASSERT_TRUE(unhinted.ok());
    ASSERT_TRUE(hinted.ok());
    auto unhinted_frames = DecodeVideo(*unhinted);
    auto hinted_frames = DecodeVideo(*hinted);
    ASSERT_TRUE(unhinted_frames.ok());
    ASSERT_TRUE(hinted_frames.ok());
    double unhinted_psnr = 0, hinted_psnr = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      unhinted_psnr += *LumaPsnr(frames[i], (*unhinted_frames)[i]);
      hinted_psnr += *LumaPsnr(frames[i], (*hinted_frames)[i]);
    }
    unhinted_psnr /= frames.size();
    hinted_psnr /= frames.size();
    EXPECT_NEAR(hinted_psnr, unhinted_psnr, 0.1)
        << "qp " << qp << ": analysis reuse may not cost visible quality";
  }
}

TEST(CodecTest, MismatchedHintGeometryFallsBack) {
  // Hints captured from a different stream shape are ignored entirely: the
  // hinted encode is byte-identical to the unhinted one.
  auto frames = TestFrames(8);
  MotionHints hints;
  EncoderOptions other_shape = SmallOptions();
  other_shape.width = 64;
  other_shape.height = 64;
  other_shape.capture_hints = &hints;
  auto other_frames = TestFrames(8, 64, 64);
  ASSERT_TRUE(EncodeVideo(other_frames, other_shape).ok());

  EncoderOptions options = SmallOptions();
  auto unhinted = EncodeVideo(frames, options);
  options.reuse_hints = &hints;
  auto hinted = EncodeVideo(frames, options);
  ASSERT_TRUE(unhinted.ok());
  ASSERT_TRUE(hinted.ok());
  ASSERT_EQ(unhinted->frames.size(), hinted->frames.size());
  for (size_t i = 0; i < unhinted->frames.size(); ++i) {
    EXPECT_EQ(unhinted->frames[i].payload, hinted->frames[i].payload)
        << "frame " << i;
  }
}

TEST(CodecTest, ShortHintsFallBackPerFrame) {
  // Hints covering fewer frames than the encode: hinted frames reuse, later
  // frames fall back to the full search, and the stream stays consistent.
  auto frames = TestFrames(10);
  MotionHints hints;
  EncoderOptions reference = SmallOptions();
  reference.capture_hints = &hints;
  {
    auto encoder = Encoder::Create(reference);
    ASSERT_TRUE(encoder.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*encoder)->Encode(frames[i]).ok());
    }
  }
  ASSERT_EQ(hints.frames.size(), 5u);

  EncoderOptions options = SmallOptions();
  options.qp = 35;
  options.reuse_hints = &hints;
  auto encoder = Encoder::Create(options);
  ASSERT_TRUE(encoder.ok());
  auto decoder = Decoder::Create((*encoder)->header());
  ASSERT_TRUE(decoder.ok());
  for (const Frame& frame : frames) {
    auto encoded = (*encoder)->Encode(frame);
    ASSERT_TRUE(encoded.ok());
    auto decoded = (*decoder)->Decode(Slice(encoded->payload));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->y_plane(), (*encoder)->reconstructed().y_plane());
  }
}

// ------------------------------------------ Payload writes and encoder reuse

TEST(CodecTest, EncodeStreamEqualsSerializedEncodeVideo) {
  // A stream built from EncodePayload straight into one writer, read in
  // place from a rect of larger frames, equals cropping those frames and
  // serializing EncodeVideo's frames; the whole-frame rect equals the
  // uncropped encode.
  auto frames = TestFrames(10, 128, 64);
  for (TileGrid::PixelRect rect :
       {TileGrid::PixelRect{32, 16, 64, 32}, TileGrid::PixelRect{0, 0, 128, 64},
        TileGrid::PixelRect{96, 48, 32, 16}}) {
    EncoderOptions options = SmallOptions();
    options.width = rect.width;
    options.height = rect.height;
    options.tile_rows = rect.height / 16;
    options.tile_cols = 2;
    std::vector<Frame> cropped;
    for (const Frame& frame : frames) {
      auto crop = frame.Crop(rect.x, rect.y, rect.width, rect.height);
      ASSERT_TRUE(crop.ok());
      cropped.push_back(*std::move(crop));
    }
    auto video = EncodeVideo(cropped, options);
    ASSERT_TRUE(video.ok());

    auto encoder = Encoder::Create(options);
    ASSERT_TRUE(encoder.ok());
    BitWriter writer;
    ASSERT_TRUE((*encoder)->EncodeStream(frames, rect, &writer).ok());
    EXPECT_EQ(writer.Finish(), video->Serialize())
        << rect.x << "," << rect.y << " " << rect.width << "x" << rect.height;
  }

  // A rect off the encoder's size or outside the frames is refused.
  auto encoder = Encoder::Create(SmallOptions());
  ASSERT_TRUE(encoder.ok());
  BitWriter writer;
  EXPECT_TRUE((*encoder)
                  ->EncodeStream(frames, TileGrid::PixelRect{16, 0, 128, 64},
                                 &writer)
                  .IsInvalidArgument());
  EXPECT_TRUE((*encoder)
                  ->EncodeStream(frames, TileGrid::PixelRect{0, 0, 64, 64},
                                 &writer)
                  .IsInvalidArgument());
}

TEST(CodecTest, ResetAfterADifferentCellEqualsAFreshEncoder) {
  // An encoder Reset after a cell of another size, QP, grid and hint role
  // writes the bytes a fresh encoder writes, captures the same hints and
  // counts a geometry reject exactly as Create does.
  auto big_frames = TestFrames(9, 128, 64);
  auto small_frames = TestFrames(7, 64, 32);
  MotionHints big_hints;
  EncoderOptions big = SmallOptions();
  big.qp = 14;
  big.tile_rows = 2;
  big.tile_cols = 2;
  big.capture_hints = &big_hints;

  MotionHints fresh_hints, reused_hints;
  EncoderOptions small = SmallOptions();
  small.width = 64;
  small.height = 32;
  small.qp = 35;
  small.gop_length = 4;

  auto reused = Encoder::Create(big);
  ASSERT_TRUE(reused.ok());
  for (const Frame& frame : big_frames) {
    ASSERT_TRUE((*reused)->Encode(frame).ok());
  }
  (*reused)->ForceKeyframe();

  // Each round first captures hints, then reuses them, then is handed the
  // big cell's hints, whose geometry does not match.
  Counter* rejects =
      MetricRegistry::Global().GetCounter("codec.hint_geometry_rejects");
  for (int round = 0; round < 3; ++round) {
    EncoderOptions fresh_options = small;
    EncoderOptions reused_options = small;
    if (round == 0) {
      fresh_options.capture_hints = &fresh_hints;
      reused_options.capture_hints = &reused_hints;
    } else {
      fresh_options.reuse_hints = round == 1 ? &fresh_hints : &big_hints;
      reused_options.reuse_hints = round == 1 ? &reused_hints : &big_hints;
    }
    const uint64_t rejects_before = rejects->Value();
    auto fresh = Encoder::Create(fresh_options);
    ASSERT_TRUE(fresh.ok());
    const uint64_t fresh_rejects = rejects->Value() - rejects_before;
    ASSERT_TRUE((*reused)->Reset(reused_options).ok());
    EXPECT_EQ(rejects->Value() - rejects_before, 2 * fresh_rejects);
    EXPECT_EQ(fresh_rejects, round == 2 ? 1u : 0u);
    EXPECT_EQ((*reused)->frame_count(), 0);
    EXPECT_EQ((*reused)->reconstructed().y_plane(),
              (*fresh)->reconstructed().y_plane());

    for (size_t i = 0; i < small_frames.size(); ++i) {
      auto want = (*fresh)->Encode(small_frames[i]);
      auto got = (*reused)->Encode(small_frames[i]);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->type, want->type) << "round " << round << ", frame " << i;
      EXPECT_EQ(got->payload, want->payload)
          << "round " << round << ", frame " << i;
    }
    if (round == 0) {
      ASSERT_EQ(reused_hints.frames.size(), small_frames.size());
      for (size_t i = 0; i < small_frames.size(); ++i) {
        ASSERT_EQ(reused_hints.frames[i].size(),
                  fresh_hints.frames[i].size());
        for (size_t b = 0; b < fresh_hints.frames[i].size(); ++b) {
          EXPECT_EQ(reused_hints.frames[i][b].mv.dx,
                    fresh_hints.frames[i][b].mv.dx);
          EXPECT_EQ(reused_hints.frames[i][b].mv.dy,
                    fresh_hints.frames[i][b].mv.dy);
          EXPECT_EQ(reused_hints.frames[i][b].sad,
                    fresh_hints.frames[i][b].sad);
        }
      }
    }
  }

  // A rejected Reset leaves the encoder as it was.
  EncoderOptions invalid = small;
  invalid.qp = 99;
  EXPECT_TRUE((*reused)->Reset(invalid).IsInvalidArgument());
  EXPECT_EQ((*reused)->options().qp, small.qp);
}

TEST(CodecTest, RecapturedHintsKeepOnlyTheirOwnFrames) {
  // A MotionHints captured again by a shorter encode holds only that
  // encode's frames, although it keeps the longer one's row buffers.
  auto frames = TestFrames(8);
  MotionHints hints;
  EncoderOptions options = SmallOptions();
  options.capture_hints = &hints;
  ASSERT_TRUE(EncodeVideo(frames, options).ok());
  ASSERT_EQ(hints.frames.size(), 8u);
  frames.resize(3);
  ASSERT_TRUE(EncodeVideo(frames, options).ok());
  EXPECT_EQ(hints.frames.size(), 3u);
  EXPECT_EQ(hints.width, 128);
  EXPECT_EQ(hints.gop_length, 8);
}

// ----------------------------------------- Parameterized RD property sweep

struct RdCase {
  std::string scene;
  int qp;
};

// Without a printer gtest lists the parameter as a byte dump, and the bytes
// of the std::string include a heap address: the listed test name would
// then shift whenever the binary's start-up allocations change.
void PrintTo(const RdCase& rd_case, std::ostream* os) {
  *os << rd_case.scene << "/qp" << rd_case.qp;
}

class RdSweepTest : public ::testing::TestWithParam<RdCase> {};

TEST_P(RdSweepTest, DecodeQualityScalesWithQp) {
  const RdCase& param = GetParam();
  SceneOptions scene_options;
  scene_options.width = 128;
  scene_options.height = 64;
  auto scene = MakeScene(param.scene, scene_options);
  ASSERT_TRUE(scene.ok());
  auto frames = RenderScene(**scene, 4);

  EncoderOptions options = SmallOptions();
  options.qp = param.qp;
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  auto decoded = DecodeVideo(*video);
  ASSERT_TRUE(decoded.ok());

  double min_expected = param.qp <= 14 ? 34.0 : (param.qp <= 28 ? 27.0 : 20.0);
  for (size_t i = 0; i < frames.size(); ++i) {
    auto psnr = LumaPsnr(frames[i], (*decoded)[i]);
    ASSERT_TRUE(psnr.ok());
    EXPECT_GT(*psnr, min_expected)
        << param.scene << " qp=" << param.qp << " frame " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenesAndQps, RdSweepTest,
    ::testing::Values(RdCase{"timelapse", 10}, RdCase{"timelapse", 28},
                      RdCase{"timelapse", 42}, RdCase{"venice", 10},
                      RdCase{"venice", 28}, RdCase{"venice", 42},
                      RdCase{"coaster", 10}, RdCase{"coaster", 28},
                      RdCase{"coaster", 42}),
    [](const ::testing::TestParamInfo<RdCase>& info) {
      return info.param.scene + "_qp" + std::to_string(info.param.qp);
    });

// -------------------------------------------------------------------- SIMD
//
// The vector kernels must be *bit-identical* to their scalar fallbacks —
// not merely close: the decoder mirrors the encoder's reconstruction
// arithmetic, so any cross-ISA divergence would make streams encoded on one
// machine drift on another. The runtime kill-switch lets one binary run
// both paths. On machines where no SIMD path is compiled in or usable, both
// runs take the scalar path and the tests pass vacuously.

/// Toggles the SIMD kill-switch for a scope, restoring the prior state.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : previous_enabled_(simd::Enabled()) {
    simd::SetEnabled(enabled);
  }
  ~ScopedSimd() { simd::SetEnabled(previous_enabled_); }

 private:
  bool previous_enabled_;
};

TEST(SimdTest, TransformKernelsMatchScalarBitExactly) {
  Random rng(501);
  for (int trial = 0; trial < 300; ++trial) {
    ResidualBlock residual;
    if (trial < 4) {
      // Saturation edges: extreme residuals and exact corner values.
      int16_t v = trial % 2 == 0 ? int16_t{255} : int16_t{-255};
      residual.fill(v);
    } else {
      for (auto& v : residual) {
        v = static_cast<int16_t>(static_cast<int>(rng.Uniform(511)) - 255);
      }
    }
    const int qp = static_cast<int>(rng.Uniform(kMaxQp + 1));

    CoeffBlock coeffs_scalar;
    LevelBlock levels_scalar;
    uint64_t mask_scalar = 0, mask_simd = 0;
    CoeffBlock dq_scalar;
    ResidualBlock out_scalar;
    {
      ScopedSimd off(false);
      ForwardDct(residual, &coeffs_scalar);
      mask_scalar = Quantize(coeffs_scalar, qp, &levels_scalar);
      Dequantize(levels_scalar, qp, &dq_scalar);
      InverseDct(dq_scalar, &out_scalar);
    }
    CoeffBlock coeffs_simd, dq_simd;
    LevelBlock levels_simd, levels_pair;
    ResidualBlock out_simd, out_pair;
    uint64_t mask_pair = 0;
    {
      ScopedSimd on(true);
      ForwardDct(residual, &coeffs_simd);
      mask_simd = Quantize(coeffs_simd, qp, &levels_simd);
      Dequantize(levels_simd, qp, &dq_simd);
      InverseDct(dq_simd, &out_simd);
      // The codec's path: the stage pairs, on the vector path.
      mask_pair = ForwardDctQuantize(residual, qp, &levels_pair);
      DequantizeInverseDct(levels_pair, qp, &out_pair);
    }
    // Exact equality at every stage and through the stage pairs.
    const char* name = simd::LevelName(simd::ActiveLevel());
    ASSERT_EQ(levels_scalar, levels_pair) << "trial " << trial << " " << name;
    ASSERT_EQ(mask_scalar, mask_pair) << "trial " << trial << " " << name;
    ASSERT_EQ(out_scalar, out_pair) << "trial " << trial << " " << name;
    ASSERT_EQ(coeffs_scalar, coeffs_simd) << "trial " << trial << " " << name;
    ASSERT_EQ(levels_scalar, levels_simd) << "trial " << trial << " " << name;
    // Both paths return the raster nonzero set of the levels they wrote.
    ASSERT_EQ(mask_scalar, mask_simd) << "trial " << trial << " " << name;
    ASSERT_EQ(mask_scalar, RasterNonzeroMask(levels_scalar))
        << "trial " << trial;
    ASSERT_EQ(dq_scalar, dq_simd) << "trial " << trial << " " << name;
    ASSERT_EQ(out_scalar, out_simd) << "trial " << trial << " " << name;
  }
}

TEST(SimdTest, FusedKernelsMatchStagewiseInBothCompiles) {
  // ForwardDctQuantize and DequantizeInverseDct have a scalar body and, on
  // x86, AVX2 kernels that hold intermediates in 16-bit lanes. With the
  // vector path off and on, each must equal the scalar stages run one after
  // the other, mask included, at every QP, on the blocks that reach the
  // edges of those lanes.
  std::vector<ResidualBlock> residuals;
  for (int16_t v : {int16_t{255}, int16_t{-255}}) {
    ResidualBlock block;
    block.fill(v);
    residuals.push_back(block);
    // A ±255 checkerboard puts the largest magnitudes into the AC corner.
    for (int i = 0; i < kBlockPixels; ++i) {
      block[i] = (i / kBlockSize + i % kBlockSize) % 2 == 0 ? v : -v;
    }
    residuals.push_back(block);
    // An impulse at each position: every basis pair and every lane of the
    // kernels' packs and shuffles.
    for (int i = 0; i < kBlockPixels; ++i) {
      block.fill(0);
      block[i] = v;
      residuals.push_back(block);
    }
    // Blocks following the signs of basis function u along their rows or
    // down their columns. Column-constant ones drive every row-pass output
    // u to its extreme, ±32,640 for u = 0 and 4, at the 16-bit pack;
    // row-constant ones drive the row pass's DC to ±32,640 in every row and
    // the column pass's output u to its extreme.
    for (int u = 0; u < kBlockSize; ++u) {
      const auto sign = [u](int k) {
        return std::cos((2 * k + 1) * u * kPi / 16) > 0 ? 1 : -1;
      };
      for (int i = 0; i < kBlockPixels; ++i) {
        block[i] = static_cast<int16_t>(v * sign(i % kBlockSize));
      }
      residuals.push_back(block);
      for (int i = 0; i < kBlockPixels; ++i) {
        block[i] = static_cast<int16_t>(v * sign(i / kBlockSize));
      }
      residuals.push_back(block);
    }
  }
  Random rng(505);
  for (int trial = 0; trial < 40; ++trial) {
    ResidualBlock block;
    const int spread = 1 + static_cast<int>(rng.Uniform(255));
    for (auto& v : block) {
      v = static_cast<int16_t>(
          static_cast<int>(rng.Uniform(2 * spread + 1)) - spread);
    }
    residuals.push_back(block);
  }
  // Level blocks past the int16 saturation of Dequantize, and the int32
  // edges its clamp guards: each edge value alone at every position and
  // filling a block.
  std::vector<LevelBlock> extremes;
  LevelBlock edge{};
  edge[0] = INT32_MAX;
  edge[1] = INT32_MIN;
  edge[9] = -INT32_MAX;
  edge[63] = 4097;
  extremes.push_back(edge);
  for (int32_t level : {4095, -4095, 4096, -4096, 4097, -4097, INT32_MIN,
                        INT32_MAX}) {
    LevelBlock levels;
    levels.fill(level);
    extremes.push_back(levels);
    for (int i = 0; i < kBlockPixels; ++i) {
      levels.fill(0);
      levels[i] = level;
      extremes.push_back(levels);
    }
  }
  for (int trial = 0; trial < 8; ++trial) {
    LevelBlock levels;
    for (auto& level : levels) {
      level = static_cast<int32_t>(rng.Uniform(20001)) - 10000;
    }
    extremes.push_back(levels);
  }
  for (int qp = 0; qp <= kMaxQp; ++qp) {
    // The scalar stagewise reference.
    std::vector<LevelBlock> want_levels(residuals.size());
    std::vector<uint64_t> want_masks(residuals.size());
    std::vector<LevelBlock> level_blocks = extremes;
    std::vector<ResidualBlock> want_residuals;
    {
      ScopedSimd off(false);
      for (size_t b = 0; b < residuals.size(); ++b) {
        CoeffBlock coeffs;
        ForwardDct(residuals[b], &coeffs);
        want_masks[b] = Quantize(coeffs, qp, &want_levels[b]);
        level_blocks.push_back(want_levels[b]);
      }
      for (const LevelBlock& levels : level_blocks) {
        CoeffBlock coeffs;
        Dequantize(levels, qp, &coeffs);
        InverseDct(coeffs, &want_residuals.emplace_back());
      }
    }
    for (bool vector : {false, true}) {
      ScopedSimd scope(vector);
      const std::string name = simd::LevelName(simd::ActiveLevel());
      for (size_t b = 0; b < residuals.size(); ++b) {
        LevelBlock got;
        const uint64_t got_mask = ForwardDctQuantize(residuals[b], qp, &got);
        ASSERT_EQ(got, want_levels[b]) << name << " qp " << qp << " block "
                                       << b;
        ASSERT_EQ(got_mask, want_masks[b])
            << name << " qp " << qp << " block " << b;
      }
      for (size_t b = 0; b < level_blocks.size(); ++b) {
        ResidualBlock got;
        DequantizeInverseDct(level_blocks[b], qp, &got);
        ASSERT_EQ(got, want_residuals[b])
            << name << " qp " << qp << " levels " << b;
      }
    }
  }
}

TEST(SimdTest, DcOnlyInverseDctMatchesScalarBitExactly) {
  // DC-only blocks take InverseDctDc in the codec; the dense InverseDct
  // must agree with it, with the vector path off and on, on every DC.
  for (int32_t dc = -32768; dc <= 32767; ++dc) {
    CoeffBlock coeffs{};
    coeffs[0] = dc;
    ResidualBlock out_scalar, out_simd;
    {
      ScopedSimd off(false);
      InverseDct(coeffs, &out_scalar);
    }
    {
      ScopedSimd on(true);
      InverseDct(coeffs, &out_simd);
    }
    ASSERT_EQ(out_scalar, out_simd)
        << "dc " << dc << " " << simd::LevelName(simd::ActiveLevel());
    ASSERT_EQ(out_simd[0], InverseDctDc(dc)) << "dc " << dc;
  }
  // So must DequantizeInverseDct on the vector path (its scalar body is
  // Dequantize and InverseDct, checked against the fill in TransformTest)
  // for every level up to past the clamp, at every QP.
  ScopedSimd on(true);
  for (int qp = 0; qp <= kMaxQp; ++qp) {
    for (int32_t level = -5000; level <= 5000; ++level) {
      LevelBlock levels{};
      levels[0] = level;
      ResidualBlock dense;
      DequantizeInverseDct(levels, qp, &dense);
      const int16_t fill = DequantizeInverseDctDc(level, qp);
      for (int i = 0; i < kBlockPixels; ++i) {
        ASSERT_EQ(dense[i], fill) << simd::LevelName(simd::ActiveLevel())
                                  << " qp " << qp << " level " << level
                                  << " index " << i;
      }
    }
  }
}

TEST(SimdTest, BlockSadMatchesScalarExactly) {
  Random rng(503);
  constexpr int kW = 64, kH = 48;
  std::vector<uint8_t> a(kW * kH), b(kW * kH);
  for (auto& v : a) v = static_cast<uint8_t>(rng.Uniform(256));
  for (auto& v : b) v = static_cast<uint8_t>(rng.Uniform(256));
  PlaneView pa{a.data(), kW}, pb{b.data(), kW};

  for (int trial = 0; trial < 500; ++trial) {
    const int size = trial % 2 == 0 ? 16 : 8;
    const int ax = static_cast<int>(rng.Uniform(kW - size));
    const int ay = static_cast<int>(rng.Uniform(kH - size));
    const int bx = static_cast<int>(rng.Uniform(kW - size));
    const int by = static_cast<int>(rng.Uniform(kH - size));
    const uint32_t limit = rng.Uniform(2) == 0
                               ? 1 + rng.Uniform(size * size * 255u)
                               : UINT32_MAX;
    uint32_t sad_scalar, bounded_scalar, sad_simd, bounded_simd;
    {
      ScopedSimd off(false);
      sad_scalar = BlockSad(pa, ax, ay, pb, bx, by, size);
      bounded_scalar = BlockSadBounded(pa, ax, ay, pb, bx, by, size, limit);
    }
    {
      ScopedSimd on(true);
      sad_simd = BlockSad(pa, ax, ay, pb, bx, by, size);
      bounded_simd = BlockSadBounded(pa, ax, ay, pb, bx, by, size, limit);
    }
    ASSERT_EQ(sad_scalar, sad_simd) << "trial " << trial;
    // Both paths fold a full row before checking the limit, so even the
    // abandoned partial sums agree exactly.
    ASSERT_EQ(bounded_scalar, bounded_simd) << "trial " << trial;
  }
}

TEST(SimdTest, FullEncodeIsBitIdenticalToScalar) {
  auto frames = TestFrames(6);
  EncoderOptions options = SmallOptions();
  options.tile_rows = 2;
  options.tile_cols = 2;

  std::vector<uint8_t> bytes_scalar;
  {
    ScopedSimd off(false);
    auto video = EncodeVideo(frames, options);
    ASSERT_TRUE(video.ok());
    bytes_scalar = video->Serialize();
  }
  ScopedSimd on(true);
  auto video = EncodeVideo(frames, options);
  ASSERT_TRUE(video.ok());
  EXPECT_EQ(bytes_scalar, video->Serialize())
      << "the " << simd::LevelName(simd::ActiveLevel())
      << " tier and scalar encodes must produce identical streams";
}

}  // namespace
}  // namespace vc
