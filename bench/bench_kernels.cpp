// M1k — codec kernel microbenchmark: scalar vs SIMD throughput for each of
// six hot kernels (three SAD variants, forward/inverse integer DCT,
// quantization), plus the Exp-Golomb residual coder's throughput and density
// and the cell CRC's throughput against a byte-at-a-time reference. The
// `speedup_geomean` in the JSON snapshot is over those six kernels. For the
// transform kernels "scalar" is the build's baseline compilation of their one
// plain C++ body and "SIMD" its AVX2 compilation.
//
// Expected shape: the SIMD columns are faster than scalar for every
// vectorized kernel.
//
// Every lap re-verifies that the SIMD and scalar kernels produce identical
// outputs (and that the entropy coder round-trips) before timing — a
// throughput number for a wrong kernel is worse than none. The CRC row checks
// the sliced Crc32 against the byte-loop reference on every timed lap.
// `--smoke` runs the verification on shrunk workloads and skips the JSON
// snapshot; CI registers it so the agreement checks run on every build.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec/entropy.h"
#include "codec/motion.h"
#include "codec/simd.h"
#include "codec/transform.h"
#include "common/bitio.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/stopwatch.h"

using namespace vc;
using namespace vc::bench;

namespace {

bool g_smoke = false;

/// Fastest of `reps` laps of `fn` (deterministic kernels; the minimum is the
/// least noisy estimator of the true cost).
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    fn();
    double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_kernels: %s MISMATCH\n", what);
    std::exit(1);
  }
}

/// One kernel's result, in MB/s of 8-bit pixels processed (64 bytes per 8x8
/// block, 256 per 16x16 SAD) so rates are comparable across kernels.
struct KernelRow {
  std::string name;
  double scalar_mbs = 0.0;
  double simd_mbs = 0.0;  // the active vector tier
  double speedup() const { return simd_mbs / scalar_mbs; }
};

/// Times `fn` on the scalar path and on the active vector tier. `bytes` is
/// the pixel volume one call of `fn` processes.
template <typename Fn>
KernelRow TimeKernel(const std::string& name, double bytes, int reps,
                     Fn&& fn) {
  KernelRow row;
  row.name = name;
  simd::SetEnabled(false);
  row.scalar_mbs = bytes / BestSeconds(reps, fn) / 1e6;
  simd::SetEnabled(true);
  row.simd_mbs = bytes / BestSeconds(reps, fn) / 1e6;
  return row;
}

// ------------------------------------------------------------ SAD kernels

KernelRow BenchSad(int size, bool bounded, int blocks, int reps) {
  constexpr int kDim = 512;
  Random rng(7001);
  std::vector<uint8_t> a(kDim * kDim), b(kDim * kDim);
  for (auto& v : a) v = static_cast<uint8_t>(rng.Uniform(256));
  for (auto& v : b) v = static_cast<uint8_t>(rng.Uniform(256));
  PlaneView pa{a.data(), kDim}, pb{b.data(), kDim};
  std::vector<int> xs(blocks), ys(blocks);
  std::vector<uint32_t> limits(blocks);
  for (int i = 0; i < blocks; ++i) {
    xs[i] = static_cast<int>(rng.Uniform(kDim - size));
    ys[i] = static_cast<int>(rng.Uniform(kDim - size));
    // Realistic bounded-SAD limits: most candidates lose mid-block.
    limits[i] = 1 + static_cast<uint32_t>(
                        rng.Uniform(size * size * 30u));
  }

  // Agreement check (both paths, all probes).
  std::vector<uint32_t> expect(blocks);
  simd::SetEnabled(false);
  for (int i = 0; i < blocks; ++i) {
    expect[i] = bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                          size, limits[i])
                        : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i], size);
  }
  simd::SetEnabled(true);
  for (int i = 0; i < blocks; ++i) {
    uint32_t got = bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i],
                                             xs[i], size, limits[i])
                           : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                      size);
    Check(got == expect[i], "SAD scalar/SIMD");
  }

  uint64_t sink = 0;
  auto run = [&] {
    uint64_t acc = 0;
    for (int i = 0; i < blocks; ++i) {
      acc += bounded ? BlockSadBounded(pa, xs[i], ys[i], pb, ys[i], xs[i],
                                       size, limits[i])
                     : BlockSad(pa, xs[i], ys[i], pb, ys[i], xs[i], size);
    }
    sink += acc;
  };
  std::string name = "sad" + std::to_string(size) +
                     (bounded ? "_bounded" : "");
  KernelRow row = TimeKernel(
      name, static_cast<double>(blocks) * size * size, reps, run);
  if (sink == 0) std::printf("(impossible)\n");
  return row;
}

// ------------------------------------------------- transform/quant kernels

struct TransformData {
  std::vector<ResidualBlock> residuals;
  std::vector<CoeffBlock> coeffs;        // ForwardDct output
  std::vector<LevelBlock> levels;        // Quantize output
  std::vector<uint64_t> nonzero_masks;   // Quantize's raster nonzero masks
  std::vector<CoeffBlock> dequantized;   // Dequantize output
  std::vector<int> nonzero;
  int qp = 28;
};

TransformData MakeTransformData(int blocks) {
  TransformData data;
  Random rng(7002);
  data.residuals.resize(blocks);
  data.coeffs.resize(blocks);
  data.levels.resize(blocks);
  data.nonzero_masks.resize(blocks);
  data.dequantized.resize(blocks);
  data.nonzero.resize(blocks);
  for (int i = 0; i < blocks; ++i) {
    // Smooth-ish residuals so quantized blocks have codec-like sparsity.
    int16_t base = static_cast<int16_t>(rng.Uniform(61)) - 30;
    for (int p = 0; p < kBlockPixels; ++p) {
      data.residuals[i][p] =
          static_cast<int16_t>(base + static_cast<int>(rng.Uniform(25)) - 12);
    }
    ForwardDct(data.residuals[i], &data.coeffs[i]);
    data.nonzero_masks[i] =
        Quantize(data.coeffs[i], data.qp, &data.levels[i]);
    int nonzero = 0;
    for (int32_t v : data.levels[i]) nonzero += v != 0;
    data.nonzero[i] = nonzero;
    Dequantize(data.levels[i], data.qp, &data.dequantized[i]);
  }
  return data;
}

template <typename Block, typename Fn>
void CheckBlockwiseAgreement(int blocks, std::vector<Block>* out, Fn&& fn,
                             const char* what) {
  std::vector<Block> expect(blocks);
  simd::SetEnabled(false);
  for (int i = 0; i < blocks; ++i) fn(i, &expect[i]);
  simd::SetEnabled(true);
  for (int i = 0; i < blocks; ++i) {
    fn(i, &(*out)[i]);
    Check((*out)[i] == expect[i], what);
  }
}

std::vector<KernelRow> BenchTransforms(const TransformData& data, int reps) {
  const int blocks = static_cast<int>(data.residuals.size());
  const double bytes = static_cast<double>(blocks) * kBlockPixels;
  std::vector<KernelRow> rows;

  std::vector<CoeffBlock> coeff_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &coeff_out,
      [&](int i, CoeffBlock* out) { ForwardDct(data.residuals[i], out); },
      "ForwardDct scalar/SIMD");
  rows.push_back(TimeKernel("fdct", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      ForwardDct(data.residuals[i], &coeff_out[i]);
    }
  }));

  std::vector<ResidualBlock> res_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &res_out,
      [&](int i, ResidualBlock* out) { InverseDct(data.dequantized[i], out); },
      "InverseDct scalar/SIMD");
  rows.push_back(TimeKernel("idct", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      InverseDct(data.dequantized[i], &res_out[i]);
    }
  }));

  std::vector<LevelBlock> level_out(blocks);
  CheckBlockwiseAgreement(
      blocks, &level_out,
      [&](int i, LevelBlock* out) {
        Quantize(data.coeffs[i], data.qp, out);
      },
      "Quantize scalar/SIMD");
  rows.push_back(TimeKernel("quant", bytes, reps, [&] {
    for (int i = 0; i < blocks; ++i) {
      Quantize(data.coeffs[i], data.qp, &level_out[i]);
    }
  }));

  return rows;
}

// ---------------------------------------------------------- entropy coder

struct EntropyRow {
  double encode_mbs = 0.0;
  double decode_mbs = 0.0;
  double bits_per_block = 0.0;
};

/// Exp-Golomb run-level coding of the quantized blocks, with all-zero blocks
/// written as the single UE(0) the tile encoder emits for them.
EntropyRow BenchExpGolomb(const TransformData& data, int reps) {
  const int blocks = static_cast<int>(data.levels.size());
  const double bytes = static_cast<double>(blocks) * kBlockPixels;
  EntropyRow eg;
  std::vector<uint8_t> eg_bytes;
  eg.encode_mbs = bytes / BestSeconds(reps, [&] {
    BitWriter writer;
    for (int i = 0; i < blocks; ++i) {
      if (data.nonzero[i] == 0) {
        writer.WriteUE(0);
      } else {
        EncodeLevelBlock(data.levels[i], data.nonzero_masks[i], &writer);
      }
    }
    eg_bytes = writer.Finish();
  }) / 1e6;
  eg.bits_per_block = static_cast<double>(eg_bytes.size()) * 8 / blocks;
  LevelBlock scratch;
  eg.decode_mbs = bytes / BestSeconds(reps, [&] {
    BitReader reader{Slice(eg_bytes)};
    for (int i = 0; i < blocks; ++i) {
      CheckOk(DecodeLevelBlock(&reader, &scratch), "eg decode");
    }
  }) / 1e6;
  // Round-trip check on the last lap's state.
  BitReader reader{Slice(eg_bytes)};
  for (int i = 0; i < blocks; ++i) {
    int nonzero = -1;
    CheckOk(DecodeLevelBlock(&reader, &scratch, &nonzero), "eg decode");
    Check(nonzero == data.nonzero[i] && scratch == data.levels[i],
          "Exp-Golomb round-trip");
  }
  return eg;
}

// ------------------------------------------------------------- cell CRC

struct CrcRow {
  double bytewise_mbs = 0.0;
  double sliced_mbs = 0.0;
  double speedup() const { return sliced_mbs / bytewise_mbs; }
};

/// CRC-32 one byte per table lookup: the reference the sliced Crc32 must
/// match.
uint32_t BytewiseCrc32(Slice data) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < data.size(); ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

/// CRCs of cell-sized chunks (1 B to 8 KiB, at every byte alignment) of a
/// `bytes`-byte buffer, as the cell loader checks them after a read.
CrcRow BenchCrc32(size_t bytes, int reps) {
  Random rng(7003);
  std::vector<uint8_t> buffer(bytes);
  for (auto& v : buffer) v = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<Slice> chunks;
  for (size_t pos = 0; pos < bytes;) {
    size_t size = 1 + rng.Uniform(8192);
    if (size > bytes - pos) size = bytes - pos;
    chunks.push_back(Slice(buffer.data() + pos, size));
    pos += size;
  }
  auto lap = [&](uint32_t (*crc)(Slice)) {
    uint32_t acc = 0;
    for (const Slice& chunk : chunks) acc = acc * 31 + crc(chunk);
    return acc;
  };
  uint32_t expect = 0;
  CrcRow row;
  row.bytewise_mbs = static_cast<double>(bytes) / BestSeconds(reps, [&] {
    expect = lap(BytewiseCrc32);
  }) / 1e6;
  row.sliced_mbs = static_cast<double>(bytes) / BestSeconds(reps, [&] {
    Check(lap([](Slice s) { return Crc32(s); }) == expect,
          "Crc32 sliced/bytewise");
  }) / 1e6;
  return row;
}

std::string Escape(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  const int blocks = g_smoke ? 512 : 16384;
  const int sad_blocks = g_smoke ? 512 : 32768;
  const int reps = g_smoke ? 2 : 7;

  Banner("M1k: codec kernel throughput (scalar vs SIMD) and entropy coder",
         "expect: multi-x SIMD speedups at bit-identical outputs; Exp-Golomb "
         "blocks round-trip exactly");
  std::printf("compiled SIMD level: %s, active: %s\n",
              simd::LevelName(simd::CompiledLevel()),
              simd::LevelName(simd::ActiveLevel()));

  const bool simd_was_enabled = simd::Enabled();
  std::vector<KernelRow> rows;
  rows.push_back(BenchSad(16, false, sad_blocks, reps));
  rows.push_back(BenchSad(16, true, sad_blocks, reps));
  rows.push_back(BenchSad(8, false, sad_blocks, reps));
  TransformData data = MakeTransformData(blocks);
  for (KernelRow& row : BenchTransforms(data, reps)) {
    rows.push_back(std::move(row));
  }

  double geomean = 1.0;
  std::printf("\n%-13s %13s %13s %9s\n", "kernel", "scalar MB/s",
              "SIMD MB/s", "speedup");
  for (const KernelRow& row : rows) {
    std::printf("%-13s %13.1f %13.1f %8.2fx\n", row.name.c_str(),
                row.scalar_mbs, row.simd_mbs, row.speedup());
    geomean *= row.speedup();
  }
  geomean = std::pow(geomean, 1.0 / static_cast<double>(rows.size()));
  std::printf("%-13s %37.2fx (geomean)\n", "", geomean);

  simd::SetEnabled(true);
  const EntropyRow entropy = BenchExpGolomb(data, reps);
  std::printf("\n%-13s %13s %13s %11s\n", "entropy", "enc MB/s", "dec MB/s",
              "bits/block");
  std::printf("%-13s %13.1f %13.1f %11.1f\n\n", "expgolomb",
              entropy.encode_mbs, entropy.decode_mbs, entropy.bits_per_block);

  const CrcRow crc =
      BenchCrc32(g_smoke ? size_t{1} << 16 : size_t{1} << 24, reps);
  std::printf("%-13s %13s %13s %9s\n", "checksum", "bytewise MB/s",
              "sliced MB/s", "speedup");
  std::printf("%-13s %13.1f %13.1f %8.2fx\n\n", "crc32", crc.bytewise_mbs,
              crc.sliced_mbs, crc.speedup());

  simd::SetEnabled(simd_was_enabled);
  if (g_smoke) {
    std::printf("smoke: all scalar/SIMD agreement, round-trip and CRC "
                "checks passed\n");
    return 0;
  }

  std::string kernels_json = "{\n  \"best_tier\": \"";
  kernels_json += simd::LevelName(simd::ActiveLevel());
  kernels_json += "\",\n  \"pixel_mb_per_s\": {";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n   \"%s\": {\"scalar\": %s, \"best\": %s, "
                  "\"speedup\": %.2f}",
                  i == 0 ? "" : ",", rows[i].name.c_str(),
                  Escape(rows[i].scalar_mbs).c_str(),
                  Escape(rows[i].simd_mbs).c_str(), rows[i].speedup());
    kernels_json += buffer;
  }
  char tail[768];
  std::snprintf(
      tail, sizeof(tail),
      "},\n  \"speedup_geomean\": %.2f,\n  \"entropy\": {\n"
      "   \"expgolomb\": {\"encode_mb_per_s\": %s, \"decode_mb_per_s\": %s, "
      "\"bits_per_block\": %.1f}},\n  \"checksum\": {\n"
      "   \"crc32\": {\"bytewise_mb_per_s\": %s, \"sliced_mb_per_s\": %s, "
      "\"speedup\": %.2f}}\n }",
      geomean, Escape(entropy.encode_mbs).c_str(),
      Escape(entropy.decode_mbs).c_str(), entropy.bits_per_block,
      Escape(crc.bytewise_mbs).c_str(), Escape(crc.sliced_mbs).c_str(),
      crc.speedup());
  kernels_json += tail;
  WriteBenchJsonKey("BENCH_codec.json", "kernels", kernels_json);
  return 0;
}
