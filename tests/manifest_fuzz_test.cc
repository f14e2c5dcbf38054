#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "streaming/manifest.h"
#include "test_digest.h"

// Deterministic fuzzing of the VCMPD manifest parser (ROADMAP item 6): a
// valid manifest is truncated at every length, peppered with seeded bit
// flips, rewritten line-by-line, and pattern-filled, and every mutant goes through ParseManifest. The contract
// is totality: every input either parses or returns a clean error Status;
// crashes, hangs, and out-of-bounds access (the ASan/UBSan CI leg runs this
// suite) are the failures. Mutants that do parse must additionally
// round-trip — regenerating from the parsed metadata yields a manifest that
// parses again — so the canonical form is a fixed point even for inputs the
// generator never produced.

namespace vc {
namespace {

VideoMetadata FuzzSample() {
  VideoMetadata m;
  m.name = "fuzz";
  m.version = 7;
  m.width = 256;
  m.height = 128;
  m.fps_times_100 = 2400;
  m.frames_per_segment = 12;
  m.tile_rows = 2;
  m.tile_cols = 4;
  m.ladder = {{"high", 14}, {"low", 42}};
  m.segments = {{0, 12}, {12, 12}, {24, 5}};
  m.cells.resize(3 * 8 * 2);
  for (size_t i = 0; i < m.cells.size(); ++i) {
    m.cells[i] = CellInfo{900 + i * 17, static_cast<uint32_t>(0xC0DE + i)};
  }
  return m;
}

std::string Fixture() { return GenerateManifest(FuzzSample()); }

void DriveParser(const std::string& text) {
  auto parsed = ParseManifest(Slice(text));
  if (!parsed.ok()) return;
  // Whatever parsed was validated; its canonical regeneration must parse.
  EXPECT_TRUE(ParseManifest(Slice(GenerateManifest(*parsed))).ok())
      << "regenerated manifest failed to re-parse";
}

TEST(ManifestFuzzTest, SampleDigestIsPinned) {
  // The static manifest of the fuzz sample, byte for byte.
  Fnv1a digest;
  digest.Add(Fixture());
  EXPECT_EQ(digest.value(), 0x63167ac15807bf40ull) << std::hex << digest.value();
}

TEST(ManifestFuzzTest, TruncationsFailCleanly) {
  std::string text = Fixture();
  for (size_t keep = 0; keep <= text.size(); ++keep) {
    DriveParser(text.substr(0, keep));
  }
}

TEST(ManifestFuzzTest, BitFlipsFailCleanly) {
  std::string text = Fixture();
  Random rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutant = text;
    int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < flips; ++i) {
      size_t bit = rng.Uniform(static_cast<uint32_t>(mutant.size() * 8));
      mutant[bit / 8] = static_cast<char>(
          static_cast<uint8_t>(mutant[bit / 8]) ^ (1u << (bit % 8)));
    }
    DriveParser(mutant);
  }
}

TEST(ManifestFuzzTest, LineSurgeryFailsCleanly) {
  // Structured mutations the bit flipper rarely finds: whole lines deleted,
  // duplicated, or swapped, and single tokens replaced with adversarial
  // values (overflow, negatives, keywords in value position).
  std::string text = Fixture();
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  const std::vector<std::string> poison = {
      "-1", "4294967296", "999999999999999999999", "cell", "live",
      "0x10", "1e9", "", "NaN"};
  Random rng(424242);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> mutant = lines;
    switch (rng.Uniform(4)) {
      case 0:  // delete a line
        mutant.erase(mutant.begin() + rng.Uniform(
                         static_cast<uint32_t>(mutant.size())));
        break;
      case 1:  // duplicate a line
        mutant.push_back(
            mutant[rng.Uniform(static_cast<uint32_t>(mutant.size()))]);
        break;
      case 2: {  // swap two lines
        size_t a = rng.Uniform(static_cast<uint32_t>(mutant.size()));
        size_t b = rng.Uniform(static_cast<uint32_t>(mutant.size()));
        std::swap(mutant[a], mutant[b]);
        break;
      }
      default: {  // replace one whitespace-delimited token
        std::string& line =
            mutant[rng.Uniform(static_cast<uint32_t>(mutant.size()))];
        size_t space = line.find(' ');
        if (space == std::string::npos) break;
        size_t next = line.find(' ', space + 1);
        line = line.substr(0, space + 1) +
               poison[rng.Uniform(static_cast<uint32_t>(poison.size()))] +
               (next == std::string::npos ? "" : line.substr(next));
        break;
      }
    }
    std::string joined;
    for (const std::string& line : mutant) joined += line + "\n";
    DriveParser(joined);
  }
}

TEST(ManifestFuzzTest, PatternFillsFailCleanly) {
  std::string text = Fixture();
  for (char fill : {'\0', '\xff', ' ', '9', '\n'}) {
    std::string mutant = text;
    // Keep the header line so parsing reaches the keyword dispatch.
    for (size_t i = 8; i < mutant.size(); ++i) mutant[i] = fill;
    DriveParser(mutant);
  }
}

}  // namespace
}  // namespace vc
