#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitio.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace vc {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing video");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing video");
  EXPECT_EQ(s.ToString(), "NotFound: missing video");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

Status ReturnsEarly(bool fail) {
  VC_RETURN_IF_ERROR(fail ? Status::Aborted("stop") : Status::OK());
  return Status::InvalidArgument("fell through");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(ReturnsEarly(true).IsAborted());
  EXPECT_TRUE(ReturnsEarly(false).IsInvalidArgument());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(42), 42);
}

Result<int> Doubles(int v) {
  int parsed;
  VC_ASSIGN_OR_RETURN(parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubles(21), 42);
  EXPECT_TRUE(Doubles(0).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ----------------------------------------------------------------- Slice

TEST(SliceTest, BasicViews) {
  std::string s = "abcdef";
  Slice slice(s);
  EXPECT_EQ(slice.size(), 6u);
  EXPECT_EQ(slice[0], 'a');
  slice.RemovePrefix(2);
  EXPECT_EQ(slice.ToString(), "cdef");
  EXPECT_EQ(slice.Subslice(1, 2).ToString(), "de");
}

TEST(SliceTest, Equality) {
  std::string a = "same", b = "same", c = "diff";
  EXPECT_EQ(Slice(a), Slice(b));
  EXPECT_FALSE(Slice(a) == Slice(c));
  EXPECT_EQ(Slice(), Slice());
}

// ----------------------------------------------------------------- BitIO

TEST(BitIoTest, FixedWidthRoundTrip) {
  BitWriter writer;
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0xdead, 16);
  writer.WriteBits(1, 1);
  writer.WriteBits(0x123456789abcdefull, 64);
  auto bytes = writer.Finish();

  BitReader reader{Slice(bytes)};
  uint64_t v;
  ASSERT_TRUE(reader.ReadBits(3, &v).ok());
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(reader.ReadBits(16, &v).ok());
  EXPECT_EQ(v, 0xdeadu);
  ASSERT_TRUE(reader.ReadBits(1, &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(reader.ReadBits(64, &v).ok());
  EXPECT_EQ(v, 0x123456789abcdefull);
}

TEST(BitIoTest, ExpGolombRoundTrip) {
  BitWriter writer;
  for (uint64_t v : {0ull, 1ull, 2ull, 5ull, 255ull, 4096ull, 1234567ull}) {
    writer.WriteUE(v);
  }
  for (int64_t v : {0ll, 1ll, -1ll, 17ll, -1000ll, 65535ll, -65536ll}) {
    writer.WriteSE(v);
  }
  auto bytes = writer.Finish();

  BitReader reader{Slice(bytes)};
  for (uint64_t expected :
       {0ull, 1ull, 2ull, 5ull, 255ull, 4096ull, 1234567ull}) {
    uint64_t v;
    ASSERT_TRUE(reader.ReadUE(&v).ok());
    EXPECT_EQ(v, expected);
  }
  for (int64_t expected : {0ll, 1ll, -1ll, 17ll, -1000ll, 65535ll, -65536ll}) {
    int64_t v;
    ASSERT_TRUE(reader.ReadSE(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(BitIoTest, AlignmentAndBytes) {
  BitWriter writer;
  writer.WriteBits(1, 1);
  writer.AlignToByte();
  std::vector<uint8_t> raw = {1, 2, 3};
  writer.WriteBytes(Slice(raw));
  auto bytes = writer.Finish();
  EXPECT_EQ(bytes.size(), 4u);

  BitReader reader{Slice(bytes)};
  uint64_t v;
  ASSERT_TRUE(reader.ReadBits(1, &v).ok());
  reader.AlignToByte();
  std::vector<uint8_t> out;
  ASSERT_TRUE(reader.ReadBytes(3, &out).ok());
  EXPECT_EQ(out, raw);
}

TEST(BitIoTest, ReadPastEndFails) {
  std::vector<uint8_t> one = {0xff};
  BitReader reader{Slice(one)};
  uint64_t v;
  ASSERT_TRUE(reader.ReadBits(8, &v).ok());
  EXPECT_TRUE(reader.ReadBits(1, &v).IsOutOfRange());
}

TEST(BitIoTest, UnterminatedGolombIsCorruption) {
  // All zeros never yields a terminating 1 bit.
  std::vector<uint8_t> zeros(20, 0);
  BitReader reader{Slice(zeros)};
  uint64_t v;
  Status s = reader.ReadUE(&v);
  EXPECT_FALSE(s.ok());
}

TEST(BitIoTest, ReadPastEndIsSticky) {
  // Once any read fails, the reader stays failed: later reads fail too even
  // if bits technically remain. Decoders probe multi-bit fields near the end
  // of truncated payloads; without stickiness a short read could "succeed"
  // on stale data and mask the corruption.
  std::vector<uint8_t> one = {0xff};
  BitReader reader{Slice(one)};
  uint64_t v;
  ASSERT_TRUE(reader.ReadBits(4, &v).ok());
  EXPECT_FALSE(reader.failed());
  EXPECT_TRUE(reader.ReadBits(8, &v).IsOutOfRange());  // 4 bits short
  EXPECT_TRUE(reader.failed());
  // The remaining 4 bits must no longer be readable.
  EXPECT_TRUE(reader.ReadBits(1, &v).IsOutOfRange());
  EXPECT_TRUE(reader.ReadBits(0, &v).IsOutOfRange());
  bool bit;
  EXPECT_TRUE(reader.ReadBit(&bit).IsOutOfRange());
  EXPECT_TRUE(reader.ReadUE(&v).IsOutOfRange());
}

TEST(BitIoTest, NegativeOrOversizedBitCountFails) {
  // A decoder computing a field width from stream data can end up with a
  // negative or oversized count; that must be a hard (and sticky) error, not
  // an assert that vanishes in Release builds and wraps the bounds check.
  std::vector<uint8_t> bytes(8, 0xff);
  {
    BitReader reader{Slice(bytes)};
    uint64_t v;
    EXPECT_TRUE(reader.ReadBits(-1, &v).IsInvalidArgument());
    EXPECT_TRUE(reader.failed());
    EXPECT_TRUE(reader.ReadBits(8, &v).IsOutOfRange());  // sticky
  }
  {
    BitReader reader{Slice(bytes)};
    uint64_t v;
    EXPECT_TRUE(reader.ReadBits(65, &v).IsInvalidArgument());
    EXPECT_TRUE(reader.failed());
  }
}

TEST(BitIoTest, CorruptGolombIsSticky) {
  std::vector<uint8_t> zeros(20, 0);
  BitReader reader{Slice(zeros)};
  uint64_t v;
  EXPECT_TRUE(reader.ReadUE(&v).IsCorruption());
  EXPECT_TRUE(reader.failed());
  EXPECT_TRUE(reader.ReadBits(8, &v).IsOutOfRange());
}

// Property: random UE/SE sequences round-trip.
TEST(BitIoTest, RandomizedRoundTrip) {
  Random rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> values;
    BitWriter writer;
    for (int i = 0; i < 100; ++i) {
      int64_t v = static_cast<int64_t>(rng.Next() % 100000) - 50000;
      values.push_back(v);
      writer.WriteSE(v);
    }
    auto bytes = writer.Finish();
    BitReader reader{Slice(bytes)};
    for (int64_t expected : values) {
      int64_t v;
      ASSERT_TRUE(reader.ReadSE(&v).ok());
      ASSERT_EQ(v, expected);
    }
  }
}

// The bit-at-a-time reader that BitReader's windowed reads replaced, kept as
// the reference they must match call for call: values, Status code and
// message, bit position and stickiness.
class ReferenceBitReader {
 public:
  explicit ReferenceBitReader(Slice data) : data_(data) {}

  Status ReadBits(int bits, uint64_t* value) {
    if (failed_) return Status::OutOfRange("bit reader in failed state");
    if (bits < 0 || bits > 64) {
      return Fail(Status::InvalidArgument("bit count out of range"));
    }
    if (bit_pos_ + static_cast<size_t>(bits) > data_.size() * 8) {
      return Fail(Status::OutOfRange("bit stream exhausted"));
    }
    uint64_t result = 0;
    int remaining = bits;
    while (remaining > 0) {
      size_t byte_index = bit_pos_ / 8;
      int bit_offset = static_cast<int>(bit_pos_ % 8);
      int available = 8 - bit_offset;
      int take = remaining < available ? remaining : available;
      uint8_t byte = data_[byte_index];
      uint8_t chunk = static_cast<uint8_t>(
          (byte >> (available - take)) & ((1u << take) - 1));
      result = (result << take) | chunk;
      bit_pos_ += take;
      remaining -= take;
    }
    *value = result;
    return Status::OK();
  }

  Status ReadBit(bool* bit) {
    uint64_t v = 0;
    VC_RETURN_IF_ERROR(ReadBits(1, &v));
    *bit = v != 0;
    return Status::OK();
  }

  Status ReadUE(uint64_t* value) {
    int zeros = 0;
    while (true) {
      bool bit = false;
      VC_RETURN_IF_ERROR(ReadBit(&bit));
      if (bit) break;
      if (++zeros > 63) {
        return Fail(Status::Corruption("exp-golomb code too long"));
      }
    }
    uint64_t suffix = 0;
    VC_RETURN_IF_ERROR(ReadBits(zeros, &suffix));
    *value = ((uint64_t{1} << zeros) | suffix) - 1;
    return Status::OK();
  }

  Status ReadSE(int64_t* value) {
    uint64_t mapped;
    VC_RETURN_IF_ERROR(ReadUE(&mapped));
    if (mapped % 2 == 1) {
      *value = static_cast<int64_t>((mapped + 1) / 2);
    } else {
      *value = -static_cast<int64_t>(mapped / 2);
    }
    return Status::OK();
  }

  size_t bit_position() const { return bit_pos_; }
  bool failed() const { return failed_; }

 private:
  Status Fail(Status status) {
    failed_ = true;
    return status;
  }

  Slice data_;
  size_t bit_pos_ = 0;
  bool failed_ = false;
};

struct ReadOp {
  enum Kind { kBits, kBit, kUE, kSE, kPair } kind;
  int bits = 0;  // kBits only
};

/// Expects one read's outcome to match the reference's.
template <typename T>
void ExpectSameRead(const Status& got, T got_value, const Status& want,
                    T want_value) {
  EXPECT_EQ(got.ToString(), want.ToString());
  if (got.ok() && want.ok()) {
    EXPECT_EQ(got_value, want_value);
  }
}

/// Runs `ops` on a BitReader and on the reference over `data`, comparing
/// after every call. The pair read must either consume exactly the
/// reference's two UE codes or consume nothing, after which the two ordinary
/// ReadUE calls its callers make are compared instead.
void ExpectReadersAgree(Slice data, const std::vector<ReadOp>& ops) {
  BitReader reader(data);
  ReferenceBitReader reference(data);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i) + " of a " +
                 std::to_string(data.size()) + "-byte slice");
    const ReadOp& op = ops[i];
    uint64_t got = ~0ull, want = ~0ull;
    switch (op.kind) {
      case ReadOp::kBits: {
        Status s = reader.ReadBits(op.bits, &got);
        Status r = reference.ReadBits(op.bits, &want);
        ExpectSameRead(s, got, r, want);
        break;
      }
      case ReadOp::kBit: {
        bool got_bit = false, want_bit = false;
        Status s = reader.ReadBit(&got_bit);
        Status r = reference.ReadBit(&want_bit);
        ExpectSameRead(s, got_bit, r, want_bit);
        break;
      }
      case ReadOp::kUE: {
        Status s = reader.ReadUE(&got);
        Status r = reference.ReadUE(&want);
        ExpectSameRead(s, got, r, want);
        break;
      }
      case ReadOp::kSE: {
        int64_t got_se = 0, want_se = 0;
        Status s = reader.ReadSE(&got_se);
        Status r = reference.ReadSE(&want_se);
        ExpectSameRead(s, got_se, r, want_se);
        break;
      }
      case ReadOp::kPair: {
        const size_t before = reader.bit_position();
        uint64_t got2 = ~0ull, want2 = ~0ull;
        if (reader.ReadUEPair(&got, &got2)) {
          ASSERT_TRUE(reference.ReadUE(&want).ok());
          ASSERT_TRUE(reference.ReadUE(&want2).ok());
          EXPECT_EQ(got, want);
          EXPECT_EQ(got2, want2);
        } else {
          EXPECT_EQ(reader.bit_position(), before);
          Status s = reader.ReadUE(&got);
          Status r = reference.ReadUE(&want);
          ExpectSameRead(s, got, r, want);
          s = reader.ReadUE(&got2);
          r = reference.ReadUE(&want2);
          ExpectSameRead(s, got2, r, want2);
        }
        break;
      }
    }
    ASSERT_EQ(reader.bit_position(), reference.bit_position());
    ASSERT_EQ(reader.failed(), reference.failed());
  }
}

/// Runs `ops` over every prefix of `bytes`, so every read also meets the
/// slice end and the checked tail path.
void ExpectReadersAgreeOnEveryTruncation(const std::vector<uint8_t>& bytes,
                                         const std::vector<ReadOp>& ops) {
  for (size_t keep = 0; keep <= bytes.size(); ++keep) {
    ExpectReadersAgree(Slice(bytes.data(), keep), ops);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// A value of a random bit length in [0, max_bits].
uint64_t RandomWidthValue(Random* rng, int max_bits) {
  const int bits = static_cast<int>(rng->Uniform(max_bits + 1));
  return bits == 0 ? 0 : rng->Next() >> (64 - bits);
}

TEST(BitIoTest, WindowReaderMatchesBitwiseReference) {
  Random rng(20261017);
  // Seeded mixes of every read, written so most reads parse, plus one
  // stream of noise where codes land anywhere. A rare out-of-range bit count
  // exercises the sticky InvalidArgument path.
  for (int trial = 0; trial < 60; ++trial) {
    BitWriter writer;
    std::vector<ReadOp> ops;
    const int count = 8 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < count; ++i) {
      switch (rng.Uniform(5)) {
        case 0: {
          if (rng.Uniform(40) == 0) {
            ops.push_back({ReadOp::kBits, rng.Uniform(2) ? -1 : 65});
            break;
          }
          const int bits = static_cast<int>(rng.Uniform(65));
          const uint64_t value = bits == 0 ? 0 : rng.Next() >> (64 - bits);
          writer.WriteBits(value, bits);
          ops.push_back({ReadOp::kBits, bits});
          break;
        }
        case 1:
          writer.WriteBit(rng.Uniform(2) == 1);
          ops.push_back({ReadOp::kBit});
          break;
        case 2:
          writer.WriteUE(RandomWidthValue(&rng, 40));
          ops.push_back({ReadOp::kUE});
          break;
        case 3: {
          const int64_t magnitude =
              static_cast<int64_t>(RandomWidthValue(&rng, 30));
          writer.WriteSE(rng.Uniform(2) ? magnitude : -magnitude);
          ops.push_back({ReadOp::kSE});
          break;
        }
        case 4:
          writer.WriteUE(RandomWidthValue(&rng, 20));
          writer.WriteUE(RandomWidthValue(&rng, 20));
          ops.push_back({ReadOp::kPair});
          break;
      }
    }
    std::vector<uint8_t> bytes = writer.Finish();
    ExpectReadersAgreeOnEveryTruncation(bytes, ops);
    if (HasFatalFailure()) return;
    // The same reads over noise of the same length.
    for (auto& byte : bytes) byte = static_cast<uint8_t>(rng.Uniform(256));
    ExpectReadersAgreeOnEveryTruncation(bytes, ops);
    if (HasFatalFailure()) return;
  }

  // Crafted codes: a `prefix`-bit field puts the code at every bit offset;
  // the first code has 0–64 leading zeros (28 is the longest one window
  // decodes, 29+ and 57+ take the checked path, 64 is corrupt), so codes
  // end on, just before and just after the window edge; a second code
  // makes the pair read straddle the edge too. Every truncation then moves
  // the codes into the last 7 bytes.
  for (int prefix = 0; prefix < 16; ++prefix) {
    for (int zeros1 = 0; zeros1 <= 64; ++zeros1) {
      for (int zeros2 : {0, 1, 13, 26, 27, 28, 29, 30}) {
        BitWriter writer;
        writer.WriteBits(prefix == 0 ? 0 : rng.Next() >> (64 - prefix),
                         prefix);
        for (int zeros : {zeros1, zeros2}) {
          writer.WriteBits(0, zeros > 32 ? 32 : zeros);
          if (zeros > 32) writer.WriteBits(0, zeros - 32);
          writer.WriteBit(true);
          if (zeros > 0 && zeros < 64) {
            writer.WriteBits(rng.Next() >> (64 - zeros), zeros);
          }
        }
        writer.WriteBits(rng.Next() >> 40, 24);
        const std::vector<uint8_t> bytes = writer.Finish();
        const ReadOp field{ReadOp::kBits, prefix};
        ExpectReadersAgreeOnEveryTruncation(
            bytes, {field, {ReadOp::kUE}, {ReadOp::kUE}, {ReadOp::kBits, 24}});
        ExpectReadersAgreeOnEveryTruncation(
            bytes, {field, {ReadOp::kPair}, {ReadOp::kBits, 57}});
        ExpectReadersAgreeOnEveryTruncation(
            bytes, {field, {ReadOp::kSE}, {ReadOp::kBit}, {ReadOp::kBits, 64}});
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The writer that BitWriter's word flushes replaced, one bit at a time: the
// reference BitWriter must match after every call.
class ReferenceBitWriter {
 public:
  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) PutBit(((value >> i) & 1) != 0);
  }
  void WriteUE(uint64_t value) {
    const uint64_t v = value + 1;
    const int width = 64 - std::countl_zero(v);
    for (int i = 1; i < width; ++i) PutBit(false);
    WriteBits(v, width);
  }
  void WriteSE(int64_t value) {
    WriteUE(value > 0 ? static_cast<uint64_t>(value) * 2 - 1
                      : static_cast<uint64_t>(-value) * 2);
  }
  void AlignToByte() {
    while (bits_ % 8 != 0) PutBit(false);
  }
  void WriteBytes(const std::vector<uint8_t>& bytes) {
    for (uint8_t byte : bytes) WriteBits(byte, 8);
  }
  size_t bit_count() const { return bits_; }
  bool aligned() const { return bits_ % 8 == 0; }
  // The bytes so far, the last one zero-padded.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  void PutBit(bool bit) {
    if (bits_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<uint8_t>(0x80u >> (bits_ % 8));
    ++bits_;
  }

  std::vector<uint8_t> bytes_;
  size_t bits_ = 0;
};

TEST(BitIoTest, WordWriterMatchesBitwiseReference) {
  Random rng(20261018);
  // Seeded mixes of every write. After each call the writer's bit count,
  // alignment and finished bytes (of a copy, so the stream goes on) must be
  // the reference's; the copies finish at every accumulator fill level.
  for (int trial = 0; trial < 80; ++trial) {
    BitWriter writer(rng.Uniform(3) == 0 ? rng.Uniform(16) : 0);
    ReferenceBitWriter reference;
    const int count = 1 + static_cast<int>(rng.Uniform(120));
    for (int i = 0; i < count; ++i) {
      const auto op = rng.Uniform(7);
      switch (op) {
        case 0: {
          const int bits = static_cast<int>(rng.Uniform(65));
          const uint64_t value = bits == 0 ? 0 : rng.Next() >> (64 - bits);
          writer.WriteBits(value, bits);
          reference.WriteBits(value, bits);
          break;
        }
        case 1: {
          const bool bit = rng.Uniform(2) == 1;
          writer.WriteBit(bit);
          reference.WriteBits(bit ? 1 : 0, 1);
          break;
        }
        case 2: {
          // Up to 63 bits: codes of 33+ significant bits take the split.
          const uint64_t value =
              RandomWidthValue(&rng, rng.Uniform(4) ? 20 : 63);
          writer.WriteUE(value);
          reference.WriteUE(value);
          break;
        }
        case 3: {
          const int64_t magnitude = static_cast<int64_t>(
              RandomWidthValue(&rng, rng.Uniform(4) ? 20 : 62));
          const int64_t value = rng.Uniform(2) ? magnitude : -magnitude;
          writer.WriteSE(value);
          reference.WriteSE(value);
          break;
        }
        case 4:
          writer.AlignToByte();
          reference.AlignToByte();
          break;
        case 5: {
          // Raw bytes need alignment; an aligned stream keeps its pending
          // bytes until this call drains them.
          if (!reference.aligned()) {
            writer.AlignToByte();
            reference.AlignToByte();
          }
          std::vector<uint8_t> bytes(rng.Uniform(12));
          for (auto& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
          writer.WriteBytes(Slice(bytes));
          reference.WriteBytes(bytes);
          break;
        }
        case 6: {
          // Whole bytes as 8-bit fields: aligned with bits still pending.
          const int bytes = 1 + static_cast<int>(rng.Uniform(4));
          for (int b = 0; b < bytes; ++b) {
            const uint64_t value = rng.Uniform(256);
            writer.WriteBits(value, 8);
            reference.WriteBits(value, 8);
          }
          break;
        }
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " op " +
                   std::to_string(i) + " kind " + std::to_string(op));
      ASSERT_EQ(writer.bit_count(), reference.bit_count());
      ASSERT_EQ(writer.aligned(), reference.aligned());
      BitWriter copy = writer;
      ASSERT_EQ(copy.Finish(), reference.bytes());
    }
    // Finish empties the writer; it can start a new stream.
    ASSERT_EQ(writer.Finish(), reference.bytes());
    EXPECT_EQ(writer.bit_count(), 0u);
    writer.WriteBits(0x5, 3);
    EXPECT_EQ(writer.Finish(), std::vector<uint8_t>{0xa0});
  }
}

// ----------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (classic check value).
  std::string s = "123456789";
  EXPECT_EQ(Crc32(Slice(s)), 0xCBF43926u);
}

TEST(Crc32Test, DetectsCorruption) {
  std::vector<uint8_t> data(100, 7);
  uint32_t clean = Crc32(Slice(data));
  data[50] ^= 1;
  EXPECT_NE(clean, Crc32(Slice(data)));
}

TEST(Crc32Test, SlicedMatchesBytewiseReference) {
  // The byte-at-a-time CRC over the same reflected polynomial.
  auto reference = [](const uint8_t* data, size_t size, uint32_t seed) {
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < size; ++i) {
      c ^= data[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
    }
    return c ^ 0xffffffffu;
  };
  Random rng(3141);
  std::vector<uint8_t> buffer(8 + 300);
  for (auto& byte : buffer) byte = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(Slice(data, size)), reference(data, size, 0))
          << "offset " << offset << " size " << size;
      // Chaining: Crc32(b, Crc32(a)) == Crc32(a‖b) at every split.
      const size_t split = size / 3;
      ASSERT_EQ(Crc32(Slice(data + split, size - split),
                      Crc32(Slice(data, split))),
                Crc32(Slice(data, size)))
          << "offset " << offset << " size " << size;
    }
  }
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformDoubleInRange) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Random rng(31337);
  double sum = 0, sum_sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

// ------------------------------------------------------------------- Env

TEST(MemEnvTest, WriteReadRoundTrip) {
  auto env = NewMemEnv();
  std::string contents = "hello world";
  ASSERT_TRUE(env->WriteFile("/a/b/file.txt", Slice(contents)).ok());
  auto read = env->ReadFile("/a/b/file.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Slice(*read).ToString(), contents);
  EXPECT_TRUE(env->FileExists("/a/b/file.txt"));
  EXPECT_FALSE(env->FileExists("/a/b/other.txt"));
}

TEST(MemEnvTest, RangeReads) {
  auto env = NewMemEnv();
  std::string contents = "0123456789";
  ASSERT_TRUE(env->WriteFile("/f", Slice(contents)).ok());
  auto range = env->ReadFileRange("/f", 3, 4);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(Slice(*range).ToString(), "3456");
  EXPECT_TRUE(env->ReadFileRange("/f", 8, 5).status().IsOutOfRange());
}

TEST(MemEnvTest, ListAndDelete) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteFile("/dir/x", Slice("1", 1)).ok());
  ASSERT_TRUE(env->WriteFile("/dir/y", Slice("2", 1)).ok());
  ASSERT_TRUE(env->WriteFile("/dir/sub/z", Slice("3", 1)).ok());
  auto names = env->ListDir("/dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 3u);  // x, y, sub
  ASSERT_TRUE(env->DeleteFile("/dir/x").ok());
  EXPECT_FALSE(env->FileExists("/dir/x"));
  ASSERT_TRUE(env->RemoveDirRecursive("/dir").ok());
  EXPECT_FALSE(env->FileExists("/dir/y"));
}

TEST(MemEnvTest, AppendAndRename) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->AppendFile("/log", Slice("ab", 2)).ok());
  ASSERT_TRUE(env->AppendFile("/log", Slice("cd", 2)).ok());
  auto size = env->FileSize("/log");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
  ASSERT_TRUE(env->RenameFile("/log", "/log2").ok());
  EXPECT_FALSE(env->FileExists("/log"));
  EXPECT_TRUE(env->FileExists("/log2"));
}

TEST(PosixEnvTest, RoundTripInTempDir) {
  Env* env = Env::Default();
  std::string dir = ::testing::TempDir() + "/vc_env_test";
  ASSERT_TRUE(env->CreateDirs(dir + "/nested").ok());
  ASSERT_TRUE(env->WriteFile(dir + "/nested/f.bin", Slice("xyz", 3)).ok());
  auto read = env->ReadFile(dir + "/nested/f.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Slice(*read).ToString(), "xyz");
  auto range = env->ReadFileRange(dir + "/nested/f.bin", 1, 1);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)[0], 'y');
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
}

TEST(PosixEnvTest, ListDirOfMissingDirectoryIsNotFound) {
  // A missing directory must be told apart from a failed listing: the
  // catalog assigns version 1 only when a video's directory is not there.
  Env* env = Env::Default();
  std::string dir = ::testing::TempDir() + "/vc_env_list_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  auto missing = env->ListDir(dir + "/absent");
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
  ASSERT_TRUE(env->WriteFile(dir + "/file", Slice("x", 1)).ok());
  EXPECT_TRUE(env->ListDir(dir + "/file").status().IsNotFound());
  auto present = env->ListDir(dir);
  ASSERT_TRUE(present.ok()) << present.status().ToString();
  EXPECT_EQ(*present, std::vector<std::string>{"file"});
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitRefusedAfterShutdown) {
  // Regression: Submit used to enqueue unconditionally, so tasks posted
  // after shutdown were accepted and silently dropped.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.WaitIdle();
  // Every accepted task ran; the refused one did not.
  EXPECT_EQ(counter.load(), 10);
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, HighLaneDrainsBeforeLowLane) {
  // One worker, blocked on a gate while both lanes fill up: on release,
  // every high-priority task must run before any low-priority one, even
  // though the low tasks were submitted first.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (int i = 0; i < 3; ++i) {
    pool.Submit(
        [&order, &mu, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(100 + i);
        },
        TaskPriority::kLow);
  }
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&order, &mu, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.WaitIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 101, 102}));
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 2);
}

// ------------------------------------------------------------- MathUtil

TEST(MathUtilTest, ClampAndAlign) {
  EXPECT_EQ(Clamp(5, 0, 10), 5);
  EXPECT_EQ(Clamp(-1, 0, 10), 0);
  EXPECT_EQ(Clamp(11, 0, 10), 10);
  EXPECT_EQ(AlignUp(17, 16), 32);
  EXPECT_EQ(AlignUp(16, 16), 16);
  EXPECT_EQ(CeilDiv(7, 2), 4);
  EXPECT_EQ(ClampPixel(-5), 0);
  EXPECT_EQ(ClampPixel(300), 255);
  EXPECT_EQ(ClampPixel(128), 128);
}

}  // namespace
}  // namespace vc
