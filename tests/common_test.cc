#include <gtest/gtest.h>

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
