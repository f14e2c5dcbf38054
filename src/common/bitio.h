#ifndef VC_COMMON_BITIO_H_
#define VC_COMMON_BITIO_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace vc {

/// \brief MSB-first bit writer used by the codec entropy layer and the
/// container format.
///
/// Supports fixed-width fields, unsigned/signed Exp-Golomb codes (as in
/// H.264/HEVC), and byte alignment. The writer owns its output buffer.
///
/// Pending bits live in a 64-bit accumulator. A write of at most 32 bits
/// shifts in whole, which leaves up to 63 pending bits; whenever 32 or more
/// are pending, the oldest 32 go out as one big-endian 4-byte store, so
/// between calls 0–31 bits are pending (not necessarily a byte's worth or
/// less). `AlignToByte`, `WriteBytes` and `Finish` drain the pending whole
/// bytes. The output vector is sized ahead of the write position, so a
/// store is a bounds check and a `memcpy`. The hot methods are
/// header-inline because the entropy layer calls them on the order of 10⁵
/// times per encoded segment (at most 3 rungs × 15 frames × 128 macroblocks
/// × 6 blocks = 34,560 level blocks).
class BitWriter {
 public:
  BitWriter() = default;

  /// A writer whose buffer holds `reserve_bytes` before it first grows.
  explicit BitWriter(size_t reserve_bytes) : buffer_(reserve_bytes) {}

  /// Appends the low `bits` bits of `value`, MSB first. `bits` in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits < 64) {
      assert((bits == 0 && value == 0) || (value >> bits) == 0);
    }
    if (bits > 32) {
      // Split so that at most 31 pending plus 32 new bits share the
      // accumulator.
      WriteBits(value >> 32, bits - 32);
      value &= 0xffffffffu;
      bits = 32;
    }
    acc_ = (acc_ << bits) | value;
    acc_bits_ += bits;
    if (acc_bits_ >= 32) {
      acc_bits_ -= 32;
      StoreWord(static_cast<uint32_t>(acc_ >> acc_bits_));
    }
  }

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends an order-0 unsigned Exp-Golomb code for `value`.
  void WriteUE(uint64_t value) {
    // Exp-Golomb: value+1 has N significant bits; the code is N-1 zeros then
    // those N bits — i.e. value+1 written in a 2N-1 bit field.
    uint64_t v = value + 1;
    int bits = 64 - std::countl_zero(v);
    if (bits <= 32) {
      WriteBits(v, 2 * bits - 1);
    } else {
      WriteBits(0, bits - 1);
      WriteBits(v, bits);
    }
  }

  /// Appends a signed Exp-Golomb code (0, 1, -1, 2, -2, ... mapping).
  void WriteSE(int64_t value) { WriteUE(UEFromSigned(value)); }

  /// Maps a signed value to the unsigned Exp-Golomb value WriteSE codes it
  /// as (0, 1, -1, 2, -2, ... order); the inverse of
  /// BitReader::SignedFromUE.
  static uint64_t UEFromSigned(int64_t value) {
    return value > 0 ? static_cast<uint64_t>(value) * 2 - 1
                     : static_cast<uint64_t>(-value) * 2;
  }

  /// Pads with zero bits to the next byte boundary and drains the pending
  /// bytes.
  void AlignToByte();

  /// Appends raw bytes; requires byte alignment.
  void WriteBytes(Slice bytes);

  /// Number of bits written so far.
  size_t bit_count() const { return size_ * 8 + acc_bits_; }

  /// Whether the stream is at a byte boundary.
  bool aligned() const { return acc_bits_ % 8 == 0; }

  /// Finalizes (byte-aligns) and returns the encoded bytes. The writer is
  /// empty afterwards.
  std::vector<uint8_t> Finish();

 private:
  /// Appends `word` as 4 big-endian bytes.
  void StoreWord(uint32_t word) {
    if (size_ + 4 > buffer_.size()) Grow(4);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(buffer_.data() + size_, &word, sizeof(word));
    size_ += 4;
  }

  /// Resizes the buffer so that at least `bytes` more fit past `size_`.
  void Grow(size_t bytes);

  std::vector<uint8_t> buffer_;  // bytes [0, size_) are written
  size_t size_ = 0;
  uint64_t acc_ = 0;  // pending bits in the low `acc_bits_` positions
  int acc_bits_ = 0;  // in [0, 31] between public calls
};

/// \brief MSB-first bit reader matching BitWriter.
///
/// All read methods return Status-checked results: reading past the end of
/// the underlying slice yields `OutOfRange` without UB, which the codec
/// surfaces as `Corruption`. Errors are *sticky*: once any read fails — past
/// the end or on a malformed code — every subsequent read fails too, so a
/// caller that checks status only at a coarser granularity can never consume
/// phantom data from a truncated stream.
///
/// The hot reads are header-inline and work on a 64-bit window: while at
/// least 8 bytes remain from the current byte, those bytes are loaded
/// big-endian and shifted left by the bit offset, which leaves at least
/// `kWindowBits` valid bits at the top. A field or Exp-Golomb code that fits
/// in them decodes with one count-leading-zeros and one shift. Everything
/// else — the last 7 bytes of the slice, longer codes, an out-of-range bit
/// count, a failed reader — takes the checked bit loop in bitio.cc, which is
/// the only code that produces errors. Both paths return the same values.
class BitReader {
 public:
  explicit BitReader(Slice data) : data_(data) {}

  /// Reads `bits` bits (MSB-first) into `*value`. `bits` in [0, 64].
  Status ReadBits(int bits, uint64_t* value) {
    uint64_t window;
    if (bits >= 1 && bits <= kWindowBits && Window(&window)) {
      *value = window >> (64 - bits);
      bit_pos_ += static_cast<size_t>(bits);
      return Status::OK();
    }
    return ReadBitsChecked(bits, value);
  }

  /// Reads a single bit.
  Status ReadBit(bool* bit) {
    uint64_t v = 0;
    VC_RETURN_IF_ERROR(ReadBits(1, &v));
    *bit = v != 0;
    return Status::OK();
  }

  /// Reads an order-0 unsigned Exp-Golomb code.
  Status ReadUE(uint64_t* value) {
    uint64_t window;
    if (Window(&window)) {
      const int zeros = std::countl_zero(window);
      if (zeros <= kMaxWindowZeros) {
        const int length = 2 * zeros + 1;
        *value = (window >> (64 - length)) - 1;
        bit_pos_ += static_cast<size_t>(length);
        return Status::OK();
      }
    }
    return ReadUEChecked(value);
  }

  /// Reads a signed Exp-Golomb code.
  Status ReadSE(int64_t* value) {
    uint64_t mapped;
    VC_RETURN_IF_ERROR(ReadUE(&mapped));
    *value = SignedFromUE(mapped);
    return Status::OK();
  }

  /// Reads two consecutive unsigned Exp-Golomb codes from one window. Returns
  /// false and consumes nothing when the pair does not fit wholly inside a
  /// full window (or the reader has failed); the caller then makes two
  /// ReadUE calls, which yield the same values or the error.
  bool ReadUEPair(uint64_t* first, uint64_t* second) {
    uint64_t window;
    if (!Window(&window)) return false;
    const int zeros1 = std::countl_zero(window);
    if (zeros1 > kMaxWindowZeros) return false;
    const int length1 = 2 * zeros1 + 1;
    const uint64_t rest = window << length1;
    const int length2 = 2 * std::countl_zero(rest) + 1;
    if (length1 + length2 > kWindowBits) return false;
    *first = (window >> (64 - length1)) - 1;
    *second = (rest >> (64 - length2)) - 1;
    bit_pos_ += static_cast<size_t>(length1 + length2);
    return true;
  }

  /// Maps an unsigned Exp-Golomb value to its signed value (0, 1, -1, 2, -2,
  /// ... order), as ReadSE does.
  static int64_t SignedFromUE(uint64_t mapped) {
    return mapped % 2 == 1 ? static_cast<int64_t>((mapped + 1) / 2)
                           : -static_cast<int64_t>(mapped / 2);
  }

  /// Skips forward to the next byte boundary.
  void AlignToByte();

  /// Reads `count` raw bytes; requires byte alignment.
  Status ReadBytes(size_t count, std::vector<uint8_t>* out);

  /// Bits consumed so far.
  size_t bit_position() const { return bit_pos_; }

  /// Bits remaining.
  size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

  bool aligned() const { return bit_pos_ % 8 == 0; }

  /// Whether a previous read failed (every further read will fail too).
  bool failed() const { return failed_; }

 private:
  /// Valid bits a window always holds: 64 minus the largest bit offset.
  static constexpr int kWindowBits = 57;
  /// Longest Exp-Golomb prefix whose whole code (2 * zeros + 1 bits) fits.
  static constexpr int kMaxWindowZeros = (kWindowBits - 1) / 2;

  /// Loads the 64 bits starting at the current byte, MSB-first, shifted so
  /// the next unread bit is the top bit. False when fewer than 8 bytes remain
  /// or the reader has failed.
  bool Window(uint64_t* window) const {
    const size_t byte = bit_pos_ / 8;
    if (failed_ || byte + 8 > data_.size()) return false;
    uint64_t word;
    std::memcpy(&word, data_.data() + byte, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    *window = word << (bit_pos_ % 8);
    return true;
  }

  // The checked bit-at-a-time paths: end of stream, long codes, bad counts
  // and failed readers.
  Status ReadBitsChecked(int bits, uint64_t* value);
  Status ReadUEChecked(uint64_t* value);

  Status Fail(Status status) {
    failed_ = true;
    return status;
  }

  Slice data_;
  size_t bit_pos_ = 0;
  bool failed_ = false;
};

}  // namespace vc

#endif  // VC_COMMON_BITIO_H_
