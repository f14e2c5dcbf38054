#ifndef VC_COMMON_BITIO_H_
#define VC_COMMON_BITIO_H_

#include <bit>
#include <cassert>
#include <cstdint>
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
/// Pending bits live in a 64-bit accumulator and drain to the byte buffer in
/// whole bytes; the hot methods are header-inline because the entropy layer
/// calls them on the order of 10⁸ times per encoded segment.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value`, MSB first. `bits` in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits < 64) {
      assert((bits == 0 && value == 0) || (value >> bits) == 0);
    }
    if (bits > 56) {
      // Split so the accumulator shift below stays < 64 even with up to 7
      // pending bits.
      WriteBits(value >> 32, bits - 32);
      value &= 0xffffffffu;
      bits = 32;
    }
    acc_ = (acc_ << bits) | value;
    acc_bits_ += bits;
    while (acc_bits_ >= 8) {
      acc_bits_ -= 8;
      buffer_.push_back(static_cast<uint8_t>(acc_ >> acc_bits_));
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
  void WriteSE(int64_t value) {
    uint64_t mapped = value > 0 ? static_cast<uint64_t>(value) * 2 - 1
                                : static_cast<uint64_t>(-value) * 2;
    WriteUE(mapped);
  }

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte() {
    if (acc_bits_ > 0) {
      buffer_.push_back(static_cast<uint8_t>(acc_ << (8 - acc_bits_)));
      acc_bits_ = 0;
    }
    acc_ = 0;
  }

  /// Appends raw bytes; requires byte alignment.
  void WriteBytes(Slice bytes);

  /// Number of bits written so far.
  size_t bit_count() const { return buffer_.size() * 8 + acc_bits_; }

  /// Whether the stream is at a byte boundary.
  bool aligned() const { return acc_bits_ == 0; }

  /// Finalizes (byte-aligns) and returns the encoded bytes.
  std::vector<uint8_t> Finish();

  /// Read-only view of the bytes written so far (call after AlignToByte()).
  const std::vector<uint8_t>& buffer() const { return buffer_; }

 private:
  std::vector<uint8_t> buffer_;
  uint64_t acc_ = 0;  // pending bits in the low `acc_bits_` positions
  int acc_bits_ = 0;  // in [0, 7] between public calls
};

/// \brief MSB-first bit reader matching BitWriter.
///
/// All read methods return Status-checked results: reading past the end of
/// the underlying slice yields `OutOfRange` without UB, which the codec
/// surfaces as `Corruption`. Errors are *sticky*: once any read fails — past
/// the end or on a malformed code — every subsequent read fails too, so a
/// caller that checks status only at a coarser granularity can never consume
/// phantom data from a truncated stream.
class BitReader {
 public:
  explicit BitReader(Slice data) : data_(data) {}

  /// Reads `bits` bits (MSB-first) into `*value`. `bits` in [0, 64].
  Status ReadBits(int bits, uint64_t* value);

  /// Reads a single bit.
  Status ReadBit(bool* bit);

  /// Reads an order-0 unsigned Exp-Golomb code.
  Status ReadUE(uint64_t* value);

  /// Reads a signed Exp-Golomb code.
  Status ReadSE(int64_t* value);

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
