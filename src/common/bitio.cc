#include "common/bitio.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vc {

void BitWriter::AlignToByte() {
  const int pad = -acc_bits_ & 7;
  acc_ <<= pad;
  acc_bits_ += pad;
  if (size_ + 4 > buffer_.size()) Grow(4);
  while (acc_bits_ > 0) {
    acc_bits_ -= 8;
    buffer_[size_++] = static_cast<uint8_t>(acc_ >> acc_bits_);
  }
  acc_ = 0;
}

void BitWriter::WriteBytes(Slice bytes) {
  assert(aligned());
  AlignToByte();  // drains the pending whole bytes; no padding when aligned
  if (size_ + bytes.size() > buffer_.size()) Grow(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(buffer_.data() + size_, bytes.data(), bytes.size());
  }
  size_ += bytes.size();
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  buffer_.resize(size_);
  size_ = 0;
  return std::exchange(buffer_, {});
}

void BitWriter::Grow(size_t bytes) {
  buffer_.resize(std::max({size_ + bytes, 2 * buffer_.size(), size_t{64}}));
}

Status BitReader::ReadBitsChecked(int bits, uint64_t* value) {
  if (failed_) return Status::OutOfRange("bit reader in failed state");
  // Hard check, not just an assert: a caller deriving a width from stream
  // data must not wrap the bounds check below in NDEBUG builds.
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

Status BitReader::ReadUEChecked(uint64_t* value) {
  int zeros = 0;
  while (true) {
    uint64_t bit = 0;
    VC_RETURN_IF_ERROR(ReadBitsChecked(1, &bit));
    if (bit) break;
    if (++zeros > 63) {
      return Fail(Status::Corruption("exp-golomb code too long"));
    }
  }
  uint64_t suffix = 0;
  VC_RETURN_IF_ERROR(ReadBitsChecked(zeros, &suffix));
  *value = ((uint64_t{1} << zeros) | suffix) - 1;
  return Status::OK();
}

void BitReader::AlignToByte() {
  bit_pos_ = (bit_pos_ + 7) / 8 * 8;
}

Status BitReader::ReadBytes(size_t count, std::vector<uint8_t>* out) {
  assert(aligned());
  if (failed_) return Status::OutOfRange("bit reader in failed state");
  size_t byte_pos = bit_pos_ / 8;
  if (byte_pos + count > data_.size()) {
    return Fail(Status::OutOfRange("byte stream exhausted"));
  }
  out->assign(data_.data() + byte_pos, data_.data() + byte_pos + count);
  bit_pos_ += count * 8;
  return Status::OK();
}

}  // namespace vc
