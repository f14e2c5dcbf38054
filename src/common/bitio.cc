#include "common/bitio.h"

#include <cassert>

namespace vc {

void BitWriter::WriteBytes(Slice bytes) {
  assert(aligned());
  buffer_.insert(buffer_.end(), bytes.data(), bytes.data() + bytes.size());
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  return std::move(buffer_);
}

Status BitReader::ReadBits(int bits, uint64_t* value) {
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

Status BitReader::ReadBit(bool* bit) {
  uint64_t v = 0;
  VC_RETURN_IF_ERROR(ReadBits(1, &v));
  *bit = v != 0;
  return Status::OK();
}

Status BitReader::ReadUE(uint64_t* value) {
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

Status BitReader::ReadSE(int64_t* value) {
  uint64_t mapped;
  VC_RETURN_IF_ERROR(ReadUE(&mapped));
  if (mapped % 2 == 1) {
    *value = static_cast<int64_t>((mapped + 1) / 2);
  } else {
    *value = -static_cast<int64_t>(mapped / 2);
  }
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
