#include "codec/bitstream.h"

#include <cstring>

#include "codec/transform.h"

namespace vc {

namespace {

constexpr char kMagic[4] = {'V', 'C', 'C', '2'};

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v & 0xff));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>((v >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>(v & 0xff));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

std::vector<uint8_t> SequenceHeader::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kSerializedSize);
  out.insert(out.end(), kMagic, kMagic + 4);
  PutU16(&out, width);
  PutU16(&out, height);
  PutU16(&out, fps_times_100);
  PutU16(&out, gop_length);
  out.push_back(qp);
  out.push_back(tile_rows);
  out.push_back(tile_cols);
  out.push_back(flags);
  return out;
}

Result<SequenceHeader> SequenceHeader::Parse(Slice data) {
  if (data.size() < kSerializedSize) {
    return Status::Corruption("sequence header truncated");
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad VCC2 magic");
  }
  SequenceHeader header;
  const uint8_t* p = data.data() + 4;
  header.width = GetU16(p);
  header.height = GetU16(p + 2);
  header.fps_times_100 = GetU16(p + 4);
  header.gop_length = GetU16(p + 6);
  header.qp = p[8];
  header.tile_rows = p[9];
  header.tile_cols = p[10];
  header.flags = p[11];
  if (header.width == 0 || header.height == 0 || header.width % 16 != 0 ||
      header.height % 16 != 0) {
    return Status::Corruption("sequence header has invalid dimensions");
  }
  if (header.gop_length == 0 || header.tile_rows == 0 ||
      header.tile_cols == 0 || header.qp > kMaxQp) {
    return Status::Corruption("sequence header has invalid parameters");
  }
  constexpr uint8_t kKnownFlags = SequenceHeader::kFlagMotionConstrainedTiles;
  if ((header.flags & ~kKnownFlags) != 0) {
    return Status::Corruption("sequence header has unknown flags");
  }
  return header;
}

Result<std::vector<std::pair<uint32_t, uint32_t>>> ParseTileOffsets(
    Slice frame_payload, int tile_count) {
  // Frame payload layout: [type:u8][qp:u8][tile_count × offset:u32][data].
  size_t table_end = 2 + static_cast<size_t>(tile_count) * 4;
  if (frame_payload.size() < table_end) {
    return Status::Corruption("frame payload shorter than tile table");
  }
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  ranges.reserve(tile_count);
  uint32_t previous = static_cast<uint32_t>(table_end);
  for (int i = 0; i < tile_count; ++i) {
    uint32_t offset = GetU32(frame_payload.data() + 2 + i * 4);
    uint32_t next =
        i + 1 < tile_count
            ? GetU32(frame_payload.data() + 2 + (i + 1) * 4)
            : static_cast<uint32_t>(frame_payload.size());
    if (offset < previous || next < offset ||
        next > frame_payload.size()) {
      return Status::Corruption("tile offset table inconsistent");
    }
    ranges.emplace_back(offset, next - offset);
    previous = offset;
  }
  return ranges;
}

Result<FrameType> ParseFrameType(Slice frame_payload) {
  if (frame_payload.empty()) {
    return Status::Corruption("empty frame payload");
  }
  uint8_t type = frame_payload[0];
  if (type > 1) return Status::Corruption("unknown frame type");
  return static_cast<FrameType>(type);
}

Result<int> ParseFrameQp(Slice frame_payload) {
  if (frame_payload.size() < 2) {
    return Status::Corruption("frame payload missing qp");
  }
  uint8_t qp = frame_payload[1];
  if (qp > kMaxQp && qp != kPerTileQp) {
    return Status::Corruption("frame qp out of range");
  }
  return static_cast<int>(qp);
}

Result<int> SplitTileQp(Slice* tile_data) {
  if (tile_data->empty()) return Status::Corruption("tile data missing qp");
  uint8_t qp = (*tile_data)[0];
  if (qp > kMaxQp) return Status::Corruption("tile qp out of range");
  *tile_data = tile_data->Subslice(1, tile_data->size() - 1);
  return static_cast<int>(qp);
}

size_t EncodedVideo::size_bytes() const {
  size_t total = SequenceHeader::kSerializedSize;
  for (const auto& frame : frames) total += 4 + frame.payload.size();
  return total;
}

std::vector<uint8_t> EncodedVideo::Serialize() const {
  std::vector<uint8_t> out = header.Serialize();
  out.reserve(size_bytes());
  for (const auto& frame : frames) {
    PutU32(&out, static_cast<uint32_t>(frame.payload.size()));
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  }
  return out;
}

Result<EncodedVideo> EncodedVideo::Parse(Slice data) {
  EncodedVideo video;
  VC_ASSIGN_OR_RETURN(video.header, SequenceHeader::Parse(data));
  size_t pos = SequenceHeader::kSerializedSize;
  while (pos < data.size()) {
    if (pos + 4 > data.size()) {
      return Status::Corruption("truncated frame length prefix");
    }
    uint32_t length = GetU32(data.data() + pos);
    pos += 4;
    if (pos + length > data.size()) {
      return Status::Corruption("truncated frame payload");
    }
    EncodedFrame frame;
    frame.payload.assign(data.data() + pos, data.data() + pos + length);
    FrameType type;
    VC_ASSIGN_OR_RETURN(type, ParseFrameType(Slice(frame.payload)));
    frame.type = type;
    video.frames.push_back(std::move(frame));
    pos += length;
  }
  return video;
}

}  // namespace vc
