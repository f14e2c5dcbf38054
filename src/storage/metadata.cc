#include "storage/metadata.h"

#include <cstdio>

namespace vc {

namespace {

constexpr uint8_t kFlagStreaming = 0x1;

std::vector<uint8_t> PackVchd(const VideoMetadata& m) {
  std::vector<uint8_t> out;
  auto u16 = [&out](uint16_t v) {
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v & 0xff));
  };
  auto u32 = [&](uint32_t v) {
    u16(static_cast<uint16_t>(v >> 16));
    u16(static_cast<uint16_t>(v & 0xffff));
  };
  u32(m.version);
  u16(m.width);
  u16(m.height);
  u16(m.fps_times_100);
  u16(m.frames_per_segment);
  out.push_back(m.tile_rows);
  out.push_back(m.tile_cols);
  out.push_back(m.streaming ? kFlagStreaming : 0);
  return out;
}

Status UnpackVchd(const Box& box, VideoMetadata* m) {
  if (box.data.size() != 15) return Status::Corruption("vchd size mismatch");
  const uint8_t* p = box.data.data();
  auto u16 = [&p]() {
    uint16_t v = static_cast<uint16_t>((p[0] << 8) | p[1]);
    p += 2;
    return v;
  };
  auto u32 = [&]() {
    uint32_t hi = u16();
    return (hi << 16) | u16();
  };
  m->version = u32();
  m->width = u16();
  m->height = u16();
  m->fps_times_100 = u16();
  m->frames_per_segment = u16();
  m->tile_rows = *p++;
  m->tile_cols = *p++;
  m->streaming = (*p++ & kFlagStreaming) != 0;
  return Status::OK();
}

}  // namespace

std::string VideoMetadata::CellFileName(int segment, int tile,
                                        int quality) const {
  std::string name;
  AppendCellFileName(segment, tile, quality, &name);
  return name;
}

void VideoMetadata::AppendCellFileName(int segment, int tile, int quality,
                                       std::string* out) const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "s%05d_t%03d_q%02d.vcc", segment, tile,
                quality);
  out->append(buffer);
}

uint64_t VideoMetadata::TotalBytes() const {
  uint64_t total = 0;
  for (const CellInfo& cell : cells) total += cell.byte_size;
  return total;
}

uint64_t VideoMetadata::SegmentBytesAtQuality(int segment, int quality) const {
  uint64_t total = 0;
  for (int tile = 0; tile < tile_count(); ++tile) {
    total += cells[CellIndex(segment, tile, quality)].byte_size;
  }
  return total;
}

Status VideoMetadata::Validate() const {
  if (name.empty()) return Status::InvalidArgument("video name empty");
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "video name must be alphanumeric/underscore/dash");
    }
  }
  if (width == 0 || height == 0 || width % 16 != 0 || height % 16 != 0) {
    return Status::InvalidArgument("video dimensions must be multiples of 16");
  }
  if (frames_per_segment == 0) {
    return Status::InvalidArgument("frames_per_segment must be positive");
  }
  if (tile_rows == 0 || tile_cols == 0) {
    return Status::InvalidArgument("tile grid must be at least 1x1");
  }
  if (ladder.empty()) {
    return Status::InvalidArgument("quality ladder empty");
  }
  if (segments.empty()) {
    return Status::InvalidArgument("video has no segments");
  }
  size_t expected =
      static_cast<size_t>(segment_count()) * tile_count() * quality_count();
  if (cells.size() != expected) {
    return Status::InvalidArgument("cell index size mismatch: have " +
                                   std::to_string(cells.size()) + ", want " +
                                   std::to_string(expected));
  }
  uint32_t frame = 0;
  for (const SegmentInfo& s : segments) {
    if (s.start_frame != frame || s.frame_count == 0) {
      return Status::InvalidArgument("segments not contiguous from frame 0");
    }
    frame += s.frame_count;
  }
  return Status::OK();
}

std::vector<uint8_t> VideoMetadata::Serialize() const {
  Box root(kBoxVcmf);
  root.children.push_back(StringToBox(kBoxName, name));
  root.children.push_back(StringToBox(kBoxDref, DataDir()));
  root.children.push_back(Box(kBoxVchd, PackVchd(*this)));
  root.children.push_back(spherical.ToBox());
  root.children.push_back(QualityLadderToBox(ladder));
  root.children.push_back(SegmentIndexToBox(segments));
  root.children.push_back(CellIndexToBox(cells));
  return SerializeBoxes({root});
}

Result<VideoMetadata> VideoMetadata::Parse(Slice data) {
  std::vector<Box> boxes;
  VC_ASSIGN_OR_RETURN(boxes, ParseBoxes(data));
  if (boxes.size() != 1 || boxes[0].type != kBoxVcmf) {
    return Status::Corruption("metadata is not a single vcmf box");
  }
  const Box& root = boxes[0];
  VideoMetadata m;

  const Box* box;
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxName));
  VC_ASSIGN_OR_RETURN(m.name, StringFromBox(*box));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxDref));
  VC_ASSIGN_OR_RETURN(m.data_dir, StringFromBox(*box));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxVchd));
  VC_RETURN_IF_ERROR(UnpackVchd(*box, &m));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxSv3d));
  VC_ASSIGN_OR_RETURN(m.spherical, SphericalMeta::FromBox(*box));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxQlad));
  VC_ASSIGN_OR_RETURN(m.ladder, QualityLadderFromBox(*box));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxSgix));
  VC_ASSIGN_OR_RETURN(m.segments, SegmentIndexFromBox(*box));
  VC_ASSIGN_OR_RETURN(box, root.FindChild(kBoxCidx));
  VC_ASSIGN_OR_RETURN(m.cells, CellIndexFromBox(*box));

  VC_RETURN_IF_ERROR(m.Validate());
  return m;
}

}  // namespace vc
