#include "codec/homomorphic.h"

#include "codec/transform.h"

namespace vc {

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v >> 24));
  out->push_back(static_cast<uint8_t>((v >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>(v & 0xff));
}

}  // namespace

Result<EncodedVideo> ExtractTileStream(const EncodedVideo& tiled,
                                       TileId tile) {
  if (!tiled.header.motion_constrained_tiles()) {
    return Status::NotSupported(
        "tile extraction requires motion-constrained tiles");
  }
  TileGrid grid = tiled.header.tile_grid();
  if (tile.row < 0 || tile.row >= grid.rows() || tile.col < 0 ||
      tile.col >= grid.cols()) {
    return Status::InvalidArgument("tile id outside stream grid");
  }
  TileGrid::PixelRect rect;
  VC_ASSIGN_OR_RETURN(rect, grid.PixelRectOf(tile, tiled.header.width,
                                             tiled.header.height, 16));
  const int index = grid.IndexOf(tile);

  EncodedVideo out;
  out.header = tiled.header;
  out.header.width = static_cast<uint16_t>(rect.width);
  out.header.height = static_cast<uint16_t>(rect.height);
  out.header.tile_rows = 1;
  out.header.tile_cols = 1;
  out.frames.reserve(tiled.frames.size());

  for (const EncodedFrame& frame : tiled.frames) {
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    VC_ASSIGN_OR_RETURN(
        ranges, ParseTileOffsets(Slice(frame.payload), grid.tile_count()));
    Slice tile_bytes =
        Slice(frame.payload).Subslice(ranges[index].first,
                                      ranges[index].second);
    uint8_t qp = frame.payload[1];
    if (qp == kPerTileQp) {
      // A stitched mixed-QP frame: the tile's own QP moves back into the
      // frame header, which restores the stored cell's bytes exactly.
      int tile_qp;
      VC_ASSIGN_OR_RETURN(tile_qp, SplitTileQp(&tile_bytes));
      qp = static_cast<uint8_t>(tile_qp);
      if (out.frames.empty()) out.header.qp = qp;
    }
    EncodedFrame extracted;
    extracted.type = frame.type;
    auto& payload = extracted.payload;
    payload.push_back(frame.payload[0]);  // type
    payload.push_back(qp);
    PutU32(&payload, 2 + 4);  // header + one-entry offset table
    payload.insert(payload.end(), tile_bytes.data(),
                   tile_bytes.data() + tile_bytes.size());
    out.frames.push_back(std::move(extracted));
  }
  return out;
}

Result<EncodedVideo> MergeTileStreams(const std::vector<EncodedVideo>& parts,
                                      int rows, int cols, int width,
                                      int height) {
  TileGrid grid(rows, cols);
  if (parts.size() != static_cast<size_t>(grid.tile_count())) {
    return Status::InvalidArgument("need exactly one part per grid tile");
  }
  const EncodedVideo& first = parts[0];
  for (size_t i = 0; i < parts.size(); ++i) {
    const SequenceHeader& h = parts[i].header;
    if (h.tile_rows != 1 || h.tile_cols != 1) {
      return Status::InvalidArgument("parts must be single-tile streams");
    }
    if (!h.motion_constrained_tiles()) {
      return Status::NotSupported("merging requires motion-constrained parts");
    }
    // Flags must match exactly: the merged header carries one flags byte,
    // and every flag describes how all of its tile payloads were coded.
    if (h.gop_length != first.header.gop_length ||
        h.fps_times_100 != first.header.fps_times_100 ||
        h.flags != first.header.flags ||
        parts[i].frames.size() != first.frames.size()) {
      return Status::InvalidArgument("parts disagree on coding parameters");
    }
    TileGrid::PixelRect rect;
    VC_ASSIGN_OR_RETURN(
        rect, grid.PixelRectOf(grid.TileAt(static_cast<int>(i)), width,
                               height, 16));
    if (rect.width != h.width || rect.height != h.height) {
      return Status::InvalidArgument(
          "part dimensions do not match the grid partition");
    }
  }

  EncodedVideo out;
  out.header = first.header;
  out.header.width = static_cast<uint16_t>(width);
  out.header.height = static_cast<uint16_t>(height);
  out.header.tile_rows = static_cast<uint8_t>(rows);
  out.header.tile_cols = static_cast<uint8_t>(cols);
  out.frames.reserve(first.frames.size());

  std::vector<Slice> tile_bytes(parts.size());
  for (size_t f = 0; f < first.frames.size(); ++f) {
    // Every part must agree on the frame's type. Parts that also agree on
    // its QP byte keep the uniform layout; otherwise each tile carries its
    // own QP.
    uint8_t type = first.frames[f].payload[0];
    uint8_t qp = first.frames[f].payload[1];
    bool uniform = true;
    for (size_t i = 0; i < parts.size(); ++i) {
      const auto& payload = parts[i].frames[f].payload;
      if (payload.size() < 6 || payload[0] != type) {
        return Status::InvalidArgument(
            "parts disagree on frame type at frame " + std::to_string(f));
      }
      uniform = uniform && payload[1] == qp;
      std::vector<std::pair<uint32_t, uint32_t>> ranges;
      VC_ASSIGN_OR_RETURN(ranges, ParseTileOffsets(Slice(payload), 1));
      tile_bytes[i] = Slice(payload).Subslice(ranges[0].first,
                                              ranges[0].second);
    }
    if (!uniform) {
      for (const EncodedVideo& part : parts) {
        if (part.frames[f].payload[1] > kMaxQp) {
          return Status::InvalidArgument(
              "part frame QP out of range at frame " + std::to_string(f));
        }
      }
    }
    const uint32_t qp_bytes = uniform ? 0 : 1;
    EncodedFrame merged;
    merged.type = static_cast<FrameType>(type);
    auto& payload = merged.payload;
    payload.push_back(type);
    payload.push_back(uniform ? qp : kPerTileQp);
    uint32_t offset = 2 + 4 * static_cast<uint32_t>(parts.size());
    for (const Slice& bytes : tile_bytes) {
      PutU32(&payload, offset);
      offset += qp_bytes + static_cast<uint32_t>(bytes.size());
    }
    payload.reserve(offset);
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!uniform) payload.push_back(parts[i].frames[f].payload[1]);
      payload.insert(payload.end(), tile_bytes[i].data(),
                     tile_bytes[i].data() + tile_bytes[i].size());
    }
    out.frames.push_back(std::move(merged));
  }
  return out;
}

Result<EncodedVideo> ConcatenateStreams(
    const std::vector<EncodedVideo>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("nothing to concatenate");
  }
  const SequenceHeader& first = parts[0].header;
  EncodedVideo out;
  out.header = first;
  for (const EncodedVideo& part : parts) {
    const SequenceHeader& h = part.header;
    if (h.width != first.width || h.height != first.height ||
        h.tile_rows != first.tile_rows || h.tile_cols != first.tile_cols ||
        h.flags != first.flags || h.fps_times_100 != first.fps_times_100) {
      return Status::InvalidArgument("streams disagree on coding parameters");
    }
    if (part.frames.empty() || part.frames[0].type != FrameType::kIntra) {
      return Status::InvalidArgument(
          "each part must start with a keyframe to concatenate");
    }
    out.frames.insert(out.frames.end(), part.frames.begin(),
                      part.frames.end());
  }
  return out;
}

}  // namespace vc
