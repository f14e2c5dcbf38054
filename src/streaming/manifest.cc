#include "streaming/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <vector>

namespace vc {

std::string GenerateManifest(const VideoMetadata& metadata) {
  std::ostringstream out;
  out << "VCMPD 1\n";
  out << "name " << metadata.name << "\n";
  out << "version " << metadata.version << "\n";
  out << "size " << metadata.width << " " << metadata.height << "\n";
  out << "fps_x100 " << metadata.fps_times_100 << "\n";
  out << "segment_frames " << metadata.frames_per_segment << "\n";
  out << "tiles " << int{metadata.tile_rows} << " " << int{metadata.tile_cols}
      << "\n";
  out << "stereo " << static_cast<int>(metadata.spherical.stereo) << "\n";
  for (size_t i = 0; i < metadata.ladder.size(); ++i) {
    out << "quality " << i << " " << metadata.ladder[i].name << " "
        << metadata.ladder[i].qp << "\n";
  }
  std::string text = out.str();

  char line[160];
  for (int segment = 0; segment < metadata.segment_count(); ++segment) {
    const SegmentInfo& info = metadata.segments[segment];
    std::snprintf(line, sizeof(line), "segment %d %u %u\n", segment,
                  info.start_frame, info.frame_count);
    text.append(line);
    for (int tile = 0; tile < metadata.tile_count(); ++tile) {
      for (int quality = 0; quality < metadata.quality_count(); ++quality) {
        const CellInfo& cell =
            metadata.cells[metadata.CellIndex(segment, tile, quality)];
        std::snprintf(line, sizeof(line), "cell %d %d %d %" PRIu64 " %u\n",
                      segment, tile, quality, cell.byte_size, cell.crc32);
        text.append(line);
      }
    }
  }
  return text;
}

namespace {

Status Malformed(size_t line_number, const std::string& what) {
  return Status::Corruption("manifest line " + std::to_string(line_number) +
                            ": " + what);
}

}  // namespace

Result<VideoMetadata> ParseManifest(Slice text) {
  std::istringstream in(text.ToString());
  std::string line;
  size_t line_number = 0;
  VideoMetadata metadata;
  bool saw_magic = false;
  std::vector<QualityLevel> ladder;
  std::vector<SegmentInfo> segments;
  struct CellEntry {
    int segment, tile, quality;
    CellInfo info;
  };
  std::vector<CellEntry> cell_entries;

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (!saw_magic) {
      int version = 0;
      if (keyword != "VCMPD" || !(fields >> version) || version != 1) {
        return Malformed(line_number, "expected 'VCMPD 1' header");
      }
      saw_magic = true;
      continue;
    }
    if (keyword == "name") {
      fields >> metadata.name;
    } else if (keyword == "version") {
      fields >> metadata.version;
    } else if (keyword == "size") {
      int w = 0, h = 0;
      fields >> w >> h;
      metadata.width = static_cast<uint16_t>(w);
      metadata.height = static_cast<uint16_t>(h);
    } else if (keyword == "fps_x100") {
      int fps = 0;
      fields >> fps;
      metadata.fps_times_100 = static_cast<uint16_t>(fps);
    } else if (keyword == "segment_frames") {
      int frames = 0;
      fields >> frames;
      metadata.frames_per_segment = static_cast<uint16_t>(frames);
    } else if (keyword == "tiles") {
      int rows = 0, cols = 0;
      fields >> rows >> cols;
      metadata.tile_rows = static_cast<uint8_t>(rows);
      metadata.tile_cols = static_cast<uint8_t>(cols);
    } else if (keyword == "stereo") {
      int stereo = 0;
      fields >> stereo;
      if (stereo < 0 || stereo > 1) {
        return Malformed(line_number, "unknown stereo mode");
      }
      metadata.spherical.stereo = static_cast<StereoMode>(stereo);
    } else if (keyword == "quality") {
      size_t index;
      QualityLevel level;
      fields >> index >> level.name >> level.qp;
      if (fields.fail() || index != ladder.size()) {
        return Malformed(line_number, "quality rungs must be dense");
      }
      ladder.push_back(std::move(level));
    } else if (keyword == "segment") {
      size_t index;
      SegmentInfo segment;
      fields >> index >> segment.start_frame >> segment.frame_count;
      if (fields.fail() || index != segments.size()) {
        return Malformed(line_number, "segments must be dense");
      }
      segments.push_back(segment);
    } else if (keyword == "cell") {
      CellEntry entry;
      fields >> entry.segment >> entry.tile >> entry.quality >>
          entry.info.byte_size >> entry.info.crc32;
      if (fields.fail()) return Malformed(line_number, "bad cell entry");
      cell_entries.push_back(entry);
    } else {
      return Malformed(line_number, "unknown keyword '" + keyword + "'");
    }
    if (fields.fail()) return Malformed(line_number, "bad field values");
  }
  if (!saw_magic) return Status::Corruption("manifest missing VCMPD header");

  metadata.ladder = std::move(ladder);
  metadata.segments = std::move(segments);
  size_t expected = static_cast<size_t>(metadata.segment_count()) *
                    metadata.tile_count() * metadata.quality_count();
  if (cell_entries.size() != expected) {
    return Status::Corruption("manifest cell count mismatch");
  }
  metadata.cells.assign(expected, CellInfo{});
  std::vector<bool> seen(expected, false);
  for (const CellEntry& entry : cell_entries) {
    if (entry.segment < 0 || entry.segment >= metadata.segment_count() ||
        entry.tile < 0 || entry.tile >= metadata.tile_count() ||
        entry.quality < 0 || entry.quality >= metadata.quality_count()) {
      return Status::Corruption("manifest cell coordinates out of range");
    }
    size_t index =
        metadata.CellIndex(entry.segment, entry.tile, entry.quality);
    if (seen[index]) return Status::Corruption("duplicate manifest cell");
    seen[index] = true;
    metadata.cells[index] = entry.info;
  }
  VC_RETURN_IF_ERROR(metadata.Validate());
  return metadata;
}

}  // namespace vc
