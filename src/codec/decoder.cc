#include "codec/decoder.h"

#include <cstdlib>

#include "codec/mb_common.h"
#include "codec/motion.h"
#include "common/math_util.h"

namespace vc {

using codec_internal::kMbSize;

Result<std::unique_ptr<Decoder>> Decoder::Create(
    const SequenceHeader& header) {
  std::vector<TileGrid::PixelRect> rects;
  VC_ASSIGN_OR_RETURN(rects, codec_internal::ComputeTileRects(header));
  return std::unique_ptr<Decoder>(new Decoder(header, std::move(rects)));
}

Decoder::Decoder(const SequenceHeader& header,
                 std::vector<TileGrid::PixelRect> tile_rects)
    : header_(header),
      tile_rects_(std::move(tile_rects)),
      recon_(header.width, header.height),
      reference_(header.width, header.height) {}

Result<Frame> Decoder::Decode(Slice frame_payload) {
  std::vector<TileId> all;
  TileGrid grid = header_.tile_grid();
  all.reserve(grid.tile_count());
  for (int i = 0; i < grid.tile_count(); ++i) all.push_back(grid.TileAt(i));
  return DecodeTiles(frame_payload, all);
}

Result<Frame> Decoder::DecodeTiles(Slice frame_payload,
                                   const std::vector<TileId>& tiles) {
  FrameType type;
  VC_ASSIGN_OR_RETURN(type, ParseFrameType(frame_payload));
  int frame_qp;
  VC_ASSIGN_OR_RETURN(frame_qp, ParseFrameQp(frame_payload));
  const double qstep = QStepForQp(frame_qp);
  TileGrid grid = header_.tile_grid();
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  VC_ASSIGN_OR_RETURN(ranges,
                      ParseTileOffsets(frame_payload, grid.tile_count()));

  for (const TileId& tile : tiles) {
    if (tile.row < 0 || tile.row >= grid.rows() || tile.col < 0 ||
        tile.col >= grid.cols()) {
      return Status::InvalidArgument("tile id outside stream grid");
    }
    int index = grid.IndexOf(tile);
    Slice payload =
        frame_payload.Subslice(ranges[index].first, ranges[index].second);
    VC_RETURN_IF_ERROR(
        DecodeTilePayload(payload, tile_rects_[index], type, qstep));
  }
  reference_ = recon_;
  return recon_;
}

Status Decoder::DecodeTilePayload(Slice payload,
                                  const TileGrid::PixelRect& rect,
                                  FrameType type, double qstep) {
  using namespace codec_internal;  // NOLINT

  const MotionBounds luma_bounds =
      header_.motion_constrained_tiles()
          ? BoundsOf(rect)
          : MotionBounds{0, 0, header_.width, header_.height};
  const MotionBounds tile_bounds = BoundsOf(rect);
  const MotionBounds chroma_tile_bounds = ChromaBounds(tile_bounds);

  PlaneView ref_y{reference_.y_plane().data(), reference_.width()};
  PlaneView ref_u{reference_.u_plane().data(), reference_.chroma_width()};
  PlaneView ref_v{reference_.v_plane().data(), reference_.chroma_width()};
  PlaneView rec_y{recon_.y_plane().data(), recon_.width()};
  PlaneView rec_u{recon_.u_plane().data(), recon_.chroma_width()};
  PlaneView rec_v{recon_.v_plane().data(), recon_.chroma_width()};

  BitReader reader(payload);
  uint8_t pred_y[kMbSize * kMbSize];
  uint8_t pred_c[kBlockSize * kBlockSize];
  uint8_t recon_y[kMbSize * kMbSize];
  uint8_t recon_c[kBlockSize * kBlockSize];

  for (int ly = rect.y; ly < rect.y + rect.height; ly += kMbSize) {
    for (int lx = rect.x; lx < rect.x + rect.width; lx += kMbSize) {
      bool use_inter = false;
      MotionVector mv{0, 0};
      IntraMode intra_mode = IntraMode::kDc;

      if (type == FrameType::kInter) {
        VC_RETURN_IF_ERROR(reader.ReadBit(&use_inter));
      }
      if (use_inter) {
        int64_t dx, dy;
        VC_RETURN_IF_ERROR(reader.ReadSE(&dx));
        VC_RETURN_IF_ERROR(reader.ReadSE(&dy));
        mv = MotionVector{static_cast<int>(dx), static_cast<int>(dy)};
        if (lx + mv.dx < luma_bounds.x0 || ly + mv.dy < luma_bounds.y0 ||
            lx + mv.dx + kMbSize > luma_bounds.x1 ||
            ly + mv.dy + kMbSize > luma_bounds.y1) {
          return Status::Corruption("motion vector out of bounds");
        }
      } else {
        uint64_t mode;
        VC_RETURN_IF_ERROR(reader.ReadBits(2, &mode));
        if (mode > 2) return Status::Corruption("unknown intra mode");
        intra_mode = static_cast<IntraMode>(mode);
        IntraNeighbors neighbors = IntraAvailability(lx, ly, tile_bounds);
        if ((intra_mode == IntraMode::kHorizontal && !neighbors.left) ||
            (intra_mode == IntraMode::kVertical && !neighbors.top)) {
          return Status::Corruption("intra mode without neighbor");
        }
      }

      // Luma.
      if (use_inter) {
        CompensateBlock(ref_y, lx, ly, mv, kMbSize, pred_y);
      } else {
        IntraPredict(rec_y, lx, ly, kMbSize, intra_mode, tile_bounds, pred_y);
      }
      VC_RETURN_IF_ERROR(
          DecodeResidual(&reader, pred_y, kMbSize, qstep, recon_y));
      StoreBlock(recon_y, kMbSize, recon_.y_plane().data(), recon_.width(), lx,
                 ly);

      // Chroma.
      const int cx = lx / 2, cy = ly / 2;
      MotionVector cmv = ChromaVector(mv);
      for (int plane = 0; plane < 2; ++plane) {
        PlaneView ref_c = plane == 0 ? ref_u : ref_v;
        PlaneView rec_c = plane == 0 ? rec_u : rec_v;
        if (use_inter) {
          CompensateBlock(ref_c, cx, cy, cmv, kBlockSize, pred_c);
        } else {
          IntraPredict(rec_c, cx, cy, kBlockSize, IntraMode::kDc,
                       chroma_tile_bounds, pred_c);
        }
        VC_RETURN_IF_ERROR(
            DecodeResidual(&reader, pred_c, kBlockSize, qstep, recon_c));
        uint8_t* plane_data = plane == 0 ? recon_.u_plane().data()
                                         : recon_.v_plane().data();
        StoreBlock(recon_c, kBlockSize, plane_data, recon_.chroma_width(), cx,
                   cy);
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Frame>> DecodeVideo(const EncodedVideo& video) {
  std::unique_ptr<Decoder> decoder;
  VC_ASSIGN_OR_RETURN(decoder, Decoder::Create(video.header));
  std::vector<Frame> frames;
  frames.reserve(video.frames.size());
  for (const EncodedFrame& encoded : video.frames) {
    Frame frame;
    VC_ASSIGN_OR_RETURN(frame, decoder->Decode(Slice(encoded.payload)));
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace vc
