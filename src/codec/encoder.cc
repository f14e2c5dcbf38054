#include "codec/encoder.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "codec/mb_common.h"
#include "obs/metrics.h"

namespace vc {

using codec_internal::kMbSize;

namespace {

/// A hinted inter block whose seeded SAD is at most this is accepted without
/// refining further or re-running the intra estimate: the prediction is
/// already near-perfect, so neither the vector nor the mode decision can
/// plausibly improve. Deliberately tight (mean absolute difference ≤ 2 per
/// luma pixel): a laxer, quantizer-scaled threshold was measured to skip
/// refines that still improve the coarse rungs by several tenths of a dB.
constexpr uint32_t kHintAcceptSad = 2u * kMbSize * kMbSize;

/// Largest |mv| component the motion search considers, in luma pixels.
constexpr int kMotionRange = 16;

bool HintsCompatible(const MotionHints* hints, const EncoderOptions& options) {
  return hints != nullptr && hints->width == options.width &&
         hints->height == options.height &&
         hints->gop_length == options.gop_length;
}

}  // namespace

Status EncoderOptions::Validate() const {
  if (width <= 0 || height <= 0 || width % kMbSize != 0 ||
      height % kMbSize != 0 || width > 65535 || height > 65535) {
    return Status::InvalidArgument(
        "frame dimensions must be positive multiples of 16 and < 64Ki");
  }
  if (fps <= 0 || fps > 600) {
    return Status::InvalidArgument("fps must be in (0, 600]");
  }
  if (gop_length <= 0 || gop_length > 65535) {
    return Status::InvalidArgument("gop_length must be in [1, 65535]");
  }
  if (qp < 0 || qp > kMaxQp) {
    return Status::InvalidArgument("qp must be in [0, 51]");
  }
  if (tile_rows <= 0 || tile_cols <= 0 || tile_rows > 255 || tile_cols > 255) {
    return Status::InvalidArgument("tile grid must be in [1, 255] per axis");
  }
  return Status::OK();
}

SequenceHeader EncoderOptions::ToHeader() const {
  SequenceHeader header;
  header.width = static_cast<uint16_t>(width);
  header.height = static_cast<uint16_t>(height);
  header.fps_times_100 = static_cast<uint16_t>(std::lround(fps * 100.0));
  header.gop_length = static_cast<uint16_t>(gop_length);
  header.qp = static_cast<uint8_t>(qp);
  header.tile_rows = static_cast<uint8_t>(tile_rows);
  header.tile_cols = static_cast<uint8_t>(tile_cols);
  header.flags = motion_constrained_tiles
                     ? SequenceHeader::kFlagMotionConstrainedTiles
                     : 0;
  return header;
}

Result<std::unique_ptr<Encoder>> Encoder::Create(
    const EncoderOptions& options) {
  VC_RETURN_IF_ERROR(options.Validate());
  std::vector<TileGrid::PixelRect> rects;
  VC_ASSIGN_OR_RETURN(rects,
                      codec_internal::ComputeTileRects(options.ToHeader()));
  if (options.reuse_hints != nullptr &&
      !HintsCompatible(options.reuse_hints, options)) {
    static Counter* rejects =
        MetricRegistry::Global().GetCounter("codec.hint_geometry_rejects");
    rejects->Add(1);
  }
  return std::unique_ptr<Encoder>(new Encoder(options, std::move(rects)));
}

Encoder::Encoder(const EncoderOptions& options,
                 std::vector<TileGrid::PixelRect> tile_rects)
    : options_(options),
      tile_rects_(std::move(tile_rects)),
      tile_offsets_(tile_rects_.size()),
      reuse_ok_(HintsCompatible(options.reuse_hints, options)),
      recon_(options.width, options.height),
      reference_(options.width, options.height) {}

Result<EncodedFrame> Encoder::Encode(const Frame& frame) {
  if (frame.width() != options_.width || frame.height() != options_.height) {
    return Status::InvalidArgument("frame size does not match encoder");
  }
  FrameType type = FrameType::kInter;
  if (frame_index_ % options_.gop_length == 0 || force_keyframe_) {
    type = FrameType::kIntra;
    force_keyframe_ = false;
  }
  const double qstep = QStepForQp(options_.qp);

  // The previous frame's reconstruction becomes the reference by swapping
  // buffers: every tile rect is fully re-encoded below, so recon_ is
  // completely overwritten and a deep copy per frame would be pure waste.
  std::swap(reference_, recon_);

  const int mb_count =
      (options_.width / kMbSize) * (options_.height / kMbSize);
  BlockHint* capture_row = nullptr;
  if (options_.capture_hints != nullptr) {
    MotionHints* hints = options_.capture_hints;
    if (frame_index_ == 0) {
      hints->Clear();
      hints->width = options_.width;
      hints->height = options_.height;
      hints->gop_length = options_.gop_length;
    }
    hints->frames.emplace_back(mb_count);
    capture_row = hints->frames.back().data();
  }
  const BlockHint* reuse_row = nullptr;
  if (reuse_ok_) {
    const auto& hint_frames = options_.reuse_hints->frames;
    if (static_cast<size_t>(frame_index_) < hint_frames.size() &&
        hint_frames[frame_index_].size() == static_cast<size_t>(mb_count)) {
      reuse_row = hint_frames[frame_index_].data();
    }
  }
  frame_stats_ = AnalysisStats{};
  const uint64_t sad_evals_before = scratch_.sad_evals;

  // One writer builds the payload [type:u8][qp:u8][tile offsets:u32 × T]
  // [tile data]: the offset table is written as zeros and filled in once
  // every tile, byte-aligned, has its start. Reserving a little more than
  // the previous payload makes regrowth rare.
  const size_t tile_count = tile_rects_.size();
  BitWriter writer(last_payload_bytes_ + last_payload_bytes_ / 4);
  writer.WriteBits(static_cast<uint64_t>(type), 8);
  writer.WriteBits(static_cast<uint64_t>(options_.qp), 8);
  for (size_t i = 0; i < tile_count; ++i) writer.WriteBits(0, 32);
  for (size_t i = 0; i < tile_count; ++i) {
    tile_offsets_[i] = static_cast<uint32_t>(writer.bit_count() / 8);
    EncodeTile(frame, tile_rects_[i], type, qstep, reuse_row, capture_row,
               &writer);
    writer.AlignToByte();
  }

  {
    static Counter* sad_evals =
        MetricRegistry::Global().GetCounter("codec.sad_evals");
    static Counter* full_searches =
        MetricRegistry::Global().GetCounter("codec.search_full");
    static Counter* hinted_searches =
        MetricRegistry::Global().GetCounter("codec.search_hinted");
    static Counter* hints_accepted =
        MetricRegistry::Global().GetCounter("codec.hints_accepted");
    sad_evals->Add(scratch_.sad_evals - sad_evals_before);
    if (frame_stats_.full_searches > 0) {
      full_searches->Add(frame_stats_.full_searches);
    }
    if (frame_stats_.hinted_searches > 0) {
      hinted_searches->Add(frame_stats_.hinted_searches);
    }
    if (frame_stats_.hints_accepted > 0) {
      hints_accepted->Add(frame_stats_.hints_accepted);
    }
  }

  EncodedFrame encoded;
  encoded.type = type;
  encoded.payload = writer.Finish();
  uint8_t* table = encoded.payload.data() + 2;
  for (size_t i = 0; i < tile_count; ++i) {
    const uint32_t offset = tile_offsets_[i];
    table[4 * i] = static_cast<uint8_t>(offset >> 24);
    table[4 * i + 1] = static_cast<uint8_t>((offset >> 16) & 0xff);
    table[4 * i + 2] = static_cast<uint8_t>((offset >> 8) & 0xff);
    table[4 * i + 3] = static_cast<uint8_t>(offset & 0xff);
  }
  last_payload_bytes_ = encoded.payload.size();

  ++frame_index_;
  return encoded;
}

void Encoder::EncodeTile(const Frame& frame, const TileGrid::PixelRect& rect,
                         FrameType type, double qstep,
                         const BlockHint* reuse_row, BlockHint* capture_row,
                         BitWriter* writer) {
  using namespace codec_internal;  // NOLINT

  const MotionBounds luma_bounds =
      options_.motion_constrained_tiles
          ? BoundsOf(rect)
          : MotionBounds{0, 0, options_.width, options_.height};
  const MotionBounds tile_bounds = BoundsOf(rect);
  const MotionBounds chroma_tile_bounds = ChromaBounds(tile_bounds);

  PlaneView cur_y{frame.y_plane().data(), frame.width()};
  PlaneView cur_u{frame.u_plane().data(), frame.chroma_width()};
  PlaneView cur_v{frame.v_plane().data(), frame.chroma_width()};
  PlaneView ref_y{reference_.y_plane().data(), reference_.width()};
  PlaneView ref_u{reference_.u_plane().data(), reference_.chroma_width()};
  PlaneView ref_v{reference_.v_plane().data(), reference_.chroma_width()};
  PlaneView rec_y{recon_.y_plane().data(), recon_.width()};
  PlaneView rec_u{recon_.u_plane().data(), recon_.chroma_width()};
  PlaneView rec_v{recon_.v_plane().data(), recon_.chroma_width()};

  // Lagrangian weight for motion-vector rate in the mode decision.
  const double lambda = qstep;

  const int mb_cols = options_.width / kMbSize;

  uint8_t pred_y[kMbSize * kMbSize];
  uint8_t pred_c[kBlockSize * kBlockSize];
  uint8_t recon_y[kMbSize * kMbSize];
  uint8_t recon_c[kBlockSize * kBlockSize];
  const PlaneView pred_view{pred_y, kMbSize};

  // SAD of the current source block against the prediction scratch buffer.
  auto pred_sad = [&](int lx, int ly) {
    ++scratch_.sad_evals;
    return BlockSad(cur_y, lx, ly, pred_view, 0, 0, kMbSize);
  };

  for (int ly = rect.y; ly < rect.y + rect.height; ly += kMbSize) {
    for (int lx = rect.x; lx < rect.x + rect.width; lx += kMbSize) {
      const int mb_index = (ly / kMbSize) * mb_cols + (lx / kMbSize);
      const BlockHint* hint =
          reuse_row != nullptr ? &reuse_row[mb_index] : nullptr;

      // --- Mode decision ------------------------------------------------
      bool use_inter = false;
      MotionVector mv{0, 0};
      IntraMode intra_mode = IntraMode::kDc;
      bool intra_mode_known = false;
      uint32_t best_inter_sad = 0;
      if (type == FrameType::kInter) {
        if (hint != nullptr && !hint->use_inter) {
          // The reference rung chose intra here. The mode decision is
          // driven by content, not quantization, so reuse it outright.
          intra_mode = hint->intra_mode;
          intra_mode_known = true;
          ++frame_stats_.hinted_searches;
          ++frame_stats_.hints_accepted;
        } else {
          uint32_t inter_sad = 0;
          if (hint != nullptr) {
            // The reference rung's full search achieved `hint->sad`; once the
            // seeded SAD is within a quantization-noise margin of that, more
            // refinement only chases reference-reconstruction noise. The
            // strict accept below still uses the tight absolute threshold, so
            // a merely-as-good-as-reference vector still faces the intra
            // cross-check.
            uint32_t good_enough = std::max(
                kHintAcceptSad,
                hint->sad + hint->sad / 16 + kMbSize * kMbSize / 4u);
            mv = RefineMotion(cur_y, ref_y, lx, ly, kMbSize,
                              kMotionRange, luma_bounds, hint->mv,
                              good_enough, &inter_sad, &scratch_);
            ++frame_stats_.hinted_searches;
          } else {
            mv = SearchMotion(cur_y, ref_y, lx, ly, kMbSize,
                              kMotionRange, luma_bounds, &inter_sad,
                              &scratch_);
            ++frame_stats_.full_searches;
          }
          best_inter_sad = inter_sad;
          if (hint != nullptr && inter_sad <= kHintAcceptSad) {
            // The hinted prediction is already near-perfect; skip the
            // intra cross-check.
            use_inter = true;
          } else {
            double inter_cost =
                inter_sad +
                lambda * (2.0 * (std::abs(mv.dx) + std::abs(mv.dy)) + 2.0);
            // Cheap intra estimate: DC prediction SAD plus a fixed cost.
            IntraPredict(rec_y, lx, ly, kMbSize, IntraMode::kDc, tile_bounds,
                         pred_y);
            double intra_cost = pred_sad(lx, ly) + lambda * 3.0;
            use_inter = inter_cost <= intra_cost;
          }
          if (hint != nullptr && use_inter) ++frame_stats_.hints_accepted;
        }
      }
      // Keyframes deliberately ignore hints: the best intra mode depends on
      // the reconstructed neighbors, which are sharper at the reference
      // rung's finer quantizer, and a mode mismatch on a keyframe propagates
      // through the whole GOP (measured ~0.1 dB at qp 28). The analysis is a
      // handful of prediction SADs — noise next to a motion search — so
      // there is nothing worth reusing here.

      if (!use_inter && !intra_mode_known) {
        // Pick the best available intra mode by prediction SAD.
        IntraNeighbors neighbors = IntraAvailability(lx, ly, tile_bounds);
        double best_cost = -1.0;
        for (IntraMode mode :
             {IntraMode::kDc, IntraMode::kHorizontal, IntraMode::kVertical}) {
          if (mode == IntraMode::kHorizontal && !neighbors.left) continue;
          if (mode == IntraMode::kVertical && !neighbors.top) continue;
          IntraPredict(rec_y, lx, ly, kMbSize, mode, tile_bounds, pred_y);
          uint32_t sad = pred_sad(lx, ly);
          if (best_cost < 0 || sad < best_cost) {
            best_cost = sad;
            intra_mode = mode;
          }
        }
      }

      if (capture_row != nullptr) {
        capture_row[mb_index] =
            BlockHint{use_inter, intra_mode, mv, best_inter_sad};
      }

      // --- Syntax -------------------------------------------------------
      if (type == FrameType::kInter) {
        writer->WriteBit(use_inter);
      }
      if (use_inter) {
        writer->WriteSE(mv.dx);
        writer->WriteSE(mv.dy);
      } else {
        writer->WriteBits(static_cast<uint64_t>(intra_mode), 2);
      }

      // --- Luma ----------------------------------------------------------
      if (use_inter) {
        CompensateBlock(ref_y, lx, ly, mv, kMbSize, pred_y);
      } else {
        IntraPredict(rec_y, lx, ly, kMbSize, intra_mode, tile_bounds, pred_y);
      }
      EncodeResidual(cur_y.data + static_cast<size_t>(ly) * cur_y.stride + lx,
                     cur_y.stride, pred_y, kMbSize, qstep, writer, recon_y);
      StoreBlock(recon_y, kMbSize, recon_.y_plane().data(), recon_.width(), lx,
                 ly);

      // --- Chroma ---------------------------------------------------------
      const int cx = lx / 2, cy = ly / 2;
      MotionVector cmv = ChromaVector(mv);
      for (int plane = 0; plane < 2; ++plane) {
        PlaneView cur_c = plane == 0 ? cur_u : cur_v;
        PlaneView ref_c = plane == 0 ? ref_u : ref_v;
        PlaneView rec_c = plane == 0 ? rec_u : rec_v;
        if (use_inter) {
          CompensateBlock(ref_c, cx, cy, cmv, kBlockSize, pred_c);
        } else {
          // Chroma always uses DC intra: cheap and close to optimal for
          // 4:2:0 chroma statistics.
          IntraPredict(rec_c, cx, cy, kBlockSize, IntraMode::kDc,
                       chroma_tile_bounds, pred_c);
        }
        EncodeResidual(
            cur_c.data + static_cast<size_t>(cy) * cur_c.stride + cx,
            cur_c.stride, pred_c, kBlockSize, qstep, writer, recon_c);
        uint8_t* plane_data = plane == 0 ? recon_.u_plane().data()
                                         : recon_.v_plane().data();
        StoreBlock(recon_c, kBlockSize, plane_data, recon_.chroma_width(), cx,
                   cy);
      }
    }
  }
}

Result<EncodedVideo> EncodeVideo(const std::vector<Frame>& frames,
                                 const EncoderOptions& options) {
  std::unique_ptr<Encoder> encoder;
  VC_ASSIGN_OR_RETURN(encoder, Encoder::Create(options));
  EncodedVideo video;
  video.header = encoder->header();
  video.frames.reserve(frames.size());
  for (const Frame& frame : frames) {
    EncodedFrame encoded;
    VC_ASSIGN_OR_RETURN(encoded, encoder->Encode(frame));
    video.frames.push_back(std::move(encoded));
  }
  return video;
}

}  // namespace vc
