#ifndef VC_CODEC_ENCODER_H_
#define VC_CODEC_ENCODER_H_

#include <memory>
#include <span>
#include <vector>

#include "codec/bitstream.h"
#include "codec/motion.h"
#include "common/bitio.h"
#include "common/result.h"
#include "geometry/tile_grid.h"
#include "image/frame.h"

namespace vc {

/// \brief One macroblock's analysis decision, captured from a reference-rung
/// encode (see MotionHints).
struct BlockHint {
  bool use_inter = false;          ///< Mode decision (inter frames only).
  IntraMode intra_mode = IntraMode::kDc;  ///< Chosen mode when intra.
  MotionVector mv;                 ///< Chosen vector when inter.
  uint32_t sad = 0;  ///< Best inter SAD the reference rung's search achieved.
};

/// \brief Reusable motion-analysis product of one encode.
///
/// Motion and mode decisions are driven by the content, not the quantizer,
/// so the quality ladder's rungs of the same (segment, tile) cell make
/// near-identical decisions. The storage manager encodes a designated
/// reference rung first with `EncoderOptions::capture_hints` set, then hands
/// the captured hints to the sibling rungs via `reuse_hints`: hinted blocks
/// reuse the intra mode outright and seed the motion search with the
/// reference rung's vector, replacing the full diamond walk with a short
/// refine. Hints are advisory — the hinted encoder still writes every
/// decision into the bitstream, so hinted streams are ordinary valid streams
/// for the unmodified decoder.
///
/// The geometry fields identify the stream shape the hints were captured
/// from; an encoder handed hints with mismatched geometry ignores them and
/// falls back to the full search (per block, frames beyond
/// `frames.size()` likewise fall back).
///
/// A capture replaces the whole content but keeps the rows' buffers, so
/// one MotionHints captured into segment after segment stops allocating.
struct MotionHints {
  int width = 0;         ///< Luma width of the captured stream.
  int height = 0;        ///< Luma height.
  int gop_length = 0;    ///< Keyframe cadence (frame types must align).
  /// Per frame, one hint per macroblock in raster order
  /// ((height/16) × (width/16) entries).
  std::vector<std::vector<BlockHint>> frames;

  /// Starts a capture of a stream of this shape: `frames` becomes empty,
  /// and its rows' buffers are kept for AddFrame.
  void BeginCapture(int stream_width, int stream_height, int stream_gop);

  /// Appends the next frame's row of `blocks` hints, reusing a kept buffer
  /// when there is one. The caller fills every entry.
  BlockHint* AddFrame(size_t blocks);

 private:
  std::vector<std::vector<BlockHint>> spare_rows_;  ///< Kept row buffers.
};

/// \brief The three planes of the picture an encoder reads, in place.
///
/// A view of one tile of a larger frame points at the tile's top-left
/// sample and keeps the frame's strides, so ingest encodes each
/// (segment, tile) cell straight from the segment frames.
struct SourceView {
  PlaneView y, u, v;

  /// The picture whose top-left luma sample is (x, y) of `frame`; x and y
  /// are even and inside the frame.
  static SourceView Of(const Frame& frame, int x = 0, int y = 0);
};

/// \brief Configuration of an encoding session.
///
/// VisualCloud's quality ladder is expressed purely through `qp`: every
/// (segment, tile) cell is encoded once per ladder rung with a different QP.
struct EncoderOptions {
  int width = 0;        ///< Luma width; multiple of 16, ≤ 65535.
  int height = 0;       ///< Luma height; multiple of 16.
  double fps = 30.0;    ///< Nominal frame rate (metadata only).
  int gop_length = 30;  ///< Keyframe interval; the temporal partition unit.
  int qp = 28;          ///< Quantization parameter of every frame, 0 … 51.
  int tile_rows = 1;    ///< In-stream spatial tiling.
  int tile_cols = 1;
  /// Motion-constrained tile sets: when true (the default, and what the
  /// tiled-streaming design requires), inter prediction never references
  /// pixels outside the current tile, so each tile is independently
  /// decodable across the whole GOP.
  bool motion_constrained_tiles = true;
  /// When set, the encoder records its per-block analysis decisions here
  /// (cleared and geometry-stamped on the first frame). Not owned; must
  /// outlive the encoder.
  MotionHints* capture_hints = nullptr;
  /// When set and geometry-compatible, per-block analysis is seeded from
  /// these hints instead of running the full diamond search. Incompatible
  /// hints are ignored entirely (clean fallback to unhinted search). Not
  /// owned; must outlive the encoder.
  const MotionHints* reuse_hints = nullptr;

  /// Validates all fields; returns InvalidArgument with a reason otherwise.
  Status Validate() const;

  /// The corresponding stream header.
  SequenceHeader ToHeader() const;
};

/// \brief Single-stream video encoder (I/P GOP structure, tiled).
///
/// Stateful: frames must be supplied in presentation order. The first frame
/// of every GOP (and any frame after ForceKeyframe) is coded intra.
class Encoder {
 public:
  /// Validates `options` and creates an encoder: an empty encoder, Reset.
  static Result<std::unique_ptr<Encoder>> Create(const EncoderOptions& options);

  /// Puts the encoder in exactly the state Create(options) gives (black
  /// reference, frame 0, no forced keyframe, the hint compatibility check
  /// and its `codec.hint_geometry_rejects` count) while keeping every
  /// buffer, so an encoder reused for cell after cell does not allocate.
  /// On error the encoder is unchanged.
  Status Reset(const EncoderOptions& options);

  /// Encodes the next frame. `frame` dimensions must match the options.
  /// A wrapper over EncodePayload.
  Result<EncodedFrame> Encode(const Frame& frame);

  /// Encodes the next frame, read through `source` (which must be
  /// options().width × options().height), and appends its payload to
  /// `out`, which must be byte-aligned; leaves `out` byte-aligned. Returns
  /// the frame's type. The payload's tile-offset table is written as zeros
  /// and back-patched once every tile has its start.
  FrameType EncodePayload(const SourceView& source, BitWriter* out);

  /// Encodes the `rect` of each of `frames`, in order, and appends them to
  /// `out` (byte-aligned) as one serialized stream: the header, then per
  /// frame a 4-byte length, back-patched after the payload, and the
  /// payload. The bytes equal EncodedVideo::Serialize of Encode on cropped
  /// frames. `rect` must have the encoder's size and lie inside the frames
  /// at even offsets; the encoder should be fresh (Create or Reset).
  Status EncodeStream(std::span<const Frame> frames,
                      const TileGrid::PixelRect& rect, BitWriter* out);

  /// Forces the next frame to be a keyframe (used at segment boundaries of
  /// live ingest).
  void ForceKeyframe() { force_keyframe_ = true; }

  /// The encoder-side reconstruction of the last encoded frame — exactly
  /// what a decoder will produce, useful for quality instrumentation
  /// without a decode pass.
  const Frame& reconstructed() const { return recon_; }

  const EncoderOptions& options() const { return options_; }
  SequenceHeader header() const { return options_.ToHeader(); }

  /// Number of frames encoded so far.
  int frame_count() const { return frame_index_; }

 private:
  Encoder() = default;

  /// Analyzes one tile and writes its mode/motion syntax and Exp-Golomb
  /// residuals to `writer` in a single pass, building the reconstruction as
  /// it goes (intra prediction feeds on it).
  /// `reuse_row`, when non-null, points at this frame's per-macroblock hints
  /// (indexed by global raster macroblock index); `capture_row` likewise
  /// receives this frame's decisions.
  void EncodeTile(const SourceView& source, const TileGrid::PixelRect& rect,
                  FrameType type, const BlockHint* reuse_row,
                  BlockHint* capture_row, BitWriter* writer);

  /// Per-frame analysis accounting, flushed to the metrics registry at the
  /// end of each Encode() call.
  struct AnalysisStats {
    uint64_t full_searches = 0;    ///< Blocks that ran the full diamond walk.
    uint64_t hinted_searches = 0;  ///< Blocks seeded from a hint.
    uint64_t hints_accepted = 0;   ///< Hinted blocks that kept the hinted mode.
  };

  EncoderOptions options_;
  std::vector<TileGrid::PixelRect> tile_rects_;
  std::vector<uint32_t> tile_offsets_;  ///< Frame-payload offset per tile.
  size_t last_payload_bytes_ = 0;       ///< Previous frame's payload size.
  bool reuse_ok_ = false;  ///< reuse_hints present and geometry-compatible.
  Frame recon_;      ///< reconstruction of the current frame (in progress)
  Frame reference_;  ///< reconstruction of the previous frame
  int frame_index_ = 0;
  bool force_keyframe_ = false;
  MotionSearchScratch scratch_;  ///< Visited-candidate memo + SAD counter.
  AnalysisStats frame_stats_;
};

/// Convenience: encodes `frames` as one stream with `options`.
Result<EncodedVideo> EncodeVideo(const std::vector<Frame>& frames,
                                 const EncoderOptions& options);

}  // namespace vc

#endif  // VC_CODEC_ENCODER_H_
