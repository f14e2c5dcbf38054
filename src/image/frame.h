#ifndef VC_IMAGE_FRAME_H_
#define VC_IMAGE_FRAME_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace vc {

/// \brief A planar YUV 4:2:0 image (the codec's native pixel format).
///
/// Dimensions must be even (chroma planes are sampled at half resolution in
/// both axes). Pixels are stored row-major, 8 bits per sample. For 360° video
/// the luma plane holds the equirectangular projection: column x maps to
/// longitude θ ∈ [0, 2π) and row y to latitude φ ∈ [0, π].
class Frame {
 public:
  /// Creates a frame filled with black (Y=16, U=V=128).
  Frame(int width, int height) { Reset(width, height); }

  /// Creates an empty 0x0 frame.
  Frame() : Frame(0, 0) {}

  int width() const { return width_; }
  int height() const { return height_; }
  int chroma_width() const { return width_ / 2; }
  int chroma_height() const { return height_ / 2; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  uint8_t y(int x, int y) const { return y_[Index(x, y, width_)]; }
  uint8_t u(int x, int y) const { return u_[Index(x, y, width_ / 2)]; }
  uint8_t v(int x, int y) const { return v_[Index(x, y, width_ / 2)]; }

  void set_y(int x, int y, uint8_t value) { y_[Index(x, y, width_)] = value; }
  void set_u(int x, int y, uint8_t value) {
    u_[Index(x, y, width_ / 2)] = value;
  }
  void set_v(int x, int y, uint8_t value) {
    v_[Index(x, y, width_ / 2)] = value;
  }

  std::vector<uint8_t>& y_plane() { return y_; }
  std::vector<uint8_t>& u_plane() { return u_; }
  std::vector<uint8_t>& v_plane() { return v_; }
  const std::vector<uint8_t>& y_plane() const { return y_; }
  const std::vector<uint8_t>& u_plane() const { return u_; }
  const std::vector<uint8_t>& v_plane() const { return v_; }

  /// Makes this a black `width`×`height` frame, exactly as the constructor
  /// does, keeping the planes' buffers: a frame reshaped to any size it has
  /// held before does not allocate.
  void Reset(int width, int height);

  /// Fills the whole frame with a constant YUV color.
  void Fill(uint8_t y, uint8_t u, uint8_t v);

  /// Fills an axis-aligned luma-coordinate rectangle (clipped to the frame)
  /// with a constant YUV color. `x`/`w` wrap around horizontally, matching
  /// the angular periodicity of the equirectangular projection.
  void FillRect(int x, int y, int w, int h, uint8_t fy, uint8_t fu, uint8_t fv);

  /// Fills a disk of radius `r` centered at (cx, cy), with horizontal wrap.
  void FillCircle(int cx, int cy, int r, uint8_t fy, uint8_t fu, uint8_t fv);

  /// Extracts the sub-frame [x, x+w) × [y, y+h). Coordinates and sizes must
  /// be even and in-bounds.
  Result<Frame> Crop(int x, int y, int w, int h) const;

  /// Pastes `src` with its top-left corner at (x, y); even, in-bounds.
  Status Paste(const Frame& src, int x, int y);

  /// Total number of raw bytes across the three planes.
  size_t ByteSize() const { return y_.size() + u_.size() + v_.size(); }

  bool SameSize(const Frame& other) const {
    return width_ == other.width_ && height_ == other.height_;
  }

 private:
  static size_t Index(int x, int y, int stride) {
    return static_cast<size_t>(y) * stride + x;
  }

  int width_;
  int height_;
  std::vector<uint8_t> y_;
  std::vector<uint8_t> u_;
  std::vector<uint8_t> v_;
};

/// Bilinearly resizes `src` to `width`×`height` (both even, positive).
Result<Frame> ScaleFrame(const Frame& src, int width, int height);

}  // namespace vc

#endif  // VC_IMAGE_FRAME_H_
