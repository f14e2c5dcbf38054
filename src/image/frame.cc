#include "image/frame.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace vc {

void Frame::Reset(int width, int height) {
  width_ = width;
  height_ = height;
  y_.assign(static_cast<size_t>(width) * height, 16);
  u_.assign(static_cast<size_t>(width / 2) * (height / 2), 128);
  v_.assign(static_cast<size_t>(width / 2) * (height / 2), 128);
}

void Frame::Fill(uint8_t y, uint8_t u, uint8_t v) {
  std::fill(y_.begin(), y_.end(), y);
  std::fill(u_.begin(), u_.end(), u);
  std::fill(v_.begin(), v_.end(), v);
}

void Frame::FillRect(int x, int y, int w, int h, uint8_t fy, uint8_t fu,
                     uint8_t fv) {
  if (empty() || w <= 0 || h <= 0) return;
  int y0 = Clamp(y, 0, height_);
  int y1 = Clamp(y + h, 0, height_);
  for (int row = y0; row < y1; ++row) {
    for (int col = x; col < x + w; ++col) {
      int wrapped = ((col % width_) + width_) % width_;
      set_y(wrapped, row, fy);
      if (row % 2 == 0 && wrapped % 2 == 0) {
        set_u(wrapped / 2, row / 2, fu);
        set_v(wrapped / 2, row / 2, fv);
      }
    }
  }
}

void Frame::FillCircle(int cx, int cy, int r, uint8_t fy, uint8_t fu,
                       uint8_t fv) {
  if (empty() || r <= 0) return;
  for (int dy = -r; dy <= r; ++dy) {
    int row = cy + dy;
    if (row < 0 || row >= height_) continue;
    int span = static_cast<int>(std::sqrt(static_cast<double>(r) * r - dy * dy));
    for (int dx = -span; dx <= span; ++dx) {
      int wrapped = (((cx + dx) % width_) + width_) % width_;
      set_y(wrapped, row, fy);
      if (row % 2 == 0 && wrapped % 2 == 0) {
        set_u(wrapped / 2, row / 2, fu);
        set_v(wrapped / 2, row / 2, fv);
      }
    }
  }
}

Result<Frame> Frame::Crop(int x, int y, int w, int h) const {
  if (x % 2 != 0 || y % 2 != 0 || w % 2 != 0 || h % 2 != 0) {
    return Status::InvalidArgument("crop coordinates must be even");
  }
  if (x < 0 || y < 0 || w <= 0 || h <= 0 || x + w > width_ ||
      y + h > height_) {
    return Status::InvalidArgument("crop rectangle out of bounds");
  }
  Frame out(w, h);
  for (int row = 0; row < h; ++row) {
    std::copy_n(&y_[Index(x, y + row, width_)], w,
                &out.y_plane()[Index(0, row, w)]);
  }
  int cw = w / 2, cx = x / 2, cy = y / 2;
  for (int row = 0; row < h / 2; ++row) {
    std::copy_n(&u_[Index(cx, cy + row, width_ / 2)], cw,
                &out.u_plane()[Index(0, row, cw)]);
    std::copy_n(&v_[Index(cx, cy + row, width_ / 2)], cw,
                &out.v_plane()[Index(0, row, cw)]);
  }
  return out;
}

Status Frame::Paste(const Frame& src, int x, int y) {
  if (x % 2 != 0 || y % 2 != 0) {
    return Status::InvalidArgument("paste coordinates must be even");
  }
  if (x < 0 || y < 0 || x + src.width() > width_ ||
      y + src.height() > height_) {
    return Status::InvalidArgument("paste rectangle out of bounds");
  }
  for (int row = 0; row < src.height(); ++row) {
    std::copy_n(&src.y_plane()[Index(0, row, src.width())], src.width(),
                &y_[Index(x, y + row, width_)]);
  }
  int cw = src.width() / 2, cx = x / 2, cy = y / 2;
  for (int row = 0; row < src.height() / 2; ++row) {
    std::copy_n(&src.u_plane()[Index(0, row, cw)], cw,
                &u_[Index(cx, cy + row, width_ / 2)]);
    std::copy_n(&src.v_plane()[Index(0, row, cw)], cw,
                &v_[Index(cx, cy + row, width_ / 2)]);
  }
  return Status::OK();
}

namespace {

uint8_t SampleBilinear(const std::vector<uint8_t>& plane, int w, int h,
                       double x, double y) {
  x = Clamp(x, 0.0, static_cast<double>(w - 1));
  y = Clamp(y, 0.0, static_cast<double>(h - 1));
  int x0 = static_cast<int>(x), y0 = static_cast<int>(y);
  int x1 = std::min(x0 + 1, w - 1), y1 = std::min(y0 + 1, h - 1);
  double fx = x - x0, fy = y - y0;
  double top = plane[static_cast<size_t>(y0) * w + x0] * (1 - fx) +
               plane[static_cast<size_t>(y0) * w + x1] * fx;
  double bottom = plane[static_cast<size_t>(y1) * w + x0] * (1 - fx) +
                  plane[static_cast<size_t>(y1) * w + x1] * fx;
  return ClampPixel(static_cast<int>(std::lround(top * (1 - fy) + bottom * fy)));
}

}  // namespace

Result<Frame> ScaleFrame(const Frame& src, int width, int height) {
  if (width <= 0 || height <= 0 || width % 2 != 0 || height % 2 != 0) {
    return Status::InvalidArgument("scale target must be positive and even");
  }
  if (src.empty()) return Status::InvalidArgument("cannot scale empty frame");
  Frame out(width, height);
  double sx = static_cast<double>(src.width()) / width;
  double sy = static_cast<double>(src.height()) / height;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      out.set_y(x, y,
                SampleBilinear(src.y_plane(), src.width(), src.height(),
                               (x + 0.5) * sx - 0.5, (y + 0.5) * sy - 0.5));
    }
  }
  int cw = width / 2, ch = height / 2;
  double csx = static_cast<double>(src.chroma_width()) / cw;
  double csy = static_cast<double>(src.chroma_height()) / ch;
  for (int y = 0; y < ch; ++y) {
    for (int x = 0; x < cw; ++x) {
      out.set_u(x, y,
                SampleBilinear(src.u_plane(), src.chroma_width(),
                               src.chroma_height(), (x + 0.5) * csx - 0.5,
                               (y + 0.5) * csy - 0.5));
      out.set_v(x, y,
                SampleBilinear(src.v_plane(), src.chroma_width(),
                               src.chroma_height(), (x + 0.5) * csx - 0.5,
                               (y + 0.5) * csy - 0.5));
    }
  }
  return out;
}

}  // namespace vc
