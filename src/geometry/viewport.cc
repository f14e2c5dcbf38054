#include "geometry/viewport.h"

#include <cmath>

#include "image/metrics.h"

namespace vc {

namespace {

/// Bilinear sample of a plane with horizontal wrap (yaw periodicity) and
/// vertical clamp (poles).
double SampleWrapped(const std::vector<uint8_t>& plane, int w, int h, double x,
                     double y) {
  y = Clamp(y, 0.0, static_cast<double>(h - 1));
  int y0 = static_cast<int>(y);
  int y1 = std::min(y0 + 1, h - 1);
  double fy = y - y0;
  double xm = std::fmod(x, static_cast<double>(w));
  if (xm < 0) xm += w;
  int x0 = static_cast<int>(xm);
  int x1 = (x0 + 1) % w;
  double fx = xm - x0;
  double top = plane[static_cast<size_t>(y0) * w + x0] * (1 - fx) +
               plane[static_cast<size_t>(y0) * w + x1] * fx;
  double bottom = plane[static_cast<size_t>(y1) * w + x0] * (1 - fx) +
                  plane[static_cast<size_t>(y1) * w + x1] * fx;
  return top * (1 - fy) + bottom * fy;
}

}  // namespace

Result<Frame> RenderViewport(const Frame& panorama,
                             const Orientation& orientation,
                             const ViewportSpec& spec) {
  if (panorama.empty()) {
    return Status::InvalidArgument("viewport render on empty panorama");
  }
  if (spec.width <= 0 || spec.height <= 0 || spec.width % 2 != 0 ||
      spec.height % 2 != 0) {
    return Status::InvalidArgument("viewport dimensions must be even");
  }
  if (!(0 < spec.fov_yaw && spec.fov_yaw < kPi) ||
      !(0 < spec.fov_pitch && spec.fov_pitch < kPi)) {
    return Status::InvalidArgument("viewport FOV must be in (0, pi)");
  }

  Orientation center = orientation.Normalized();
  // Camera basis: forward toward the gaze, right along increasing yaw,
  // up toward decreasing pitch (toward the top pole).
  Vec3 forward = center.ToVector();
  Vec3 world_up{0, 0, 1};
  Vec3 right = forward.Cross(world_up);
  if (right.Norm() < 1e-9) {
    // Looking straight at a pole: pick an arbitrary right axis.
    right = Vec3{0, 1, 0};
  }
  right = right.Normalized() * -1.0;  // matches increasing yaw direction
  Vec3 up = right.Cross(forward).Normalized() * -1.0;

  double tan_half_yaw = std::tan(spec.fov_yaw / 2.0);
  double tan_half_pitch = std::tan(spec.fov_pitch / 2.0);

  Frame out(spec.width, spec.height);
  const int pw = panorama.width();
  const int ph = panorama.height();
  for (int vy = 0; vy < spec.height; ++vy) {
    double ndc_y = (2.0 * (vy + 0.5) / spec.height - 1.0) * tan_half_pitch;
    for (int vx = 0; vx < spec.width; ++vx) {
      double ndc_x = (2.0 * (vx + 0.5) / spec.width - 1.0) * tan_half_yaw;
      Vec3 dir = (forward + right * ndc_x + up * (-ndc_y)).Normalized();
      Orientation o = Orientation::FromVector(dir);
      double px = o.yaw / kTwoPi * pw - 0.5;
      double py = o.pitch / kPi * ph - 0.5;
      out.set_y(vx, vy,
                ClampPixel(static_cast<int>(std::lround(
                    SampleWrapped(panorama.y_plane(), pw, ph, px, py)))));
      if (vx % 2 == 0 && vy % 2 == 0) {
        out.set_u(vx / 2, vy / 2,
                  ClampPixel(static_cast<int>(std::lround(
                      SampleWrapped(panorama.u_plane(), pw / 2, ph / 2,
                                    px / 2, py / 2)))));
        out.set_v(vx / 2, vy / 2,
                  ClampPixel(static_cast<int>(std::lround(
                      SampleWrapped(panorama.v_plane(), pw / 2, ph / 2,
                                    px / 2, py / 2)))));
      }
    }
  }
  return out;
}

Result<double> ViewportPsnr(const Frame& reference, const Frame& delivered,
                            const Orientation& orientation,
                            const ViewportSpec& spec) {
  Frame ref_view;
  VC_ASSIGN_OR_RETURN(ref_view, RenderViewport(reference, orientation, spec));
  Frame del_view;
  VC_ASSIGN_OR_RETURN(del_view, RenderViewport(delivered, orientation, spec));
  return LumaPsnr(ref_view, del_view);
}

}  // namespace vc
