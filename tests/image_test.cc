#include <gtest/gtest.h>

#include "image/frame.h"
#include "image/metrics.h"
#include "image/scene.h"

namespace vc {
namespace {

TEST(FrameTest, ConstructsBlack) {
  Frame frame(64, 32);
  EXPECT_EQ(frame.width(), 64);
  EXPECT_EQ(frame.height(), 32);
  EXPECT_EQ(frame.chroma_width(), 32);
  EXPECT_EQ(frame.chroma_height(), 16);
  EXPECT_EQ(frame.y(0, 0), 16);
  EXPECT_EQ(frame.u(0, 0), 128);
  EXPECT_EQ(frame.v(0, 0), 128);
  EXPECT_EQ(frame.ByteSize(), 64u * 32 + 2 * 32 * 16);
}

TEST(FrameTest, FillAndAccessors) {
  Frame frame(16, 16);
  frame.Fill(100, 90, 110);
  EXPECT_EQ(frame.y(7, 9), 100);
  EXPECT_EQ(frame.u(3, 3), 90);
  EXPECT_EQ(frame.v(3, 3), 110);
  frame.set_y(5, 5, 42);
  EXPECT_EQ(frame.y(5, 5), 42);
}

TEST(FrameTest, FillRectWrapsHorizontally) {
  Frame frame(32, 16);
  frame.Fill(0, 128, 128);
  // Rectangle starting near the right edge wraps to the left edge.
  frame.FillRect(30, 4, 6, 4, 200, 128, 128);
  EXPECT_EQ(frame.y(31, 5), 200);
  EXPECT_EQ(frame.y(0, 5), 200);
  EXPECT_EQ(frame.y(3, 5), 200);
  EXPECT_EQ(frame.y(4, 5), 0);
  // Vertical clipping: nothing above/below.
  EXPECT_EQ(frame.y(31, 3), 0);
  EXPECT_EQ(frame.y(31, 8), 0);
}

TEST(FrameTest, FillCircleStaysInBounds) {
  Frame frame(64, 32);
  frame.FillCircle(0, 0, 10, 255, 128, 128);   // top-left pole corner
  frame.FillCircle(63, 31, 10, 255, 128, 128); // bottom-right
  EXPECT_EQ(frame.y(0, 0), 255);
  EXPECT_EQ(frame.y(63, 31), 255);
}

TEST(FrameTest, CropPasteRoundTrip) {
  Frame frame(32, 32);
  frame.FillRect(8, 8, 8, 8, 222, 100, 150);
  auto crop = frame.Crop(8, 8, 8, 8);
  ASSERT_TRUE(crop.ok());
  EXPECT_EQ(crop->width(), 8);
  EXPECT_EQ(crop->y(0, 0), 222);
  EXPECT_EQ(crop->u(0, 0), 100);

  Frame target(32, 32);
  ASSERT_TRUE(target.Paste(*crop, 16, 16).ok());
  EXPECT_EQ(target.y(16, 16), 222);
  EXPECT_EQ(target.y(15, 16), 16);
}

TEST(FrameTest, CropRejectsBadArgs) {
  Frame frame(32, 32);
  EXPECT_TRUE(frame.Crop(1, 0, 8, 8).status().IsInvalidArgument());  // odd x
  EXPECT_TRUE(frame.Crop(0, 0, 40, 8).status().IsInvalidArgument());
  EXPECT_TRUE(frame.Paste(Frame(16, 16), 20, 20).IsInvalidArgument());
  EXPECT_TRUE(frame.Paste(Frame(16, 16), 3, 0).IsInvalidArgument());
}

TEST(ScaleTest, DownUpRoundTripApproximates) {
  Frame frame(64, 64);
  // Smooth gradient survives down+up scaling well.
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      frame.set_y(x, y, static_cast<uint8_t>(2 * x + y));
    }
  }
  auto down = ScaleFrame(frame, 32, 32);
  ASSERT_TRUE(down.ok());
  auto up = ScaleFrame(*down, 64, 64);
  ASSERT_TRUE(up.ok());
  auto psnr = LumaPsnr(frame, *up);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 35.0);
}

TEST(ScaleTest, RejectsOddTargets) {
  Frame frame(16, 16);
  EXPECT_FALSE(ScaleFrame(frame, 15, 16).ok());
  EXPECT_FALSE(ScaleFrame(frame, 0, 16).ok());
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, IdenticalFramesAreInfinitePsnr) {
  Frame a(32, 32);
  a.FillRect(0, 0, 32, 32, 77, 128, 128);
  Frame b = a;
  auto psnr = LumaPsnr(a, b);
  ASSERT_TRUE(psnr.ok());
  EXPECT_EQ(*psnr, kInfinitePsnr);
  auto ssim = LumaSsim(a, b);
  ASSERT_TRUE(ssim.ok());
  EXPECT_NEAR(*ssim, 1.0, 1e-9);
}

TEST(MetricsTest, KnownMse) {
  Frame a(16, 16), b(16, 16);
  a.Fill(100, 128, 128);
  b.Fill(110, 128, 128);
  auto mse = LumaMse(a, b);
  ASSERT_TRUE(mse.ok());
  EXPECT_DOUBLE_EQ(*mse, 100.0);
  auto psnr = LumaPsnr(a, b);
  ASSERT_TRUE(psnr.ok());
  EXPECT_NEAR(*psnr, 28.13, 0.01);  // 10*log10(255^2/100)
}

TEST(MetricsTest, SizeMismatchRejected) {
  Frame a(16, 16), b(32, 32);
  EXPECT_TRUE(LumaPsnr(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(WsPsnr(a, b).status().IsInvalidArgument());
}

TEST(MetricsTest, WsPsnrWeightsEquatorMore) {
  // Same per-pixel error count placed at the pole vs the equator: the
  // equatorial error must hurt WS-PSNR strictly more.
  Frame ref(64, 32);
  ref.Fill(128, 128, 128);
  Frame pole_err = ref, equator_err = ref;
  for (int x = 0; x < 64; ++x) {
    pole_err.set_y(x, 0, 255);          // top row: near-zero weight
    equator_err.set_y(x, 16, 255);      // equator row: max weight
  }
  auto pole = WsPsnr(ref, pole_err);
  auto equator = WsPsnr(ref, equator_err);
  ASSERT_TRUE(pole.ok());
  ASSERT_TRUE(equator.ok());
  EXPECT_GT(*pole, *equator);
  // Plain PSNR sees both identically.
  EXPECT_DOUBLE_EQ(*LumaPsnr(ref, pole_err), *LumaPsnr(ref, equator_err));
}

TEST(MetricsTest, SsimDropsWithStructuralDamage) {
  Frame a(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      a.set_y(x, y, static_cast<uint8_t>((x ^ y) * 4));
    }
  }
  Frame shuffled(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      shuffled.set_y(x, y, a.y(63 - x, y));
    }
  }
  auto ssim = LumaSsim(a, shuffled);
  ASSERT_TRUE(ssim.ok());
  EXPECT_LT(*ssim, 0.5);
}

// ----------------------------------------------------------------- Scenes

TEST(SceneTest, FactoryKnowsStandardScenes) {
  SceneOptions options;
  for (const auto& name : StandardSceneNames()) {
    auto scene = MakeScene(name, options);
    ASSERT_TRUE(scene.ok()) << name;
    EXPECT_EQ((*scene)->name(), name);
    EXPECT_EQ((*scene)->width(), options.width);
  }
  EXPECT_TRUE(MakeScene("nope", options).status().IsInvalidArgument());
}

TEST(SceneTest, RejectsBadDimensions) {
  SceneOptions options;
  options.width = 30;
  EXPECT_FALSE(MakeScene("venice", options).ok());
  options.width = 127;
  options.height = 64;
  EXPECT_FALSE(MakeScene("venice", options).ok());
}

TEST(SceneTest, FramesAreDeterministic) {
  SceneOptions options;
  options.width = 128;
  options.height = 64;
  for (const auto& name : StandardSceneNames()) {
    auto s1 = MakeScene(name, options);
    auto s2 = MakeScene(name, options);
    ASSERT_TRUE(s1.ok() && s2.ok());
    Frame f1 = (*s1)->FrameAt(17);
    Frame f2 = (*s2)->FrameAt(17);
    EXPECT_EQ(f1.y_plane(), f2.y_plane()) << name;
    EXPECT_EQ(f1.u_plane(), f2.u_plane()) << name;
  }
}

TEST(SceneTest, MotionProfilesAreOrdered) {
  // Per design: coaster (high motion) changes more frame-to-frame than
  // timelapse (low motion). This ordering is what makes the content classes
  // meaningful for the codec benchmarks.
  SceneOptions options;
  options.width = 128;
  options.height = 64;
  auto motion = [&](const std::string& name) {
    auto scene = MakeScene(name, options);
    Frame a = (*scene)->FrameAt(10);
    Frame b = (*scene)->FrameAt(11);
    return *LumaMse(a, b);
  };
  double timelapse = motion("timelapse");
  double coaster = motion("coaster");
  EXPECT_LT(timelapse, coaster);
}

TEST(SceneTest, RenderSceneProducesCount) {
  SceneOptions options;
  options.width = 64;
  options.height = 32;
  auto scene = MakeScene("venice", options);
  auto frames = RenderScene(**scene, 5);
  EXPECT_EQ(frames.size(), 5u);
}

}  // namespace
}  // namespace vc
