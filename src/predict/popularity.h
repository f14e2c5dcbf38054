#ifndef VC_PREDICT_POPULARITY_H_
#define VC_PREDICT_POPULARITY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "geometry/tile_grid.h"
#include "predict/head_trace.h"

namespace vc {

/// Share of a segment's observed gaze mass the popular-tile overlay covers,
/// wherever the serving path asks for it: kVisualCloud plans streaming
/// those tiles at high quality, and the popularity prefetcher warming them.
inline constexpr double kPopularTileCoverage = 0.8;

/// \brief Cross-user tile-popularity model for one video.
///
/// VisualCloud can predict not just from the *current* viewer's motion but
/// from where *previous* viewers of the same video looked: per segment, the
/// model accumulates gaze dwell time per tile across training traces. At
/// serving time the server unions the individually-predicted viewport with
/// the tiles that cover most of the historical gaze mass — catching
/// content-driven attention (a boat entering the scene) that motion
/// extrapolation cannot anticipate.
class PopularityModel {
 public:
  /// Creates an empty model for a video with `segment_count` segments of
  /// `segment_seconds` each, partitioned by `grid`.
  PopularityModel(const TileGrid& grid, double segment_seconds,
                  int segment_count);

  /// Accumulates one prior viewer's trace (sampled at `sample_rate_hz`).
  void AddTrace(const HeadTrace& trace, double sample_rate_hz = 30.0);

  /// Accumulates one live gaze sample at media time `media_t` seconds.
  /// Streaming sessions feed the model incrementally as they play (instead
  /// of as one whole trace after the fact); call EndViewer() when the
  /// session finishes so viewer_count() stays meaningful. Samples beyond
  /// the modelled video or before t=0 are ignored.
  void Observe(double media_t, const Orientation& orientation);

  /// Marks the end of one live viewer fed through Observe().
  void EndViewer() { ++viewer_count_; }

  /// Fraction of observed gaze time segment `segment` spent in `tile`
  /// (0 when the segment has no observations).
  double Probability(int segment, TileId tile) const;

  /// Every tile's gaze share of one segment in a single pass, indexed by
  /// `TileGrid::IndexOf` order (all zeros when unobserved). The bulk read
  /// the prefetcher scores candidate cells against — per-tile Probability
  /// calls would rescan the segment's counts per tile.
  std::vector<double> TileProbabilities(int segment) const;

  /// The most popular tiles of a segment, greedily selected until they
  /// cover at least `coverage` ∈ (0, 1] of the observed gaze mass. Empty
  /// when the segment has no observations.
  std::vector<TileId> PopularTiles(int segment, double coverage) const;

  int viewer_count() const { return viewer_count_; }
  int segment_count() const { return segment_count_; }
  const TileGrid& grid() const { return grid_; }

  /// Serializes the model (counts are preserved exactly).
  std::vector<uint8_t> Serialize() const;

  /// Parses a stream produced by Serialize.
  static Result<PopularityModel> Parse(Slice data);

 private:
  TileGrid grid_;
  double segment_seconds_;
  int segment_count_;
  int viewer_count_ = 0;
  /// counts_[segment * tile_count + tile] = gaze samples observed.
  std::vector<uint64_t> counts_;
};

}  // namespace vc

#endif  // VC_PREDICT_POPULARITY_H_
