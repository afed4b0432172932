// Calibrated frame-size model bridging the real codec into long sessions.
//
// Encoding 120 s of 1080p inside the event loop would dominate simulation
// time, so VCA sessions draw frame sizes from a model that is *calibrated by
// running the real VideoEncoder* on synthetic talking-head content at the
// session's exact resolution: for a ladder of QPs we record mean I/P frame
// sizes and their coefficient of variation, then interpolate between QPs and
// add lognormal-ish jitter per frame. Rate adaptation stays real: the
// session's RateController picks QPs, and the model answers with the sizes
// the real codec would produce.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "netsim/random.h"
#include "video/frame.h"

namespace vtp::video {

/// Per-QP calibration sample.
struct RateModelPoint {
  int qp = 0;
  double mean_i_bytes = 0;
  double mean_p_bytes = 0;
  double stddev_p_bytes = 0;
};

/// Calibration knobs (defaults keep 1080p calibration around a second).
struct RateModelConfig {
  std::vector<int> qps{12, 20, 28, 36, 44};
  int frames_per_qp = 8;  ///< 1 keyframe + (n-1) P-frames per QP
  std::uint64_t seed = 7;
};

/// Frame-size oracle for one resolution.
class CalibratedRateModel {
 public:
  /// Calibrates by encoding synthetic frames at `resolution`.
  CalibratedRateModel(Resolution resolution, RateModelConfig config = {});

  /// Expected encoded size for a frame at `qp` (log-interpolated).
  double MeanFrameBytes(bool keyframe, int qp) const;

  /// Draws a frame size with calibrated jitter.
  std::size_t SampleFrameBytes(bool keyframe, int qp, net::Rng& rng) const;

  /// Mean bitrate at `qp` for the given frame rate and GOP length.
  double MeanBpsAtQp(int qp, double fps, int gop_length) const;

  /// Smallest calibrated-range QP whose mean bitrate is <= `target_bps`.
  int QpForTargetBps(double target_bps, double fps, int gop_length) const;

  /// Process-wide cache: calibrate each resolution at most once. Threads
  /// asking for different resolutions calibrate concurrently.
  static const CalibratedRateModel& For(Resolution resolution);

  const std::vector<RateModelPoint>& points() const { return points_; }

 private:
  std::vector<RateModelPoint> points_;  // ascending qp
};

}  // namespace vtp::video
