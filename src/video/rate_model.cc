#include "video/rate_model.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "video/codec.h"
#include "video/talking_head.h"

namespace vtp::video {

CalibratedRateModel::CalibratedRateModel(Resolution resolution, RateModelConfig config) {
  if (config.qps.empty() || config.frames_per_qp < 2) {
    throw std::invalid_argument("rate model config needs QPs and >=2 frames per QP");
  }
  std::sort(config.qps.begin(), config.qps.end());

  TalkingHeadConfig source_config;
  source_config.resolution = resolution;
  for (const int qp : config.qps) {
    // Fresh source and encoder per QP so every point sees the same content
    // statistics (seeded identically).
    TalkingHeadSource source(source_config, config.seed);
    VideoEncoder encoder(resolution, VideoCodecConfig{.gop_length = 1 << 20});

    RateModelPoint point;
    point.qp = qp;
    std::vector<double> p_sizes;
    for (int i = 0; i < config.frames_per_qp; ++i) {
      const VideoFrame frame = source.Next();
      const EncodedFrame enc = encoder.Encode(frame, qp);
      if (i == 0) {
        point.mean_i_bytes = static_cast<double>(enc.bytes.size());
      } else {
        p_sizes.push_back(static_cast<double>(enc.bytes.size()));
      }
    }
    double mean = 0;
    for (const double s : p_sizes) mean += s;
    mean /= static_cast<double>(p_sizes.size());
    double var = 0;
    for (const double s : p_sizes) var += (s - mean) * (s - mean);
    var /= static_cast<double>(p_sizes.size());
    point.mean_p_bytes = mean;
    point.stddev_p_bytes = std::sqrt(var);
    points_.push_back(point);
  }
}

double CalibratedRateModel::MeanFrameBytes(bool keyframe, int qp) const {
  const auto value = [&](const RateModelPoint& p) {
    return keyframe ? p.mean_i_bytes : p.mean_p_bytes;
  };
  if (qp <= points_.front().qp) return value(points_.front());
  if (qp >= points_.back().qp) return value(points_.back());
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (qp <= points_[i].qp) {
      const RateModelPoint& a = points_[i - 1];
      const RateModelPoint& b = points_[i];
      const double t = static_cast<double>(qp - a.qp) / static_cast<double>(b.qp - a.qp);
      // Sizes fall roughly exponentially in QP: interpolate in log space.
      return std::exp((1 - t) * std::log(std::max(value(a), 1.0)) +
                      t * std::log(std::max(value(b), 1.0)));
    }
  }
  return value(points_.back());
}

std::size_t CalibratedRateModel::SampleFrameBytes(bool keyframe, int qp, net::Rng& rng) const {
  const double mean = MeanFrameBytes(keyframe, qp);
  // Relative jitter from the calibrated P-frame dispersion (I frames of
  // static-camera content vary little).
  double cv = 0.05;
  for (const RateModelPoint& p : points_) {
    if (p.qp >= qp && p.mean_p_bytes > 0) {
      cv = std::clamp(p.stddev_p_bytes / p.mean_p_bytes, 0.02, 0.5);
      break;
    }
  }
  const double sampled = mean * std::exp(rng.Normal(0.0, keyframe ? cv * 0.3 : cv));
  return static_cast<std::size_t>(std::max(64.0, sampled));
}

double CalibratedRateModel::MeanBpsAtQp(int qp, double fps, int gop_length) const {
  const double i_bytes = MeanFrameBytes(true, qp);
  const double p_bytes = MeanFrameBytes(false, qp);
  const double per_frame =
      (i_bytes + p_bytes * static_cast<double>(gop_length - 1)) / static_cast<double>(gop_length);
  return per_frame * 8.0 * fps;
}

int CalibratedRateModel::QpForTargetBps(double target_bps, double fps, int gop_length) const {
  for (int qp = points_.front().qp; qp <= points_.back().qp; ++qp) {
    if (MeanBpsAtQp(qp, fps, gop_length) <= target_bps) return qp;
  }
  return points_.back().qp;
}

const CalibratedRateModel& CalibratedRateModel::For(Resolution resolution) {
  struct Entry {
    std::once_flag calibrated;
    std::unique_ptr<CalibratedRateModel> model;
  };
  static std::map<std::pair<int, int>, Entry> cache;  // map nodes never move
  static std::mutex cache_mutex;  // guards the map only, not a calibration
  Entry* entry;
  {
    const std::lock_guard lock(cache_mutex);
    entry = &cache[std::make_pair(resolution.width, resolution.height)];
  }
  // Sessions on parallel threads share the cache: each resolution
  // calibrates once, and a thread waits only on the resolution it asks for.
  std::call_once(entry->calibrated, [&] {
    entry->model = std::make_unique<CalibratedRateModel>(resolution);
  });
  return *entry->model;
}

}  // namespace vtp::video
