#include "predict/head_trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace vc {

namespace {

bool SampleBefore(const TraceSample& sample, double t) { return sample.t < t; }

}  // namespace

Result<HeadTrace> HeadTrace::FromSamples(std::vector<TraceSample> samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("trace must contain samples");
  }
  if (samples.front().t < 0) {
    return Status::InvalidArgument("trace must start at t >= 0");
  }
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].t <= samples[i - 1].t) {
      return Status::InvalidArgument("trace timestamps must increase");
    }
  }
  for (TraceSample& sample : samples) {
    sample.orientation = sample.orientation.Normalized();
  }
  HeadTrace trace;
  trace.samples_ = std::move(samples);
  return trace;
}

Orientation HeadTrace::At(double t) const {
  if (samples_.empty()) return Orientation{};
  if (t <= samples_.front().t) return samples_.front().orientation;
  if (t >= samples_.back().t) return samples_.back().orientation;
  // Binary search for the bracketing pair.
  auto it = std::lower_bound(samples_.begin(), samples_.end(), t,
                             SampleBefore);
  return Interpolate(static_cast<size_t>(it - samples_.begin()), t);
}

Orientation HeadTrace::At(double t, size_t* cursor) const {
  if (samples_.empty()) return Orientation{};
  if (t <= samples_.front().t) return samples_.front().orientation;
  if (t >= samples_.back().t) return samples_.back().orientation;
  // Here front().t < t < back().t, so the trace has at least two samples
  // and the walk below stops before the last one.
  size_t hi = Clamp<size_t>(*cursor, 1, samples_.size() - 1);
  if (!(samples_[hi - 1].t < t)) {
    // `t` is at or below the remembered bracket: search as At(t) does.
    hi = static_cast<size_t>(
        std::lower_bound(samples_.begin(), samples_.end(), t,
                         SampleBefore) -
        samples_.begin());
  } else {
    // Every sample before `hi` is below `t`; the first one at or above it
    // is lower_bound's answer.
    while (samples_[hi].t < t) ++hi;
  }
  *cursor = hi;
  return Interpolate(hi, t);
}

Orientation HeadTrace::Interpolate(size_t hi, double t) const {
  const TraceSample& upper = samples_[hi];
  const TraceSample& lower = samples_[hi - 1];
  double f = (t - lower.t) / (upper.t - lower.t);
  // Shortest-path interpolation in yaw, linear in pitch.
  double dyaw = YawDifference(upper.orientation.yaw, lower.orientation.yaw);
  Orientation out;
  out.yaw = WrapYaw(lower.orientation.yaw + f * dyaw);
  out.pitch =
      ClampPitch(lower.orientation.pitch +
                 f * (upper.orientation.pitch - lower.orientation.pitch));
  return out;
}

std::string HeadTrace::ToCsv() const {
  std::ostringstream out;
  out << "t,yaw,pitch\n";
  char line[96];
  for (const TraceSample& s : samples_) {
    std::snprintf(line, sizeof(line), "%.6f,%.6f,%.6f\n", s.t,
                  s.orientation.yaw, s.orientation.pitch);
    out << line;
  }
  return out.str();
}

Result<HeadTrace> HeadTrace::FromCsv(Slice csv) {
  std::vector<TraceSample> samples;
  std::string text = csv.ToString();
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line_number == 1 && line.find("yaw") != std::string::npos) {
      continue;  // header row
    }
    TraceSample sample;
    char* end = nullptr;
    const char* p = line.c_str();
    sample.t = std::strtod(p, &end);
    if (end == p || *end != ',') {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    p = end + 1;
    sample.orientation.yaw = std::strtod(p, &end);
    if (end == p || *end != ',') {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    p = end + 1;
    sample.orientation.pitch = std::strtod(p, &end);
    if (end == p) {
      return Status::Corruption("bad CSV at line " +
                                std::to_string(line_number));
    }
    samples.push_back(sample);
  }
  return FromSamples(std::move(samples));
}

}  // namespace vc
