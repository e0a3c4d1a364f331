// Arithmetic the serving benchmark reports through: percentiles, the
// open-loop arrival schedule, the capacity climb, and span self time. Header-only and free of
// any metaprox dependency so servebench_selfcheck can pin it on tiny
// hand-checked inputs before every benchmark run.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace servebench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]. Infinite samples (failed
/// requests) sort last, so a failure counts as missing every latency
/// limit. Returns NaN for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Poisson arrivals: due offsets in seconds, ascending, all < `seconds`,
/// from i.i.d. exponential gaps of mean 1/rate. `uniform` yields doubles
/// in [0, 1) (the caller's seeded generator).
template <typename Uniform>
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    Uniform&& uniform) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  due.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Where a climb of a rate ladder ended: the highest rung probed that met
/// the SLO and the lowest probed above it that missed (either may be
/// absent).
struct Climb {
  std::optional<size_t> pass, miss;
};

/// Climbs the rungs 0..top from `start`: up two rungs at a time while
/// they meet the SLO, then the rung between the last pass and the first
/// miss; down one rung at a time when `start` misses. `meets(rung)` runs
/// one probe and says whether it met the SLO.
template <typename Meets>
Climb ClimbLadder(size_t start, size_t top, Meets&& meets) {
  Climb c;
  if (meets(start)) {
    c.pass = start;
    while (!c.miss && *c.pass < top) {
      const size_t next = std::min(*c.pass + 2, top);
      if (meets(next)) {
        c.pass = next;
      } else {
        c.miss = next;
      }
    }
    if (c.miss && *c.miss - *c.pass == 2) {
      const size_t mid = *c.pass + 1;
      if (meets(mid)) {
        c.pass = mid;
      } else {
        c.miss = mid;
      }
    }
  } else {
    c.miss = start;
    while (!c.pass && *c.miss > 0) {
      const size_t below = *c.miss - 1;
      if (meets(below)) {
        c.pass = below;
      } else {
        c.miss = below;
      }
    }
  }
  return c;
}

/// One capacity probe: the offered rate, the rate replies arrived at
/// after the warm-up, and their share of the requests sent meanwhile.
struct ProbeRate {
  double offered = 0, served_qps = 0, served_share = 0;
};

/// A climb's capacity: the served rate at the highest rung that met the
/// SLO. When the rung above missed because replies fell behind (served
/// share below `min_served`), it is instead the rate at which they would
/// just have kept up, served_qps / min_served, kept between the pass's
/// served rate and the miss's offered rate. With no passing rung, the
/// served rate at the lowest miss.
inline double RoundCapacity(const std::optional<ProbeRate>& pass,
                            const std::optional<ProbeRate>& miss,
                            double min_served) {
  if (!pass) {
    return miss ? miss->served_qps : std::numeric_limits<double>::quiet_NaN();
  }
  double cap = pass->served_qps;
  if (miss && miss->served_share < min_served) {
    cap = std::clamp(miss->served_qps / min_served, cap,
                     std::max(cap, miss->offered));
  }
  return cap;
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (kNoParent for a root); children end within their parent.
struct Span {
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  uint32_t name = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once, parts outside
/// the parent not at all). Aligned with `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      const Span& p = spans[s.parent];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (lo < hi) children[s.parent].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
