// Fast self-check of the arithmetic servebench reports through (stats.h):
// nearest-rank percentiles, the Poisson arrival schedule, the capacity
// climb and span self time, each on inputs small enough to check by hand. Exits non-zero on
// the first wrong answer; run.sh runs it before every benchmark run.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selfcheck FAILED: %s\n", what);
    ++failures;
  }
}

void CheckPercentile() {
  using servebench::Percentile;
  std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(Percentile(ten, 50) == 5, "p50 of 1..10 is 5 (nearest rank)");
  Expect(Percentile(ten, 90) == 9, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 99) == 10, "p99 of 1..10 is 10");
  Expect(Percentile(ten, 100) == 10, "p100 is the maximum");
  Expect(Percentile({7}, 99) == 7, "one sample is every percentile");
  Expect(std::isnan(Percentile({}, 50)), "empty sample is NaN");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Expect(Percentile(thousand, 99) == 990, "p99 of 1..1000 is 990");
  // A failure is +inf: it misses every limit and sorts last.
  std::vector<double> with_failure = {1, 2, 3,
                                      std::numeric_limits<double>::infinity()};
  Expect(std::isinf(Percentile(with_failure, 99)), "failure lands in p99");
  Expect(Percentile(with_failure, 50) == 2, "failure does not move p50 of 4");
}

void CheckSchedule() {
  // Constant draws give constant gaps: -ln(1 - 0.5) / rate.
  auto half = [] { return 0.5; };
  const std::vector<double> fixed =
      servebench::PoissonSchedule(100.0, 0.1, half);
  const double gap = std::log(2.0) / 100.0;
  Expect(fixed.size() == 14, "0.1 s at gap ln2/100 holds 14 arrivals");
  Expect(std::fabs(fixed[0] - gap) < 1e-12, "first arrival after one gap");
  Expect(std::fabs(fixed[13] - 14 * gap) < 1e-12, "arrivals accumulate");
  Expect(servebench::PoissonSchedule(0.0, 1.0, half).empty(),
         "rate 0 sends nothing");

  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto draw = [&] { return u(gen); };
  const std::vector<double> due =
      servebench::PoissonSchedule(2000.0, 10.0, draw);
  bool ascending = true;
  for (size_t i = 1; i < due.size(); ++i) ascending &= due[i] > due[i - 1];
  Expect(ascending, "arrivals ascend");
  Expect(!due.empty() && due.back() < 10.0, "arrivals stay inside the step");
  // 20000 expected; a Poisson count's sd is ~141, so 5 sd is 700.
  Expect(std::fabs(static_cast<double>(due.size()) - 20000.0) < 700.0,
         "arrival count matches the rate");
}

void CheckClimb() {
  using servebench::ClimbLadder;
  std::vector<size_t> probes;
  auto upto = [&probes](size_t last_pass) {
    return [&probes, last_pass](size_t rung) {
      probes.push_back(rung);
      return rung <= last_pass;
    };
  };
  servebench::Climb c = ClimbLadder(0, 20, upto(7));
  Expect(probes == std::vector<size_t>{0, 2, 4, 6, 8, 7},
         "climb goes up by two, then probes the rung between");
  Expect(c.pass == 7 && c.miss == 8, "climb brackets the last passing rung");
  probes.clear();
  c = ClimbLadder(2, 20, upto(6));
  Expect(probes == std::vector<size_t>{2, 4, 6, 8, 7} && c.pass == 6 &&
             c.miss == 7,
         "a missed middle rung becomes the miss");
  probes.clear();
  c = ClimbLadder(9, 20, upto(7));
  Expect(probes == std::vector<size_t>{9, 8, 7} && c.pass == 7 &&
             c.miss == 8,
         "a missed start steps down one rung at a time");
  probes.clear();
  c = ClimbLadder(0, 5, upto(100));
  Expect(probes == std::vector<size_t>{0, 2, 4, 5} && c.pass == 5 && !c.miss,
         "the top rung ends the climb");
  probes.clear();
  c = ClimbLadder(3, 20, [&probes](size_t rung) {
    probes.push_back(rung);
    return false;
  });
  Expect(probes == std::vector<size_t>{3, 2, 1, 0} && !c.pass && c.miss == 0,
         "nothing passes: the miss is rung 0");
}

void CheckCapacity() {
  using servebench::ProbeRate;
  using servebench::RoundCapacity;
  const ProbeRate pass{1000, 1010, 1.0};
  Expect(std::fabs(RoundCapacity(pass, ProbeRate{1100, 950, 0.86}, 0.9) -
                   950 / 0.9) < 1e-9,
         "a miss that fell behind interpolates to served / min share");
  Expect(RoundCapacity(pass, ProbeRate{1100, 1095, 0.99}, 0.9) == 1010,
         "a miss that kept up (missed on latency) gives the pass");
  Expect(RoundCapacity(pass, ProbeRate{1100, 500, 0.45}, 0.9) == 1010,
         "the estimate never drops below the pass");
  Expect(RoundCapacity(pass, ProbeRate{1100, 1089, 0.89}, 0.9) == 1100,
         "the estimate never exceeds the miss's offered rate");
  Expect(RoundCapacity(pass, std::nullopt, 0.9) == 1010,
         "top rung passed: its served rate");
  Expect(RoundCapacity(std::nullopt, ProbeRate{1000, 400, 0.4}, 0.9) == 400,
         "no pass: the served rate at the lowest miss");
}

void CheckSelfTime() {
  using servebench::Span;
  constexpr uint32_t kRoot = Span::kNoParent;
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) sticks out -> covers [90,100). Root self = 100-40-10.
  // Grandchild [12,18) under [10,30): that child's self = 20-6 = 14.
  std::vector<Span> spans = {
      {0, kRoot, 1, 0, 100},  {1, 0, 1, 10, 30},  {1, 0, 1, 20, 50},
      {1, 0, 1, 90, 120},     {2, 1, 1, 12, 18},  {3, kRoot, 2, 200, 260},
  };
  const std::vector<int64_t> self = servebench::SelfTimes(spans);
  Expect(self[0] == 50, "root self = duration - union of children");
  Expect(self[1] == 14, "child self excludes its grandchild");
  Expect(self[2] == 30, "overlapping sibling keeps its own self time");
  Expect(self[3] == 30, "child outside its parent keeps its duration");
  Expect(self[4] == 6, "leaf self = duration");
  Expect(self[5] == 60, "lone root self = duration");
  // Spans that tile an interval: self times sum to the interval.
  std::vector<Span> tiles = {
      {0, kRoot, 1, 0, 40}, {1, kRoot, 1, 40, 70}, {2, 1, 1, 45, 60},
      {3, kRoot, 1, 70, 100}};
  int64_t sum = 0;
  for (int64_t s : servebench::SelfTimes(tiles)) sum += s;
  Expect(sum == 100, "tiled self times sum to the whole");
}

}  // namespace

int main() {
  CheckPercentile();
  CheckSchedule();
  CheckClimb();
  CheckCapacity();
  CheckSelfTime();
  if (failures > 0) return 1;
  std::fprintf(stderr, "servebench selfcheck: ok\n");
  return 0;
}
