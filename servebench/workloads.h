// The serving benchmark's workloads: one traffic mix each, with every
// rate, ladder step, pool size and latency limit fixed here so two runs of
// the same commit (and a parent/child pair) measure the same thing.
// README.md gives why each workload exists and which end-to-end metric
// each per-layer metric is predicted to move on it.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class DatasetKind { kFacebook, kLinkedIn };

/// A served model: trained on the dataset's first class with the given
/// metagraphs allowed a non-zero weight. Complementary active sets make a
/// response ranked under the wrong model visibly different.
enum class ActiveSet { kAll, kEvens, kOdds, kPaths };
struct ModelSpec {
  const char* name;
  ActiveSet active;
};

// Shared by every workload.
inline constexpr uint32_t kMinSupport = 5;   // miner support threshold
inline constexpr unsigned kPoolThreads = 1;  // server scoring pool
inline constexpr uint64_t kWindowMicros = 1000;
inline constexpr size_t kMaxBatch = 64;
/// Shares of --seconds spent at the light and the heavy rate (the light
/// rate needs the most time to support a p99). The capacity climb takes
/// about the rest.
inline constexpr double kLightShare = 0.45;
inline constexpr double kHeavyShare = 0.25;
/// Seconds of one capacity probe, as a share of --seconds.
inline constexpr double kProbeShare = 0.02;
/// Ratio between neighbouring rungs of the capacity ladder.
inline constexpr double kLadderStep = 1.1;
/// SLO failure budget: at most this share of a probe's requests may fail.
inline constexpr double kFailLimit = 0.001;
/// SLO backlog test: after a probe's warm-up, replies must arrive at this
/// share of the rate requests are sent, or the backlog is growing.
inline constexpr double kMinServed = 0.9;

struct Workload {
  const char* name;

  // ---- graph (fixed; the seed drives traffic, not the graph) ----
  DatasetKind dataset;
  uint32_t users;
  int max_nodes;
  /// Share of users in the served base graph; the rest arrive as
  /// datagen::SliceByArrival slices replayed through APPEND/REFRESH.
  double base_fraction;
  size_t num_slices;

  // ---- traffic ----
  std::vector<ModelSpec> models;  // striped across requests
  std::vector<uint32_t> ks;       // k drawn uniformly from these
  /// Query nodes are Zipf(alpha) over the users in a fixed rank order;
  /// alpha 0 is uniform.
  double zipf_alpha;

  // ---- rates (q/s) and SLO ----
  double light_rate;  // windows are mostly single queries
  double heavy_rate;  // windows fill; also the capacity ladder's first rung
  /// The capacity ladder: rung i offers heavy_rate * kLadderStep^i q/s,
  /// for i < ladder_rungs.
  size_t ladder_rungs;
  /// p99 from due time at or below this meets the SLO (with kFailLimit and
  /// kMinServed).
  double latency_limit_ms;

  // ---- index writes ----
  /// True: slices are replayed to the served instance during the whole
  /// load, one every slice_interval_s. False: `idle_refreshes` slices are
  /// replayed back to back after each round's capacity climb, to a twin
  /// instance with no query load (the served index stays the loaded
  /// artifact).
  bool writes_during_load;
  double slice_interval_s;
  size_t idle_refreshes;  // per round
};

inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {
          "hot-multi", DatasetKind::kFacebook, 450, 4, 0.96, 12,
          {{"all", ActiveSet::kAll},
           {"evens", ActiveSet::kEvens},
           {"odds", ActiveSet::kOdds},
           {"paths", ActiveSet::kPaths}},
          {10}, 1.0,
          130, 4000, 28, 200.0,
          false, 0.0, 2,
      },
      {
          "wide-single", DatasetKind::kLinkedIn, 800, 4, 0.96, 12,
          {{"all", ActiveSet::kAll}},
          {10, 100}, 0.0,
          130, 2000, 32, 150.0,
          false, 0.0, 2,
      },
      {
          "update-mixed", DatasetKind::kFacebook, 450, 4, 0.75, 96,
          {{"all", ActiveSet::kAll},
           {"evens", ActiveSet::kEvens},
           {"odds", ActiveSet::kOdds},
           {"paths", ActiveSet::kPaths}},
          {10}, 1.0,
          130, 4000, 28, 150.0,
          true, 0.5, 0,
      },
  };
  return kWorkloads;
}

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
