// Dot-kernel microbenchmarks: the sparse-row x dense-weight kernels of
// core/score_kernels.h — scalar reference vs. the runtime-dispatched
// kernel (AVX2+FMA where the CPU has it) vs. the multi-weight kernel —
// swept over row lengths 4..4096 and both count transforms.
//
// Two numbers matter per configuration:
//   * ns/entry of single-weight scalar vs. dispatched (the SIMD payoff,
//     which is large for kRaw and bounded by the scalar log1p calls for
//     kLog1p — vectorizing log1p would break the bitwise contract);
//   * ns/entry/model of the multi-weight kernel as models grow (the
//     gather-once/score-many marginal cost; the point of the shared-window
//     batch is that this is far below one full single-weight walk). At
//     one model the multi kernel is the dispatched one, so "multi @ 1"
//     must read within noise of "dispatched" — the batch path serves
//     single-model windows through it.
//
// Every timed result is also CHECKED bitwise against the scalar reference
// — a kernel that got faster by changing bits fails the bench, not just a
// test. Plain binary on bench_common's --json plumbing (BENCH_micro.json
// in CI); no external benchmark framework.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/score_kernels.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace metaprox;           // NOLINT
using namespace metaprox::bench;    // NOLINT
using namespace metaprox::kernels;  // NOLINT

namespace {

constexpr size_t kNumWeights = 1024;
constexpr int kReps = 5;  // best-of reps: timing noise, not results

// Rows of one length, enough of them that a pass touches more data than
// L1 (the serving gather walks many distinct rows, not one hot row).
struct RowSet {
  std::vector<RowEntry> storage;
  std::vector<std::pair<size_t, size_t>> rows;  // (offset, len) into storage

  std::span<const RowEntry> row(size_t i) const {
    return std::span<const RowEntry>(storage.data() + rows[i].first,
                                     rows[i].second);
  }
};

RowSet MakeRows(size_t len, size_t total_entries, util::Rng& rng) {
  RowSet set;
  const size_t n_rows = std::max<size_t>(1, total_entries / len);
  set.storage.reserve(n_rows * len);
  for (size_t r = 0; r < n_rows; ++r) {
    set.rows.emplace_back(set.storage.size(), len);
    for (size_t e = 0; e < len; ++e) {
      set.storage.emplace_back(
          static_cast<uint32_t>(rng.UniformInt(kNumWeights)),
          static_cast<float>(rng.UniformDouble(0.0, 3.0e6)));
    }
  }
  return set;
}

// Best-of-kReps seconds for `fn`, which must fold its work into a value
// the caller reads (so nothing is optimized away).
template <typename Fn>
double TimeBest(const Fn& fn) {
  double best = -1.0;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

const char* TransformName(RowTransform t) {
  return t == RowTransform::kLog1p ? "log1p" : "raw";
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  std::printf("== score-kernel microbench: scalar vs %s vs multi-weight ==\n",
              KernelName(ActiveKernel()));
  std::printf("dispatched kernel: %s (METAPROX_FORCE_SCALAR_KERNELS=%s)\n\n",
              KernelName(ActiveKernel()),
              ActiveKernel() == KernelKind::kScalar ? "honored/implied"
                                                    : "unset");

  util::Rng rng(42);
  std::vector<double> weights(kNumWeights);
  for (double& w : weights) w = rng.UniformDouble(-2.0, 2.0);

  // Model sets for the multi-weight kernel. One model is the batch path's
  // single-model case and must read within noise of "dispatched".
  const std::vector<size_t> model_counts = {1, 2, 4, 8};
  std::vector<std::vector<double>> model_storage;
  for (size_t m = 0; m < 8; ++m) {
    model_storage.emplace_back(kNumWeights);
    for (double& w : model_storage.back()) w = rng.UniformDouble(-2.0, 2.0);
  }

  const std::vector<size_t> row_lens = {4, 16, 64, 256, 1024, 4096};
  const size_t total_entries = FullScale() ? (1u << 22) : (1u << 18);

  util::TablePrinter table({"transform", "row len", "kernel", "models",
                            "ns/row", "ns/entry", "vs scalar"});
  JsonReport report("micro");
  report.BeginRecord()
      .Str("config", "dispatch")
      .Str("active_kernel", KernelName(ActiveKernel()));

  bool all_bitwise = true;
  double checksum = 0.0;  // consumed below so no timed loop is dead code

  for (RowTransform transform : {RowTransform::kRaw, RowTransform::kLog1p}) {
    for (size_t len : row_lens) {
      const RowSet rows = MakeRows(len, total_entries, rng);
      const size_t n_rows = rows.rows.size();
      const double entries =
          static_cast<double>(n_rows) * static_cast<double>(len);

      // Reference pass (also the bitwise baseline for everything below).
      std::vector<double> reference(n_rows);
      const double scalar_seconds = TimeBest([&] {
        for (size_t i = 0; i < n_rows; ++i) {
          reference[i] = RowDotScalar(rows.row(i), weights, transform);
        }
      });
      checksum += reference[n_rows / 2];

      const double dispatched_seconds = TimeBest([&] {
        for (size_t i = 0; i < n_rows; ++i) {
          const double dot = RowDot(rows.row(i), weights, transform);
          if (dot != reference[i]) all_bitwise = false;
          checksum += dot;
        }
      });

      const auto add_row = [&](const char* kernel, size_t models,
                               double seconds, double per_model_entries) {
        const double ns_row = seconds * 1e9 / static_cast<double>(n_rows);
        const double ns_entry = seconds * 1e9 / per_model_entries;
        const double speedup = scalar_seconds / seconds *
                               (per_model_entries / entries);
        table.AddRow({TransformName(transform), std::to_string(len), kernel,
                      std::to_string(models), util::FormatDouble(ns_row, 1),
                      util::FormatDouble(ns_entry, 2),
                      util::FormatDouble(speedup, 2) + "x"});
        report.BeginRecord()
            .Str("transform", TransformName(transform))
            .Num("row_len", static_cast<double>(len))
            .Str("kernel", kernel)
            .Num("models", static_cast<double>(models))
            .Num("ns_per_row", ns_row)
            .Num("ns_per_entry", ns_entry)
            .Num("speedup_vs_scalar_per_model", speedup);
      };
      add_row("scalar", 1, scalar_seconds, entries);
      add_row("dispatched", 1, dispatched_seconds, entries);

      // Multi-weight: one walk, N models. ns/entry here is PER MODEL — the
      // marginal cost the shared-window batch pays for an extra model.
      for (size_t n_models : model_counts) {
        std::vector<std::span<const double>> spans;
        for (size_t m = 0; m < n_models; ++m) {
          spans.push_back(model_storage[m]);
        }
        MultiWeightSet set;
        set.Assign(spans);
        std::vector<double> out(n_models);
        std::vector<double> lanes(set.lane_scratch_size());
        // Bitwise check once, outside the timed loop.
        for (size_t i = 0; i < n_rows; i += 97) {
          RowDotMulti(rows.row(i), set, transform, out.data(), lanes.data());
          for (size_t m = 0; m < n_models; ++m) {
            if (out[m] != RowDotScalar(rows.row(i), spans[m], transform)) {
              all_bitwise = false;
            }
          }
        }
        const double multi_seconds = TimeBest([&] {
          for (size_t i = 0; i < n_rows; ++i) {
            RowDotMulti(rows.row(i), set, transform, out.data(),
                        lanes.data());
            checksum += out[0];
          }
        });
        add_row("multi", n_models, multi_seconds,
                entries * static_cast<double>(n_models));
      }
    }
  }

  table.Print(std::cout);
  if (!report.WriteIfRequested()) return 1;
  std::printf("\n(checksum %.6g)\n", checksum);
  std::printf(
      "expected shape: dispatched beats scalar on raw rows (SIMD gathers); "
      "log1p narrows the gap (bitwise contract keeps libm log1p); multi "
      "at 1 model matches dispatched; multi's per-model ns/entry FALLS as "
      "models grow — the marginal model is one "
      "fma per entry, which is what the shared-window batch banks on.\n");

  if (!all_bitwise) {
    std::fprintf(stderr,
                 "FATAL: a kernel differed bitwise from the scalar "
                 "reference\n");
    return 1;
  }
  return 0;
}
