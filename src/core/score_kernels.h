// Score kernels: the dot-product inner loops of the online phase.
//
// Everything the online phase computes — pi(x, y; w) = 2 (m_xy . w) /
// (m_x . w + m_y . w) — bottoms out in "sparse count row . dense weight
// vector" dots over (metagraph index, raw count) entries, with the index's
// count transform (raw or log1p) applied per entry. This header is the ONE
// implementation of that dot: per-query Query() and the batched
// shared-window path (core/query_batch) both route through
// RowDot/RowDotMulti, so "batched == per-query, bitwise" reduces
// to a property of a single function per build.
//
// Canonical accumulation semantics (every kernel, scalar or SIMD, single
// or multi-weight, implements exactly this):
//
//   entry e of the row accumulates into lane (e & 3):
//       lane[e & 3] = fma(w[index_e], transform(count_e), lane[e & 3])
//   and the four lanes reduce as (lane0 + lane1) + (lane2 + lane3).
//
// Why this exact shape:
//   * fma (std::fma and the AVX2 vfmadd instruction alike) is correctly
//     rounded, so a scalar lane and a SIMD lane produce the SAME bits —
//     the scalar fallback and the AVX2 kernels are bitwise-interchangeable
//     on every input, which is what lets runtime dispatch (and the
//     METAPROX_FORCE_SCALAR_KERNELS override) never change a result;
//   * four independent chains give SIMD a full 256-bit register of
//     doubles and give scalar code instruction-level parallelism, instead
//     of one serial dependency chain;
//   * explicit fma sidesteps -ffp-contract: there is no mul+add the
//     compiler could (or could fail to) contract differently per target.
//
// The log1p transform is TransformCount below, the one count transform
// every kernel (and the index's feature vectors) applies. Counts are
// embeddings / |Aut|, so almost all of them are small whole numbers: for
// those it reads a table that libm's own std::log1p filled at run time,
// so a lookup returns the very bits the libm call returns and no score
// moves. Every other count takes the libm call.
//
// The multi-weight kernel scores ONE row under N weight vectors in one
// walk, reading an interleaved weight matrix W[i * N + m]: the row's
// entries — and each entry's transform — are touched once, so the
// marginal cost of an extra model is one fma per entry. Per model, the
// accumulation order is identical to the single-weight kernel:
// RowDotMulti(row, W)[m] == RowDot(row, w_m) bitwise.
//
// This file is a leaf: it depends only on util/ and the standard library
// (the index layer includes it from its .cc, below-core layering
// notwithstanding — see docs/ARCHITECTURE.md).
#ifndef METAPROX_CORE_SCORE_KERNELS_H_
#define METAPROX_CORE_SCORE_KERNELS_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace metaprox::kernels {

/// One sparse row entry: (metagraph index, raw count). Layout-identical to
/// the index's row storage, so index rows are passed as spans with no
/// copy; the SIMD kernels load entries directly from memory.
using RowEntry = std::pair<uint32_t, float>;
static_assert(sizeof(RowEntry) == 8 && alignof(RowEntry) == 4 &&
                  std::is_trivially_destructible_v<RowEntry>,
              "SIMD kernels load RowEntry pairs straight from memory: "
              "(index, count) must be two packed 32-bit members");

/// Per-entry count transform, mirroring the index's CountTransform (the
/// index maps its enum onto this one; kernels stays a leaf).
enum class RowTransform { kRaw, kLog1p };

/// Counts that are whole numbers in [0, kLog1pTableSize) take their log1p
/// from a table whose entry i is std::log1p(double(i)), filled by the
/// libm call at run time, once per process. (Not a compile-time table:
/// GCC folds a constant log1p through MPFR, which rounds correctly and can
/// differ from libm in the last bit.) 4096 doubles (32 KB) cover 98.4%,
/// 90.6% and 100% of the row entries of the servebench hot-multi,
/// wide-single and update-mixed indexes; nearly all the misses are
/// fractional counts, which no size of table would cover.
inline constexpr uint32_t kLog1pTableSize = 4096;

/// The one per-entry count transform: `count` for kRaw; for kLog1p, the
/// table entry when `count` is a whole number in [0, kLog1pTableSize)
/// (not -0.0f) and std::log1p(double(count)) otherwise — bitwise
/// std::log1p(double(count)) either way.
double TransformCount(float count, RowTransform transform);

/// Which kernel family serves RowDot/RowDotMulti in this process.
/// Resolved once, at first use: AVX2+FMA when the CPU has both and
/// METAPROX_FORCE_SCALAR_KERNELS is unset/empty/"0", scalar otherwise.
/// (Read once per process: flipping the env var after the first dot has
/// no effect — kernel choice is a process-lifetime property.)
enum class KernelKind { kScalar, kAvx2Fma };
KernelKind ActiveKernel();
const char* KernelName(KernelKind kind);

/// row . weights under the canonical semantics, via the dispatched kernel.
/// `weights` must cover every index the row mentions.
double RowDot(std::span<const RowEntry> row, std::span<const double> weights,
              RowTransform transform);

/// The scalar reference implementation — the single source of truth the
/// SIMD kernels are held bitwise-equal to (kernel tests and bench_micro
/// compare against it explicitly).
double RowDotScalar(std::span<const RowEntry> row,
                    std::span<const double> weights, RowTransform transform);

/// N weight vectors interleaved by metagraph index for the multi-weight
/// kernels: data[i * num_models + m] is metagraph i's weight under model
/// m, so one row entry reads its N weights from one contiguous run.
class MultiWeightSet {
 public:
  /// Rebuilds the matrix from `models` (all spans must have equal length).
  /// Reusable: a long-lived caller may Assign per batch without
  /// reallocating when the shape repeats.
  void Assign(std::span<const std::span<const double>> models) {
    MX_CHECK(!models.empty());
    num_models_ = models.size();
    num_weights_ = models[0].size();
    data_.resize(num_models_ * num_weights_);
    for (size_t m = 0; m < num_models_; ++m) {
      MX_CHECK(models[m].size() == num_weights_);
      for (size_t i = 0; i < num_weights_; ++i) {
        data_[i * num_models_ + m] = models[m][i];
      }
    }
  }

  size_t num_models() const { return num_models_; }
  size_t num_weights() const { return num_weights_; }
  const double* row(uint32_t index) const {
    return data_.data() + static_cast<size_t>(index) * num_models_;
  }
  /// Doubles of caller-provided lane scratch RowDotMulti needs: one
  /// accumulator per (lane, model).
  size_t lane_scratch_size() const { return 4 * num_models_; }

 private:
  std::vector<double> data_;
  size_t num_models_ = 0;
  size_t num_weights_ = 0;
};

/// Writes row . w_m into out[m] for every model of `weights`, walking the
/// row (and computing each entry's transform) once. `out` holds
/// weights.num_models() doubles; `lanes` is caller scratch of at least
/// weights.lane_scratch_size() doubles (scratch so the hot path never
/// allocates; one per worker thread, reused across rows). Bitwise
/// contract: out[m] == RowDot(row, w_m, transform) for every m, under
/// either kernel. With one model it IS the dispatched RowDot.
void RowDotMulti(std::span<const RowEntry> row, const MultiWeightSet& weights,
                 RowTransform transform, double* out, double* lanes);

/// Scalar reference for RowDotMulti (same contract, forced scalar).
void RowDotMultiScalar(std::span<const RowEntry> row,
                       const MultiWeightSet& weights, RowTransform transform,
                       double* out, double* lanes);

}  // namespace metaprox::kernels

#endif  // METAPROX_CORE_SCORE_KERNELS_H_
