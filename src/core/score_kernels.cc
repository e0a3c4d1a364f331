#include "core/score_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define METAPROX_KERNELS_X86 1
#endif

namespace metaprox::kernels {
namespace {

inline double TransformValue(float count, RowTransform transform) {
  // float -> double is exact, so both transforms see the same operand the
  // sequential reference always saw.
  const double raw = static_cast<double>(count);
  return transform == RowTransform::kLog1p ? std::log1p(raw) : raw;
}

}  // namespace

double RowDotScalar(std::span<const RowEntry> row,
                    std::span<const double> weights, RowTransform transform) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t e = 0; e < row.size(); ++e) {
    const double t = TransformValue(row[e].second, transform);
    lanes[e & 3] = std::fma(weights[row[e].first], t, lanes[e & 3]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void RowDotMultiScalar(std::span<const RowEntry> row,
                       const MultiWeightSet& weights, RowTransform transform,
                       double* out, double* lanes) {
  const size_t m = weights.num_models();
  std::fill(lanes, lanes + 4 * m, 0.0);
  for (size_t e = 0; e < row.size(); ++e) {
    const double t = TransformValue(row[e].second, transform);
    const double* wrow = weights.row(row[e].first);
    double* lane = lanes + (e & 3) * m;
    for (size_t j = 0; j < m; ++j) lane[j] = std::fma(wrow[j], t, lane[j]);
  }
  for (size_t j = 0; j < m; ++j) {
    out[j] = (lanes[j] + lanes[m + j]) + (lanes[2 * m + j] + lanes[3 * m + j]);
  }
}

#ifdef METAPROX_KERNELS_X86

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's avx2intrin.h implements _mm256_i32gather_pd via
// _mm256_undefined_pd (`__m256d __Y = __Y;`), which trips
// -Wmaybe-uninitialized when inlined here. The gather's passthrough
// operand is fully masked, so the read is harmless.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// AVX2 single-weight kernel: four entries per iteration. The AoS
// (index, count) pairs are split with one lane permute — indices land in
// the low 128 bits, counts in the high — then the four weights arrive via
// a gather. Lane j of the accumulator is exactly the scalar kernel's lane
// (e + j) & 3 == j chain (the vector loop only runs at multiples of 4),
// and vfmadd is correctly rounded like std::fma, so the bits match the
// scalar kernel lane for lane. Entries past the last full group continue
// scalar into the spilled lanes.
__attribute__((target("avx2,fma"))) double RowDotAvx2(
    std::span<const RowEntry> row, std::span<const double> weights,
    RowTransform transform) {
  const RowEntry* entries = row.data();
  const size_t n = row.size();
  __m256d acc = _mm256_setzero_pd();
  const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  size_t e = 0;
  if (transform == RowTransform::kRaw) {
    for (; e + 4 <= n; e += 4) {
      const __m256i pairs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(entries + e));
      const __m256i packed = _mm256_permutevar8x32_epi32(pairs, split);
      const __m128i idx4 = _mm256_castsi256_si128(packed);
      const __m128 cnt4 = _mm_castsi128_ps(_mm256_extracti128_si256(packed, 1));
      const __m256d w4 = _mm256_i32gather_pd(weights.data(), idx4, 8);
      acc = _mm256_fmadd_pd(w4, _mm256_cvtps_pd(cnt4), acc);
    }
  } else {
    // log1p stays the scalar libm call in the SIMD kernel too: a vector
    // approximation would be faster and WRONG (different bits than the
    // scalar fallback). The fma/gather arithmetic around it still pays.
    for (; e + 4 <= n; e += 4) {
      const __m256i pairs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(entries + e));
      const __m256i packed = _mm256_permutevar8x32_epi32(pairs, split);
      const __m128i idx4 = _mm256_castsi256_si128(packed);
      const __m256d w4 = _mm256_i32gather_pd(weights.data(), idx4, 8);
      const __m256d t4 = _mm256_setr_pd(
          std::log1p(static_cast<double>(entries[e].second)),
          std::log1p(static_cast<double>(entries[e + 1].second)),
          std::log1p(static_cast<double>(entries[e + 2].second)),
          std::log1p(static_cast<double>(entries[e + 3].second)));
      acc = _mm256_fmadd_pd(w4, t4, acc);
    }
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; e < n; ++e) {
    const double t = TransformValue(entries[e].second, transform);
    lanes[e & 3] = std::fma(weights[entries[e].first], t, lanes[e & 3]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// AVX2 multi-weight kernel: vector lanes run across MODELS (the weight
// matrix interleaves models contiguously per index), four models per
// fmadd, with the entry's transformed count broadcast. Each (lane, model)
// accumulator receives the row's entries in the same order with the same
// correctly-rounded fma as the scalar kernel, so the per-model results
// are bitwise those of RowDotMultiScalar — and of the single-weight
// kernels.
__attribute__((target("avx2,fma"))) void RowDotMultiAvx2(
    std::span<const RowEntry> row, const MultiWeightSet& weights,
    RowTransform transform, double* out, double* lanes) {
  const size_t m = weights.num_models();
  std::fill(lanes, lanes + 4 * m, 0.0);
  for (size_t e = 0; e < row.size(); ++e) {
    const double t = TransformValue(row[e].second, transform);
    const __m256d tb = _mm256_set1_pd(t);
    const double* wrow = weights.row(row[e].first);
    double* lane = lanes + (e & 3) * m;
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d acc = _mm256_loadu_pd(lane + j);
      _mm256_storeu_pd(lane + j,
                       _mm256_fmadd_pd(_mm256_loadu_pd(wrow + j), tb, acc));
    }
    for (; j < m; ++j) lane[j] = std::fma(wrow[j], t, lane[j]);
  }
  for (size_t j = 0; j < m; ++j) {
    out[j] = (lanes[j] + lanes[m + j]) + (lanes[2 * m + j] + lanes[3 * m + j]);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // METAPROX_KERNELS_X86

namespace {

struct Dispatch {
  KernelKind kind;
  double (*row_dot)(std::span<const RowEntry>, std::span<const double>,
                    RowTransform);
  void (*row_dot_multi)(std::span<const RowEntry>, const MultiWeightSet&,
                        RowTransform, double*, double*);
};

bool ForceScalar() {
  const char* env = std::getenv("METAPROX_FORCE_SCALAR_KERNELS");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const Dispatch& GetDispatch() {
  // Magic-static: resolved exactly once, thread-safely, at the first dot.
  static const Dispatch dispatch = [] {
#ifdef METAPROX_KERNELS_X86
    if (!ForceScalar() && __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
      return Dispatch{KernelKind::kAvx2Fma, &RowDotAvx2, &RowDotMultiAvx2};
    }
#endif
    return Dispatch{KernelKind::kScalar, &RowDotScalar, &RowDotMultiScalar};
  }();
  return dispatch;
}

}  // namespace

KernelKind ActiveKernel() { return GetDispatch().kind; }

const char* KernelName(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kAvx2Fma:
      return "avx2+fma";
  }
  return "unknown";
}

double RowDot(std::span<const RowEntry> row, std::span<const double> weights,
              RowTransform transform) {
  return GetDispatch().row_dot(row, weights, transform);
}

void RowDotMulti(std::span<const RowEntry> row, const MultiWeightSet& weights,
                 RowTransform transform, double* out, double* lanes) {
  if (weights.num_models() == 1) {
    // One model's weights are contiguous: the single-weight kernel's
    // vector loop beats the multi kernel's per-entry lanes in memory, and
    // its bits are the same by the contract above.
    *out = GetDispatch().row_dot(
        row, std::span<const double>(weights.row(0), weights.num_weights()),
        transform);
    return;
  }
  GetDispatch().row_dot_multi(row, weights, transform, out, lanes);
}

}  // namespace metaprox::kernels
