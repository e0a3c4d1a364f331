// The score kernels' bitwise contract (core/score_kernels.h): the
// dispatched kernel — whichever the CPU and METAPROX_FORCE_SCALAR_KERNELS
// selected for this process — and the scalar reference must agree to the
// bit on every input, and the multi-weight kernel must reproduce the
// single-weight dot per model exactly. Everything downstream ("batch ==
// Query, bitwise", "scalar server == SIMD server, byte for byte") reduces
// to these properties.
#include "core/score_kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace metaprox::kernels {
namespace {

constexpr size_t kNumWeights = 96;

std::vector<RowEntry> RandomRow(size_t len, util::Rng& rng) {
  std::vector<RowEntry> row;
  row.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Counts like the index produces: non-negative, often large (embedding
    // counts), occasionally zero.
    const float count =
        rng.UniformInt(10) == 0
            ? 0.0f
            : static_cast<float>(rng.UniformDouble(0.0, 3.0e6));
    row.emplace_back(static_cast<uint32_t>(rng.UniformInt(kNumWeights)),
                     count);
  }
  return row;
}

std::vector<double> RandomWeights(util::Rng& rng) {
  std::vector<double> w(kNumWeights);
  // Mixed-sign weights (training produces them); exact zeros exercise the
  // numer/denom guards downstream.
  for (double& x : w) {
    x = rng.UniformInt(8) == 0 ? 0.0 : rng.UniformDouble(-2.0, 2.0);
  }
  return w;
}

TEST(ScoreKernels, DispatchedMatchesScalarBitwise) {
  util::Rng rng(1234);
  for (RowTransform transform : {RowTransform::kRaw, RowTransform::kLog1p}) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{7}, size_t{8}, size_t{13}, size_t{64},
                       size_t{200}, size_t{4096}}) {
      const std::vector<RowEntry> row = RandomRow(len, rng);
      const std::vector<double> w = RandomWeights(rng);
      const double scalar = RowDotScalar(row, w, transform);
      const double dispatched = RowDot(row, w, transform);
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit equality.
      EXPECT_EQ(scalar, dispatched)
          << "len " << len << ", transform " << static_cast<int>(transform)
          << " (active kernel: " << KernelName(ActiveKernel()) << ")";
    }
  }
}

// ---- the exact log1p table ------------------------------------------------

// libm's log1p, called at run time on every entry: the volatile read keeps
// the compiler from folding a constant argument (GCC folds log1p through
// MPFR, whose rounding may differ from libm's in the last bit).
double RuntimeLog1p(float count) {
  volatile double arg = static_cast<double>(count);
  return std::log1p(arg);
}

// The canonical semantics (score_kernels.h) spelled out with RuntimeLog1p
// as the transform: the reference the table-reading kernels must match.
double ReferenceDot(std::span<const RowEntry> row,
                    std::span<const double> weights) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t e = 0; e < row.size(); ++e) {
    lanes[e & 3] = std::fma(weights[row[e].first],
                            RuntimeLog1p(row[e].second), lanes[e & 3]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

constexpr float kTableEnd = static_cast<float>(kLog1pTableSize);

// The counts at the table's edges: signed zeros, the last entry and the
// first counts past it, the first float with no fractional part left,
// and subnormals.
const std::vector<float>& EdgeCounts() {
  static const std::vector<float> kEdges = {
      0.0f,
      -0.0f,
      kTableEnd - 1.0f,
      kTableEnd,
      kTableEnd + 1.0f,
      16777216.0f,  // 2^24
      std::numeric_limits<float>::denorm_min(),
      1e-40f,
  };
  return kEdges;
}

// A count as the index stores it: embeddings / |Aut|. Mostly small whole
// numbers, some larger ones (a few past the table), a k/|Aut| fractional
// tail, and now and then an edge.
float IndexShapedCount(util::Rng& rng) {
  const uint64_t kind = rng.UniformInt(100);
  if (kind < 80) return static_cast<float>(rng.UniformInt(64));
  if (kind < 88) return static_cast<float>(rng.UniformInt(2 * kLog1pTableSize));
  if (kind < 97) {
    static constexpr float kAut[] = {2.0f, 3.0f, 4.0f, 6.0f, 8.0f, 12.0f};
    return static_cast<float>(1 + rng.UniformInt(500)) /
           kAut[rng.UniformInt(6)];
  }
  const std::vector<float>& edges = EdgeCounts();
  return edges[rng.UniformInt(edges.size())];
}

std::vector<RowEntry> IndexShapedRow(size_t len, util::Rng& rng) {
  std::vector<RowEntry> row;
  row.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    row.emplace_back(static_cast<uint32_t>(rng.UniformInt(kNumWeights)),
                     IndexShapedCount(rng));
  }
  return row;
}

// Rows of whole numbers with one edge count at each position in turn, so
// the edge lands in every lane of a vector group and in the scalar tail.
std::vector<std::vector<RowEntry>> EdgeRows(util::Rng& rng) {
  std::vector<std::vector<RowEntry>> rows;
  for (float edge : EdgeCounts()) {
    for (size_t len : {size_t{1}, size_t{4}, size_t{7}, size_t{8}}) {
      for (size_t at = 0; at < len; ++at) {
        std::vector<RowEntry> row;
        for (size_t i = 0; i < len; ++i) {
          row.emplace_back(
              static_cast<uint32_t>(rng.UniformInt(kNumWeights)),
              i == at ? edge : static_cast<float>(rng.UniformInt(64)));
        }
        rows.push_back(std::move(row));
      }
    }
  }
  // Every entry an edge.
  std::vector<RowEntry> all;
  for (float edge : EdgeCounts()) {
    all.emplace_back(static_cast<uint32_t>(rng.UniformInt(kNumWeights)),
                     edge);
  }
  rows.push_back(std::move(all));
  return rows;
}

// The whole numbers below kLog1pTableSize are exactly the counts that
// read the table, so this checks every table entry, then its edges and
// the libm counts around it.
TEST(Log1pTable, TransformCountIsLibmBitwise) {
  std::vector<float> counts = EdgeCounts();
  for (uint32_t i = 0; i <= kLog1pTableSize + 2; ++i) {
    counts.push_back(static_cast<float>(i));
    counts.push_back(static_cast<float>(i) + 0.5f);
    counts.push_back(static_cast<float>(i) / 3.0f);
  }
  counts.push_back(3.0e6f);
  counts.push_back(std::numeric_limits<float>::infinity());
  for (float c : counts) {
    EXPECT_EQ(Bits(TransformCount(c, RowTransform::kLog1p)),
              Bits(RuntimeLog1p(c)))
        << "count " << c;
    EXPECT_EQ(Bits(TransformCount(c, RowTransform::kRaw)),
              Bits(static_cast<double>(c)))
        << "count " << c;
  }
  // -0.0f is outside the table: its log1p is -0.0, not table[0].
  EXPECT_TRUE(std::signbit(TransformCount(-0.0f, RowTransform::kLog1p)));
}

TEST(Log1pTable, SingleWeightKernelsMatchRuntimeLibmOnIndexShapedRows) {
  util::Rng rng(2024);
  std::vector<std::vector<RowEntry>> rows = EdgeRows(rng);
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{5}, size_t{7}, size_t{8}, size_t{13}, size_t{64},
                     size_t{200}, size_t{4096}}) {
    rows.push_back(IndexShapedRow(len, rng));
  }
  for (const std::vector<RowEntry>& row : rows) {
    const std::vector<double> w = RandomWeights(rng);
    const double reference = ReferenceDot(row, w);
    EXPECT_EQ(Bits(RowDotScalar(row, w, RowTransform::kLog1p)),
              Bits(reference))
        << "scalar, len " << row.size();
    EXPECT_EQ(Bits(RowDot(row, w, RowTransform::kLog1p)), Bits(reference))
        << "dispatched (" << KernelName(ActiveKernel()) << "), len "
        << row.size();
  }
}

TEST(Log1pTable, MultiWeightKernelsMatchRuntimeLibmOnIndexShapedRows) {
  util::Rng rng(4048);
  std::vector<std::vector<RowEntry>> rows = EdgeRows(rng);
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{9},
                     size_t{100}, size_t{1000}}) {
    rows.push_back(IndexShapedRow(len, rng));
  }
  for (size_t n_models : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<std::vector<double>> storage;
    std::vector<std::span<const double>> models;
    for (size_t m = 0; m < n_models; ++m) storage.push_back(RandomWeights(rng));
    for (const auto& w : storage) models.push_back(w);
    MultiWeightSet set;
    set.Assign(models);
    std::vector<double> out(n_models), out_scalar(n_models);
    std::vector<double> lanes(set.lane_scratch_size());
    for (const std::vector<RowEntry>& row : rows) {
      RowDotMulti(row, set, RowTransform::kLog1p, out.data(), lanes.data());
      RowDotMultiScalar(row, set, RowTransform::kLog1p, out_scalar.data(),
                        lanes.data());
      for (size_t m = 0; m < n_models; ++m) {
        const double reference = ReferenceDot(row, storage[m]);
        EXPECT_EQ(Bits(out[m]), Bits(reference))
            << "dispatched multi, " << n_models << " models, len "
            << row.size() << ", model " << m;
        EXPECT_EQ(Bits(out_scalar[m]), Bits(reference))
            << "scalar multi, " << n_models << " models, len " << row.size()
            << ", model " << m;
      }
    }
  }
}

TEST(ScoreKernels, EmptyRowIsExactlyZero) {
  const std::vector<double> w(kNumWeights, 1.5);
  EXPECT_EQ(RowDot({}, w, RowTransform::kRaw), 0.0);
  EXPECT_EQ(RowDotScalar({}, w, RowTransform::kLog1p), 0.0);
}

TEST(ScoreKernels, MultiWeightSetInterleavesByIndex) {
  std::vector<double> w0 = {1.0, 2.0, 3.0};
  std::vector<double> w1 = {10.0, 20.0, 30.0};
  const std::vector<std::span<const double>> models = {w0, w1};
  MultiWeightSet set;
  set.Assign(models);
  ASSERT_EQ(set.num_models(), 2u);
  ASSERT_EQ(set.num_weights(), 3u);
  EXPECT_EQ(set.lane_scratch_size(), 8u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(set.row(i)[0], w0[i]);
    EXPECT_EQ(set.row(i)[1], w1[i]);
  }
}

TEST(ScoreKernels, MultiMatchesSingleWeightPerModelBitwise) {
  util::Rng rng(987);
  for (RowTransform transform : {RowTransform::kRaw, RowTransform::kLog1p}) {
    for (size_t n_models :
         {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{8}}) {
      std::vector<std::vector<double>> storage;
      std::vector<std::span<const double>> models;
      for (size_t m = 0; m < n_models; ++m) {
        storage.push_back(RandomWeights(rng));
      }
      for (const auto& w : storage) models.push_back(w);
      MultiWeightSet set;
      set.Assign(models);

      for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{9}, size_t{100}}) {
        const std::vector<RowEntry> row = RandomRow(len, rng);
        std::vector<double> out(n_models), out_scalar(n_models);
        std::vector<double> lanes(set.lane_scratch_size());
        RowDotMulti(row, set, transform, out.data(), lanes.data());
        RowDotMultiScalar(row, set, transform, out_scalar.data(),
                          lanes.data());
        for (size_t m = 0; m < n_models; ++m) {
          const double single = RowDot(row, storage[m], transform);
          EXPECT_EQ(out[m], single)
              << "multi vs single, " << n_models << " models, len " << len
              << ", model " << m;
          EXPECT_EQ(out_scalar[m], single)
              << "scalar multi vs single, " << n_models << " models, len "
              << len << ", model " << m;
        }
      }
    }
  }
}

TEST(ScoreKernels, KernelNamesAreStable) {
  EXPECT_STREQ(KernelName(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(KernelName(KernelKind::kAvx2Fma), "avx2+fma");
  // Whatever dispatch picked, it must name itself.
  EXPECT_NE(KernelName(ActiveKernel()), nullptr);
}

}  // namespace
}  // namespace metaprox::kernels
