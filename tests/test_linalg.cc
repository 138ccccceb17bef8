// Unit and property tests for the dense-block kernels: min-plus algebra,
// Floyd-Warshall variants, phantom propagation, serialization, cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "linalg/cost_model.h"
#include "linalg/dense_block.h"
#include "linalg/kernels.h"
#include "test_support.h"

namespace apspark::linalg {
namespace {

/// The default config: (min, +), host ISA, default tiles, inline.
const KernelTuning kKernel;

DenseBlock RandomBlock(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed, double inf_fraction = 0.2) {
  Xoshiro256 rng(seed);
  DenseBlock b(rows, cols, 0.0);
  for (std::int64_t i = 0; i < b.size(); ++i) {
    b.mutable_data()[i] =
        rng.NextDouble() < inf_fraction ? kInf : rng.NextDouble(0.0, 50.0);
  }
  return b;
}

/// Reference min-plus product, no tricks.
DenseBlock NaiveMinPlus(const DenseBlock& a, const DenseBlock& b) {
  DenseBlock c(a.rows(), b.cols(), kInf);
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double best = kInf;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        best = std::min(best, a.At(i, k) + b.At(k, j));
      }
      c.Set(i, j, best);
    }
  }
  return c;
}

TEST(DenseBlock, ConstructionAndAccess) {
  DenseBlock b(3, 4, 1.5);
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 4);
  EXPECT_EQ(b.size(), 12);
  EXPECT_EQ(b.At(2, 3), 1.5);
  b.Set(1, 2, -3.0);
  EXPECT_EQ(b.At(1, 2), -3.0);
}

TEST(DenseBlock, DataConstructorValidatesShape) {
  EXPECT_THROW(DenseBlock(2, 2, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(DenseBlock, TransposeRoundTrip) {
  const DenseBlock b = RandomBlock(5, 9, 1);
  EXPECT_TRUE(b.Transposed().Transposed().ApproxEquals(b));
  const DenseBlock t = b.Transposed();
  for (std::int64_t r = 0; r < b.rows(); ++r) {
    for (std::int64_t c = 0; c < b.cols(); ++c) {
      EXPECT_EQ(b.At(r, c), t.At(c, r));
    }
  }
}

TEST(DenseBlock, ColumnAndRowExtraction) {
  const DenseBlock b = RandomBlock(4, 6, 2);
  const DenseBlock col = b.Column(3);
  EXPECT_EQ(col.rows(), 4);
  EXPECT_EQ(col.cols(), 1);
  for (std::int64_t r = 0; r < 4; ++r) EXPECT_EQ(col.At(r, 0), b.At(r, 3));
  const DenseBlock row = b.RowBlock(2);
  EXPECT_EQ(row.rows(), 1);
  for (std::int64_t c = 0; c < 6; ++c) EXPECT_EQ(row.At(0, c), b.At(2, c));
}

TEST(DenseBlock, SubBlock) {
  const DenseBlock b = RandomBlock(6, 6, 3);
  const DenseBlock sub = b.SubBlock(1, 2, 3, 4);
  EXPECT_EQ(sub.rows(), 3);
  EXPECT_EQ(sub.cols(), 4);
  EXPECT_EQ(sub.At(0, 0), b.At(1, 2));
  EXPECT_EQ(sub.At(2, 3), b.At(3, 5));
}

TEST(DenseBlock, SerializeRoundTrip) {
  const DenseBlock b = RandomBlock(7, 5, 4);
  BinaryWriter w;
  b.Serialize(w);
  EXPECT_EQ(w.size(), b.SerializedBytes());
  BinaryReader r(w.buffer());
  auto copy = DenseBlock::Deserialize(r);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->ApproxEquals(b));
}

TEST(DenseBlock, BulkDecodeIsBitwiseForDenseAndPacked) {
  DenseBlock packed = DenseBlock::PackedBoolean(9, 70);
  for (std::int64_t r = 0; r < 9; ++r) packed.Set(r, (r * 13) % 70, 1.0);
  for (const DenseBlock& b : {RandomBlock(6, 11, 8), packed}) {
    BinaryWriter w;
    b.Serialize(w);
    BinaryReader r(w.buffer());
    auto copy = DenseBlock::Deserialize(r);
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(copy->is_packed(), b.is_packed());
    test::ExpectBitwiseEqual(*copy, b, "decode");
  }
}

/// A serialized header (rows, cols, flags) followed by `payload` bytes.
std::vector<std::uint8_t> ShapeHeader(std::int64_t rows, std::int64_t cols,
                                      std::uint8_t flags,
                                      std::size_t payload) {
  BinaryWriter w;
  w.Write(rows);
  w.Write(cols);
  w.Write(flags);
  const std::vector<std::uint8_t> zeros(payload, 0);
  w.WriteRaw(zeros.data(), zeros.size());
  return std::move(w).TakeBuffer();
}

TEST(DenseBlock, DeserializeRejectsShapesThePayloadCannotHold) {
  constexpr std::uint8_t kDense = 0;
  constexpr std::uint8_t kPacked = 2;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Case {
    std::int64_t rows, cols;
    std::uint8_t flags;
  };
  // rows * cols * 8 wraps to 0 for the first two: a multiply-then-compare
  // bound check passes them and the allocation throws.
  for (const Case c : {Case{std::int64_t{1} << 32, std::int64_t{1} << 30,
                            kDense},
                       Case{std::int64_t{1} << 32, std::int64_t{1} << 36,
                            kPacked},
                       Case{kMax, kMax, kDense}, Case{1, kMax, kPacked},
                       Case{2, 2, kDense}, Case{2, 65, kPacked}}) {
    const auto bytes = ShapeHeader(c.rows, c.cols, c.flags, 24);
    BinaryReader r(bytes);
    auto block = DenseBlock::Deserialize(r);
    EXPECT_EQ(block.status().code(), StatusCode::kOutOfRange)
        << c.rows << " x " << c.cols << " flags " << int{c.flags};
  }
  // Shapes with no elements need no payload, however wide.
  for (const Case c : {Case{0, kMax, kDense}, Case{kMax, 0, kDense},
                       Case{0, kMax, kPacked}}) {
    const auto bytes = ShapeHeader(c.rows, c.cols, c.flags, 0);
    BinaryReader r(bytes);
    auto block = DenseBlock::Deserialize(r);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block->rows(), c.rows);
    EXPECT_EQ(block->cols(), c.cols);
  }
}

TEST(DenseBlock, PhantomSerializeKeepsShapeAndLogicalSize) {
  const DenseBlock p = DenseBlock::Phantom(100, 200);
  EXPECT_TRUE(p.is_phantom());
  // Accounted size equals what a real block would occupy...
  EXPECT_EQ(p.SerializedBytes(), DenseBlock(1, 1).SerializedBytes() -
                                     sizeof(double) +
                                     100 * 200 * sizeof(double));
  // ...but the actual encoding is just the header.
  BinaryWriter w;
  p.Serialize(w);
  EXPECT_LT(w.size(), 64u);
  BinaryReader r(w.buffer());
  auto copy = DenseBlock::Deserialize(r);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->is_phantom());
  EXPECT_EQ(copy->rows(), 100);
  EXPECT_EQ(copy->cols(), 200);
}

TEST(DenseBlock, MaxAbsDiffDetectsInfinityMismatch) {
  DenseBlock a(2, 2, 1.0);
  DenseBlock b = a;
  b.Set(0, 1, kInf);
  EXPECT_EQ(a.MaxAbsDiff(b), kInf);
}

TEST(Kernels, MinPlusMatchesNaive) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const DenseBlock a = RandomBlock(9, 7, seed * 3 + 1);
    const DenseBlock b = RandomBlock(7, 11, seed * 3 + 2);
    EXPECT_TRUE(MinPlusProduct(a, b, kKernel).ApproxEquals(NaiveMinPlus(a, b)));
  }
}

TEST(Kernels, MinPlusShapeMismatchThrows) {
  const DenseBlock a = RandomBlock(3, 4, 1);
  const DenseBlock b = RandomBlock(5, 3, 2);
  EXPECT_THROW(MinPlusProduct(a, b, kKernel), std::invalid_argument);
}

TEST(Kernels, MinPlusWithIdentityIsNoWorse) {
  // Identity of the (min,+) semiring: 0 on diagonal, inf elsewhere.
  const DenseBlock a = RandomBlock(8, 8, 5);
  DenseBlock id(8, 8, kInf);
  for (int i = 0; i < 8; ++i) id.Set(i, i, 0.0);
  EXPECT_TRUE(MinPlusProduct(a, id, kKernel).ApproxEquals(a));
  EXPECT_TRUE(MinPlusProduct(id, a, kKernel).ApproxEquals(a));
}

TEST(Kernels, MinPlusUpdateOnlyImproves) {
  const DenseBlock a = RandomBlock(6, 6, 6);
  const DenseBlock b = RandomBlock(6, 6, 7);
  DenseBlock c = RandomBlock(6, 6, 8);
  const DenseBlock before = c;
  MinPlusUpdate(a, b, c, kKernel);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_LE(c.data()[i], before.data()[i]);
  }
}

TEST(Kernels, ElementMin) {
  const DenseBlock a = RandomBlock(5, 5, 9);
  const DenseBlock b = RandomBlock(5, 5, 10);
  const DenseBlock m = ElementMin(a, b, kKernel);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], std::min(a.data()[i], b.data()[i]));
  }
}

TEST(Kernels, OuterSumMinUpdate) {
  DenseBlock a = RandomBlock(4, 6, 11, /*inf_fraction=*/0.0);
  const DenseBlock u = RandomBlock(4, 1, 12, 0.3);
  const DenseBlock v = RandomBlock(6, 1, 13, 0.3);
  const DenseBlock before = a;
  OuterSumMinUpdate(a, u, v, kKernel);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(a.At(i, j),
                std::min(before.At(i, j), u.At(i, 0) + v.At(j, 0)));
    }
  }
}

class BlockedFwSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(BlockedFwSweep, MatchesPlainFloydWarshall) {
  const auto [n, tile] = GetParam();
  DenseBlock adj = RandomBlock(n, n, 100 + static_cast<std::uint64_t>(n),
                               /*inf_fraction=*/0.6);
  for (std::int64_t i = 0; i < n; ++i) adj.Set(i, i, 0.0);
  // Symmetrize, matching the paper's undirected setting.
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) adj.Set(j, i, adj.At(i, j));
  }
  DenseBlock plain = adj;
  FloydWarshallInPlace(plain, kKernel);
  DenseBlock blocked = adj;
  BlockedFloydWarshall(blocked, tile, kKernel);
  EXPECT_TRUE(blocked.ApproxEquals(plain, 1e-9))
      << "n=" << n << " tile=" << tile;
}

INSTANTIATE_TEST_SUITE_P(
    TileSizes, BlockedFwSweep,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{1, 1},
                      std::pair<std::int64_t, std::int64_t>{7, 3},
                      std::pair<std::int64_t, std::int64_t>{16, 4},
                      std::pair<std::int64_t, std::int64_t>{33, 8},
                      std::pair<std::int64_t, std::int64_t>{64, 16},
                      std::pair<std::int64_t, std::int64_t>{50, 64},
                      std::pair<std::int64_t, std::int64_t>{48, 48}));

TEST(Kernels, FloydWarshallRequiresSquare) {
  DenseBlock rect(3, 4, 1.0);
  EXPECT_THROW(FloydWarshallInPlace(rect, kKernel), std::invalid_argument);
  EXPECT_THROW(ReferenceFloydWarshall(rect), std::invalid_argument);
}

// --- kernel config properties -------------------------------------------
//
// Every kernel config must agree with the fixed scalar reference. The
// min-plus kernels must agree *bitwise*: tiling and striping only reorder
// the (min) reduction, candidates a_ik + b_kj are computed identically.

using test::KernelConfigs;
using test::NamedKernel;

bool BitwiseEqual(const DenseBlock& a, const DenseBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (std::isinf(x) || std::isinf(y)) {
      if (x != y) return false;
    } else if (std::memcmp(&x, &y, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(KernelConfigs, MinPlusUpdateBitwiseEqualToNaive) {
  // Rectangular shapes, including dims that do not divide the tile sizes.
  const struct {
    std::int64_t m, n, k;
  } shapes[] = {{1, 1, 1},   {5, 3, 9},    {64, 64, 64},
                {63, 65, 31}, {130, 70, 33}, {97, 201, 129}};
  for (const auto& s : shapes) {
    for (double inf_fraction : {0.0, 0.3, 0.95}) {
      const DenseBlock a =
          RandomBlock(s.m, s.k, 1000 + static_cast<std::uint64_t>(s.m),
                      inf_fraction);
      const DenseBlock b =
          RandomBlock(s.k, s.n, 2000 + static_cast<std::uint64_t>(s.n),
                      inf_fraction);
      const DenseBlock c0 =
          RandomBlock(s.m, s.n, 3000 + static_cast<std::uint64_t>(s.k),
                      inf_fraction);
      DenseBlock expected = c0;
      MinPlusAccumulateRawNaive(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                                expected.mutable_data(), s.n,
                                SemiringId::kMinPlus);
      for (const NamedKernel& config : KernelConfigs()) {
        DenseBlock c = c0;
        MinPlusUpdate(a, b, c, config.kernel);
        EXPECT_TRUE(BitwiseEqual(c, expected))
            << config.name << " m=" << s.m << " n=" << s.n << " k=" << s.k
            << " inf=" << inf_fraction;
      }
    }
  }
}

TEST(KernelConfigs, MinPlusProductBitwiseEqualToNaive) {
  const DenseBlock a = RandomBlock(150, 90, 41, 0.25);
  const DenseBlock b = RandomBlock(90, 170, 42, 0.25);
  DenseBlock expected(150, 170, kInf);
  MinPlusAccumulateRawNaive(150, 170, 90, a.data(), 90, b.data(), 170,
                            expected.mutable_data(), 170,
                            SemiringId::kMinPlus);
  EXPECT_TRUE(expected.ApproxEquals(NaiveMinPlus(a, b)));
  for (const NamedKernel& config : KernelConfigs()) {
    EXPECT_TRUE(BitwiseEqual(MinPlusProduct(a, b, config.kernel), expected))
        << config.name;
  }
}

TEST(KernelConfigs, TinyTileSizesStayCorrect) {
  // Degenerate tiling parameters must not change results.
  KernelTuning tuning;
  tuning.tile_j = 1;
  tuning.tile_k = 1;
  tuning.fw_block = 1;
  const DenseBlock a = RandomBlock(17, 13, 51, 0.2);
  const DenseBlock b = RandomBlock(13, 19, 52, 0.2);
  DenseBlock c = RandomBlock(17, 19, 53, 0.2);
  DenseBlock expected = c;
  MinPlusAccumulateRawNaive(17, 19, 13, a.data(), 13, b.data(), 19,
                            expected.mutable_data(), 19, SemiringId::kMinPlus);
  MinPlusUpdate(a, b, c, tuning);
  EXPECT_TRUE(BitwiseEqual(c, expected));
}

DenseBlock RandomGraphMatrix(std::int64_t n, std::uint64_t seed, bool directed,
                             double inf_fraction) {
  DenseBlock adj = RandomBlock(n, n, seed, inf_fraction);
  for (std::int64_t i = 0; i < n; ++i) adj.Set(i, i, 0.0);
  if (!directed) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) adj.Set(j, i, adj.At(i, j));
    }
  }
  return adj;
}

TEST(KernelConfigs, FloydWarshallMatchesReferenceOracle) {
  for (bool directed : {false, true}) {
    for (double inf_fraction : {0.3, 0.7}) {
      // n chosen to not divide the fw tile below.
      const DenseBlock adj = RandomGraphMatrix(
          101, directed ? 61u : 62u, directed, inf_fraction);
      DenseBlock expected = adj;
      ReferenceFloydWarshall(expected);
      for (NamedKernel config : KernelConfigs()) {
        config.kernel.fw_block = 16;  // force multiple ragged tiles
        DenseBlock fw = adj;
        FloydWarshallInPlace(fw, config.kernel);
        EXPECT_TRUE(fw.ApproxEquals(expected, 1e-9))
            << config.name << " directed=" << directed
            << " inf=" << inf_fraction;
      }
    }
  }
}

TEST(KernelConfigs, BlockedFloydWarshallAllConfigsAllTiles) {
  const DenseBlock adj = RandomGraphMatrix(53, 77, /*directed=*/true, 0.5);
  DenseBlock expected = adj;
  ReferenceFloydWarshall(expected);
  for (const NamedKernel& config : KernelConfigs()) {
    for (std::int64_t tile : {1, 7, 16, 53, 64}) {
      DenseBlock blocked = adj;
      BlockedFloydWarshall(blocked, tile, config.kernel);
      EXPECT_TRUE(blocked.ApproxEquals(expected, 1e-9))
          << config.name << " tile=" << tile;
    }
  }
}

TEST(KernelConfigs, PhantomPropagationIndependentOfConfig) {
  for (const NamedKernel& config : KernelConfigs()) {
    DenseBlock c = DenseBlock::Phantom(4, 6);
    MinPlusUpdate(DenseBlock::Phantom(4, 5), DenseBlock::Phantom(5, 6), c,
                  config.kernel);
    EXPECT_TRUE(c.is_phantom());
    DenseBlock fw = DenseBlock::Phantom(32, 32);
    FloydWarshallInPlace(fw, config.kernel);
    EXPECT_TRUE(fw.is_phantom());
  }
}

// --- phantom propagation -----------------------------------------------

TEST(Phantom, ProductOfPhantomsIsPhantom) {
  const DenseBlock a = DenseBlock::Phantom(4, 5);
  const DenseBlock b = DenseBlock::Phantom(5, 6);
  const DenseBlock c = MinPlusProduct(a, b, kKernel);
  EXPECT_TRUE(c.is_phantom());
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 6);
}

TEST(Phantom, MixedOperandsYieldPhantom) {
  const DenseBlock real = RandomBlock(4, 4, 20);
  const DenseBlock ph = DenseBlock::Phantom(4, 4);
  EXPECT_TRUE(MinPlusProduct(real, ph, kKernel).is_phantom());
  EXPECT_TRUE(ElementMin(ph, real, kKernel).is_phantom());
  DenseBlock target = real;
  ElementMinInPlace(target, ph, kKernel);
  EXPECT_TRUE(target.is_phantom());
}

TEST(Phantom, FloydWarshallKeepsPhantom) {
  DenseBlock ph = DenseBlock::Phantom(8, 8);
  FloydWarshallInPlace(ph, kKernel);
  EXPECT_TRUE(ph.is_phantom());
  BlockedFloydWarshall(ph, 4, kKernel);
  EXPECT_TRUE(ph.is_phantom());
}

TEST(Phantom, ExtractionsKeepShape) {
  const DenseBlock ph = DenseBlock::Phantom(6, 9);
  EXPECT_EQ(ph.Column(2).rows(), 6);
  EXPECT_TRUE(ph.Column(2).is_phantom());
  EXPECT_EQ(ph.Transposed().rows(), 9);
  EXPECT_TRUE(ph.SubBlock(0, 0, 2, 3).is_phantom());
}

// --- cost model ---------------------------------------------------------

TEST(CostModel, MatchesPaperT1) {
  const CostModel m;
  // T1 = 0.022 s for n = 256 => 0.762 Gops (paper §5.4).
  EXPECT_NEAR(m.FloydWarshallSeconds(256), 0.022, 0.001);
  EXPECT_NEAR(m.SequentialGops(256), 0.762, 0.01);
}

TEST(CostModel, CubicGrowthWithCacheKnee) {
  const CostModel m;
  const double t1k = m.FloydWarshallSeconds(1000);
  const double t2k = m.FloydWarshallSeconds(2000);
  // Pure b^3 would give 8x; the knee makes it strictly worse.
  EXPECT_GT(t2k / t1k, 8.0);
  EXPECT_LT(t2k / t1k, 8.0 * m.cache_penalty * 1.01);
}

TEST(CostModel, CacheFactorRampIsMonotonic) {
  const CostModel m;
  double prev = 0;
  for (double e = 1e5; e < 1e8; e *= 2) {
    const double f = m.CacheFactor(e);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 1.0);
    EXPECT_LE(f, m.cache_penalty);
    prev = f;
  }
}

TEST(CostModel, CalibrateProducesPositiveConstants) {
  const CostModel m = CostModel::Calibrate(64);
  EXPECT_GT(m.fw_op_seconds, 0);
  EXPECT_GT(m.minplus_op_seconds, 0);
  EXPECT_GT(m.elementwise_op_seconds, 0);
}

}  // namespace
}  // namespace apspark::linalg
