#include "linalg/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "common/time_utils.h"
#include "linalg/dense_block.h"
#include "linalg/kernels.h"

namespace apspark::linalg {

double CostModel::CacheFactor(double elems) const noexcept {
  if (elems <= cache_knee_elems) return 1.0;
  // Ramp linearly in log2(elems) over one octave past the knee.
  const double octaves = std::log2(elems / cache_knee_elems);
  const double t = std::min(1.0, octaves);
  return 1.0 + t * (cache_penalty - 1.0);
}

double CostModel::FloydWarshallSeconds(std::int64_t b) const noexcept {
  const double bd = static_cast<double>(b);
  return fw_op_seconds * bd * bd * bd * CacheFactor(bd * bd);
}

double CostModel::MinPlusSeconds(std::int64_t m, std::int64_t n,
                                 std::int64_t k) const noexcept {
  const double ops = static_cast<double>(m) * static_cast<double>(n) *
                     static_cast<double>(k);
  // Working set ~ the larger operand/result footprint.
  const double elems =
      std::max({static_cast<double>(m) * k, static_cast<double>(k) * n,
                static_cast<double>(m) * n});
  return minplus_op_seconds * ops * CacheFactor(elems);
}

double CostModel::ElementwiseSeconds(std::int64_t elems) const noexcept {
  return elementwise_op_seconds * static_cast<double>(elems);
}

double CostModel::SequentialGops(std::int64_t n) const noexcept {
  const double nd = static_cast<double>(n);
  return nd * nd * nd / FloydWarshallSeconds(n) / 1e9;
}

double CostModel::IntraTaskSpan(std::vector<double> piece_seconds) const {
  return apspark::LptMakespan(std::move(piece_seconds), intra_task_cores);
}

namespace {

DenseBlock RandomBlock(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed) {
  apspark::Xoshiro256 rng(seed);
  DenseBlock b(rows, cols, 0.0);
  for (std::int64_t i = 0; i < b.size(); ++i) {
    b.mutable_data()[i] = rng.NextDouble(0.0, 100.0);
  }
  return b;
}

}  // namespace

CostModel CostModel::Calibrate(std::int64_t b, std::uint64_t seed) {
  CostModel model;  // start from paper defaults (keeps cache parameters)
  const double ops = static_cast<double>(b) * b * b;
  const KernelTuning kernel;  // (min, +), inline: one core's throughput

  DenseBlock fw = RandomBlock(b, b, seed);
  apspark::WallTimer timer;
  FloydWarshallInPlace(fw, kernel);
  model.fw_op_seconds = std::max(1e-12, timer.ElapsedSeconds() / ops);

  const DenseBlock lhs = RandomBlock(b, b, seed + 1);
  const DenseBlock rhs = RandomBlock(b, b, seed + 2);
  timer.Reset();
  DenseBlock prod = MinPlusProduct(lhs, rhs, kernel);
  model.minplus_op_seconds = std::max(1e-12, timer.ElapsedSeconds() / ops);

  timer.Reset();
  ElementMinInPlace(prod, lhs, kernel);
  model.elementwise_op_seconds = std::max(
      1e-13, timer.ElapsedSeconds() / (static_cast<double>(b) * b));
  return model;
}

}  // namespace apspark::linalg
