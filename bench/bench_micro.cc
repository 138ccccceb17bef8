// Micro-benchmarks: kernels, partitioners, generators, serialization, and a
// small end-to-end solve. These are ablation probes for the design choices
// DESIGN.md calls out rather than paper figures — quick relative numbers,
// not gated records (the gated records live in bench_fig2_kernels).
//
// Self-contained timing (best-of-N wall time via WallTimer); no external
// benchmark framework so the target always builds and run_benches.sh can
// include it unconditionally.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "apsp/partitioners.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "sparklet/virtual_cluster.h"

namespace {

using namespace apspark;

linalg::DenseBlock RandomBlock(std::int64_t b, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::DenseBlock block(b, b, 0.0);
  for (std::int64_t i = 0; i < block.size(); ++i) {
    block.mutable_data()[i] = rng.NextDouble(1.0, 100.0);
  }
  return block;
}

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double s = t.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

void PrintRow(const std::string& name, const std::string& config,
              double seconds, double items_per_sec, const char* unit) {
  std::printf("%-28s %-18s %10.3f ms %12.2f %s\n", name.c_str(),
              config.c_str(), seconds * 1e3, items_per_sec, unit);
}

/// Fused min-plus update: the naive reference loops, then the tiled kernels
/// inline and pooled, then across SIMD ISAs inline — the micro view of the
/// fig2 races.
void KernelProbes() {
  bench::PrintHeader("micro: kernels (b = 256, best of 5)");
  const std::int64_t b = 256;
  const auto lhs = RandomBlock(b, 1);
  const auto rhs = RandomBlock(b, 2);
  const double ops = static_cast<double>(b) * b * b;
  ThreadPool pool(0);
  linalg::KernelTuning scalar;
  scalar.isa = linalg::SimdIsa::kScalar;
  linalg::KernelTuning scalar_pooled = scalar;
  scalar_pooled.pool = &pool;
  {
    const double s = BestOf(5, [&] {
      linalg::DenseBlock c = lhs;
      linalg::MinPlusAccumulateRawNaive(b, b, b, lhs.data(), b, rhs.data(), b,
                                        c.mutable_data(), b,
                                        linalg::SemiringId::kMinPlus);
    });
    PrintRow("minplus_update", "variant=naive", s, ops / s / 1e9, "Gops");
  }
  for (const bool pooled : {false, true}) {
    const linalg::KernelTuning& kernel = pooled ? scalar_pooled : scalar;
    const double s = BestOf(5, [&] {
      linalg::DenseBlock c = lhs;
      linalg::MinPlusUpdate(lhs, rhs, c, kernel);
    });
    PrintRow("minplus_update",
             pooled ? "variant=tiled_parallel" : "variant=tiled", s,
             ops / s / 1e9, "Gops");
  }
  for (linalg::SimdIsa isa :
       {linalg::SimdIsa::kScalar, linalg::SimdIsa::kAvx2,
        linalg::SimdIsa::kAvx512}) {
    if (!linalg::SimdIsaAvailable(isa)) continue;
    linalg::KernelTuning kernel;
    kernel.isa = isa;
    const double s = BestOf(5, [&] {
      linalg::DenseBlock c = lhs;
      linalg::MinPlusUpdate(lhs, rhs, c, kernel);
    });
    PrintRow("minplus_update",
             std::string("isa=") + linalg::SimdIsaName(isa), s, ops / s / 1e9,
             "Gops");
  }
  {
    const linalg::KernelTuning kernel;
    const auto block = RandomBlock(b, 3);
    const double s = BestOf(5, [&] {
      linalg::DenseBlock copy = block;
      linalg::BlockedFloydWarshall(copy, kernel.fw_block, kernel);
    });
    PrintRow("blocked_floyd_warshall", "variant=tiled", s, ops / s / 1e9,
             "Gops");
  }
  {
    const auto block = RandomBlock(1024, 5);
    const double s = BestOf(5, [&] { (void)block.Transposed(); });
    PrintRow("transpose", "b=1024", s,
             1024.0 * 1024.0 * 8 / s / 1e9, "GB/s");
  }
}

void PartitionerProbes() {
  bench::PrintHeader("micro: partitioners (n = 65536, b = 512, 2048 parts)");
  const apsp::BlockLayout layout(65536, 512);
  const auto keys = layout.StoredKeys();
  for (apsp::PartitionerKind kind : {apsp::PartitionerKind::kPortableHash,
                                     apsp::PartitionerKind::kMultiDiagonal}) {
    auto part = apsp::MakeBlockPartitioner(kind, layout, 2048);
    volatile int sink = 0;
    const double s = BestOf(5, [&] {
      int acc = 0;
      for (const auto& key : keys) acc += part->PartitionOf(key);
      sink = acc;
    });
    (void)sink;
    PrintRow("partition_of", bench::PartitionerLabel(kind), s,
             static_cast<double>(keys.size()) / s / 1e6, "Mkeys/s");
  }
}

void SerializationProbes() {
  bench::PrintHeader("micro: serialization and generation");
  {
    const auto block = RandomBlock(512, 6);
    const double s = BestOf(5, [&] {
      BinaryWriter writer;
      block.Serialize(writer);
      BinaryReader reader(writer.buffer());
      (void)linalg::DenseBlock::Deserialize(reader);
    });
    PrintRow("block_serialize_roundtrip", "b=512", s,
             static_cast<double>(block.size()) * 8 / s / 1e9, "GB/s");
  }
  {
    std::uint64_t seed = 0;
    const double s = BestOf(3, [&] { (void)graph::PaperErdosRenyi(8192, ++seed); });
    PrintRow("erdos_renyi_generate", "n=8192", s, 8192.0 / s / 1e6,
             "Mverts/s");
  }
  {
    Xoshiro256 rng(7);
    std::vector<double> tasks(16384);
    for (auto& t : tasks) t = rng.NextDouble(0.1, 2.0);
    const double s = BestOf(5, [&] {
      auto copy = tasks;
      (void)sparklet::ListScheduleMakespan(copy, 1024);
    });
    PrintRow("list_schedule_makespan", "16384 tasks", s,
             static_cast<double>(tasks.size()) / s / 1e6, "Mtasks/s");
  }
}

void EndToEndProbe() {
  bench::PrintHeader("micro: end-to-end blocked CB solve (n = 128, b = 32)");
  const auto g = graph::PaperErdosRenyi(128, 5);
  const double s = BestOf(3, [&] {
    apsp::SolveRequest request;
    request.options.block_size = 32;
    (void)apsp::Solve(g, request);
  });
  PrintRow("solve_blocked_cb", "n=128 b=32", s, 1.0 / s, "solves/s");
}

}  // namespace

int main() {
  std::printf("kernels: %s\n",
              linalg::DescribeKernelTuning(linalg::KernelTuning{}).c_str());
  KernelProbes();
  PartitionerProbes();
  SerializationProbes();
  EndToEndProbe();
  return 0;
}
