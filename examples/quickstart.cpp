// Quickstart: solve APSP on a random graph with the paper's best solver
// (Blocked Collect/Broadcast) and inspect distances + engine metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cmath>
#include <cstdio>

#include "apsp/api.h"
#include "common/time_utils.h"
#include "graph/generators.h"

int main() {
  using namespace apspark;

  // 1. An Erdős–Rényi graph with the paper's edge density (§5.1).
  const std::int64_t n = 256;
  const graph::Graph g = graph::PaperErdosRenyi(n, /*seed=*/2024);
  std::printf("input: %s\n", g.Summary().c_str());

  // 2. Configure the solver: block size b, partitioner, over-decomposition.
  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kBlockedCollectBroadcast;
  request.options.block_size = 64;  // q = ceil(n/b) = 4 blocks per dimension
  request.options.partitioner = apsp::PartitionerKind::kMultiDiagonal;
  request.options.partitions_per_core = 2;

  // 3. Pick a virtual cluster to model. TinyTest() is enough for a demo;
  //    ClusterConfig::Paper() models the 32-node/1024-core testbed.
  request.cluster = sparklet::ClusterConfig::TinyTest();
  request.cluster.local_storage_bytes = 16ULL * kGiB;

  // 4. Solve.
  const apsp::SolveReport report = apsp::Solve(g, request);
  if (!report.ok()) {
    std::printf("solve failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const apsp::ApspRunResult& result = report.run;

  // 5. Use the distances.
  const auto& d = *result.distances;
  std::printf("d(0, %lld) = %.3f\n", static_cast<long long>(n - 1),
              d.At(0, n - 1));
  double max_finite = 0, sum = 0;
  std::int64_t finite_pairs = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      if (std::isinf(d.At(i, j))) continue;
      max_finite = std::max(max_finite, d.At(i, j));
      sum += d.At(i, j);
      ++finite_pairs;
    }
  }
  std::printf("graph diameter (weighted): %.3f, mean distance %.3f over %lld"
              " reachable pairs\n",
              max_finite, sum / static_cast<double>(finite_pairs),
              static_cast<long long>(finite_pairs));

  // 6. What the virtual cluster saw.
  std::printf("solver: %s (%s)\n", report.solver_name.c_str(),
              report.pure ? "pure" : "impure");
  std::printf("rounds: %lld, simulated time %s\n",
              static_cast<long long>(result.rounds_executed),
              FormatDuration(result.sim_seconds).c_str());
  std::printf("engine: %s\n", result.metrics.Summary().c_str());
  return 0;
}
