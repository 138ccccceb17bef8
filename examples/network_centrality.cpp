// Network-analysis scenario: closeness centrality (and weighted
// eccentricity) of every vertex needs the full distance matrix — one of the
// "APSP as a building block" workloads the paper's introduction cites
// (network classification, information retrieval).
//
// Uses the 2D Floyd-Warshall solver — the pure, fault-tolerant choice — and
// demonstrates it survives injected task failures via lineage recomputation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "apsp/api.h"
#include "graph/generators.h"

int main() {
  using namespace apspark;

  const std::int64_t n = 200;
  const graph::Graph g = graph::PaperErdosRenyi(n, /*seed=*/99);
  std::printf("input: %s\n", g.Summary().c_str());

  const apsp::BlockLayout layout(n, /*block_size=*/50);
  auto cluster = sparklet::ClusterConfig::TinyTest();
  cluster.local_storage_bytes = 16ULL * kGiB;
  sparklet::SparkletContext ctx(cluster);
  // Make it interesting: kill a few tasks mid-run. The solver is pure, so
  // the engine recomputes from lineage and the result is unaffected.
  ctx.fault_injector().FailTask("fw2d-update", 1, 2);
  ctx.fault_injector().FailTask("fw2d-extract", 0, 1);

  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kFloydWarshall2d;
  const apsp::SolveReport report = apsp::Solve(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()), request);
  if (!report.ok()) {
    std::printf("solve failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("survived %llu injected task failures (pure solver, lineage "
              "recomputation)\n",
              static_cast<unsigned long long>(ctx.metrics().task_failures));

  const auto& d = *report.distances();
  struct Row {
    std::int64_t vertex;
    double closeness;
    double eccentricity;
  };
  std::vector<Row> rows;
  for (std::int64_t v = 0; v < n; ++v) {
    double sum = 0, ecc = 0;
    std::int64_t reachable = 0;
    for (std::int64_t u = 0; u < n; ++u) {
      if (u == v || std::isinf(d.At(v, u))) continue;
      sum += d.At(v, u);
      ecc = std::max(ecc, d.At(v, u));
      ++reachable;
    }
    const double closeness = sum > 0 ? static_cast<double>(reachable) / sum : 0;
    rows.push_back({v, closeness, ecc});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.closeness > b.closeness; });
  std::printf("\ntop-5 closeness centrality:\n");
  std::printf("%8s %12s %14s\n", "vertex", "closeness", "eccentricity");
  for (std::size_t i = 0; i < 5 && i < rows.size(); ++i) {
    std::printf("%8lld %12.4f %14.2f\n",
                static_cast<long long>(rows[i].vertex), rows[i].closeness,
                rows[i].eccentricity);
  }
  return 0;
}
