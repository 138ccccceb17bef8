// Manifold-learning scenario from the paper's introduction: shortest paths
// over a neighbourhood graph approximate geodesic distances on the
// underlying manifold (Isomap / MDS pipelines, [3, 21] in the paper).
//
// We sample a Swiss roll, build a symmetric kNN graph, solve APSP with the
// Blocked In-Memory solver, and show how graph distances (geodesics) keep
// the manifold structure that straight-line Euclidean distances destroy:
// points on opposite sheets of the roll are Euclidean-close but
// geodesically far.
#include <array>
#include <cmath>
#include <cstdio>

#include "apsp/api.h"
#include "graph/generators.h"

int main() {
  using namespace apspark;

  const std::int64_t n = 400;
  const auto points = graph::SwissRoll(n, /*seed=*/7);
  const graph::Graph knn = graph::KnnGraph(points, /*k=*/10);
  std::printf("kNN graph: %s\n", knn.Summary().c_str());

  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kBlockedInMemory;
  request.options.block_size = 100;
  request.cluster.local_storage_bytes = 16ULL * kGiB;
  const apsp::SolveReport report = apsp::Solve(knn, request);
  if (!report.ok()) {
    std::printf("solve failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const auto& geo = *report.distances();

  auto euclid = [&](std::int64_t a, std::int64_t b) {
    double s = 0;
    for (int d = 0; d < 3; ++d) {
      const double diff = points[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)] -
                          points[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)];
      s += diff * diff;
    }
    return std::sqrt(s);
  };

  // Geodesic distance can never undercut Euclidean (edges are Euclidean
  // lengths); the interesting pairs are where it is much larger.
  double max_ratio = 0;
  std::int64_t max_a = 0, max_b = 0;
  double mean_ratio = 0;
  std::int64_t pairs = 0;
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = a + 1; b < n; ++b) {
      if (std::isinf(geo.At(a, b))) continue;
      const double ratio = geo.At(a, b) / std::max(1e-9, euclid(a, b));
      mean_ratio += ratio;
      ++pairs;
      if (ratio > max_ratio) {
        max_ratio = ratio;
        max_a = a;
        max_b = b;
      }
    }
  }
  mean_ratio /= static_cast<double>(pairs);
  std::printf("geodesic/Euclidean ratio: mean %.2f, max %.2f\n", mean_ratio,
              max_ratio);
  std::printf(
      "most 'folded' pair: %lld <-> %lld, Euclidean %.2f vs geodesic %.2f\n",
      static_cast<long long>(max_a), static_cast<long long>(max_b),
      euclid(max_a, max_b), geo.At(max_a, max_b));
  if (max_ratio > 2.0) {
    std::printf("the roll is folded: Isomap-style embeddings need these "
                "graph distances, i.e. an APSP solve, exactly as the paper "
                "motivates.\n");
  }
  return 0;
}
