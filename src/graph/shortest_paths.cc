#include "graph/shortest_paths.h"

#include <cmath>
#include <queue>

#include "linalg/kernels.h"

namespace apspark::graph {

std::vector<double> Dijkstra(const Csr& csr, VertexId source) {
  const auto n = static_cast<std::size_t>(csr.num_vertices());
  std::vector<double> dist(n, linalg::kInf);
  dist[static_cast<std::size_t>(source)] = 0.0;
  using Item = std::pair<double, VertexId>;  // (distance, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const Csr::Neighbor& nb : csr.Neighbors(u)) {
      const double nd = d + nb.weight;
      if (nd < dist[static_cast<std::size_t>(nb.to)]) {
        dist[static_cast<std::size_t>(nb.to)] = nd;
        heap.emplace(nd, nb.to);
      }
    }
  }
  return dist;
}

linalg::DenseBlock DijkstraAllPairs(const Graph& g) {
  const Csr csr(g);
  const VertexId n = g.num_vertices();
  linalg::DenseBlock out(n, n, linalg::kInf);
  for (VertexId s = 0; s < n; ++s) {
    const std::vector<double> dist = Dijkstra(csr, s);
    for (VertexId t = 0; t < n; ++t) {
      out.Set(s, t, dist[static_cast<std::size_t>(t)]);
    }
  }
  return out;
}

Result<std::vector<double>> BellmanFord(const Graph& g, VertexId source) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> dist(n, linalg::kInf);
  dist[static_cast<std::size_t>(source)] = 0.0;
  auto relax = [&dist](VertexId u, VertexId v, double w) {
    const auto su = static_cast<std::size_t>(u);
    const auto sv = static_cast<std::size_t>(v);
    if (!std::isinf(dist[su]) && dist[su] + w < dist[sv]) {
      dist[sv] = dist[su] + w;
      return true;
    }
    return false;
  };
  bool changed = true;
  for (std::size_t round = 0; round + 1 < n && changed; ++round) {
    changed = false;
    for (const Edge& e : g.edges()) {
      changed |= relax(e.u, e.v, e.weight);
      if (!g.directed()) changed |= relax(e.v, e.u, e.weight);
    }
  }
  if (changed) {
    // One more pass: any further improvement proves a negative cycle.
    for (const Edge& e : g.edges()) {
      if (relax(e.u, e.v, e.weight) ||
          (!g.directed() && relax(e.v, e.u, e.weight))) {
        return AbortedError("negative cycle reachable from source");
      }
    }
  }
  return dist;
}

Result<linalg::DenseBlock> JohnsonAllPairs(const Graph& g) {
  const VertexId n = g.num_vertices();
  // Augment with a virtual source connected to every vertex by weight 0;
  // run Bellman-Ford to get the potential h.
  Graph augmented(n + 1, /*directed=*/true);
  for (const Edge& e : g.edges()) {
    augmented.AddEdge(e.u, e.v, e.weight).CheckOk();
    if (!g.directed()) augmented.AddEdge(e.v, e.u, e.weight).CheckOk();
  }
  for (VertexId v = 0; v < n; ++v) augmented.AddEdge(n, v, 0.0).CheckOk();
  auto h = BellmanFord(augmented, n);
  if (!h.ok()) return h.status();

  // Reweight: w'(u,v) = w(u,v) + h(u) - h(v) >= 0.
  Graph reweighted(n, /*directed=*/true);
  const auto& pot = *h;
  for (const Edge& e : g.edges()) {
    const auto su = static_cast<std::size_t>(e.u);
    const auto sv = static_cast<std::size_t>(e.v);
    reweighted.AddEdge(e.u, e.v, e.weight + pot[su] - pot[sv]).CheckOk();
    if (!g.directed()) {
      reweighted.AddEdge(e.v, e.u, e.weight + pot[sv] - pot[su]).CheckOk();
    }
  }
  const Csr csr(reweighted);
  linalg::DenseBlock out(n, n, linalg::kInf);
  for (VertexId s = 0; s < n; ++s) {
    const std::vector<double> dist = Dijkstra(csr, s);
    for (VertexId t = 0; t < n; ++t) {
      const double d = dist[static_cast<std::size_t>(t)];
      // Undo the reweighting.
      out.Set(s, t,
              std::isinf(d) ? linalg::kInf
                            : d - pot[static_cast<std::size_t>(s)] +
                                  pot[static_cast<std::size_t>(t)]);
    }
  }
  return out;
}

linalg::DenseBlock FloydWarshallAllPairs(const Graph& g,
                                         std::int64_t block_size) {
  linalg::DenseBlock a = g.ToDenseAdjacency();
  linalg::BlockedFloydWarshall(a, block_size, linalg::KernelTuning{});
  return a;
}

}  // namespace apspark::graph
