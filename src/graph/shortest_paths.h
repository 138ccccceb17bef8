// Exact sequential shortest-path baselines.
//
// These provide the ground truth every distributed solver in this repository
// is validated against, plus the Johnson algorithm the paper cites as the
// standard sparse-friendly alternative to Floyd-Warshall (§3).
#pragma once

#include <vector>

#include "common/status.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"

namespace apspark::graph {

/// Single-source Dijkstra with a binary heap. Requires non-negative weights.
std::vector<double> Dijkstra(const Csr& csr, VertexId source);

/// APSP by running Dijkstra from every source. O(n (m + n) log n).
linalg::DenseBlock DijkstraAllPairs(const Graph& g);

/// Bellman-Ford from `source`; detects negative cycles.
/// Returns distances, or kAborted status on a negative cycle.
Result<std::vector<double>> BellmanFord(const Graph& g, VertexId source);

/// Johnson's APSP: Bellman-Ford reweighting + Dijkstra per source. Handles
/// negative edges in digraphs (no negative cycles); for non-negative inputs
/// it reduces to DijkstraAllPairs modulo the reweighting pass.
Result<linalg::DenseBlock> JohnsonAllPairs(const Graph& g);

/// APSP via sequential (cache-blocked) Floyd-Warshall on the dense adjacency,
/// under the default (min, +), inline kernel config.
linalg::DenseBlock FloydWarshallAllPairs(const Graph& g,
                                         std::int64_t block_size = 64);

}  // namespace apspark::graph
