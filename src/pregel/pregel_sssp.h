// Pregel/BSP multi-source shortest paths on sparklet — the GraphX /
// GraphFrames baseline from the paper's §2.
//
// GraphX's ShortestPaths (and GraphFrames' successor) compute distances to a
// set of *landmark* vertices with a Pregel vertex program: each vertex keeps
// a distance vector (one slot per landmark), sends relaxed copies along its
// edges, and a min-combiner merges incoming messages; iteration stops when
// no distance improves. APSP is the degenerate case landmarks = V, at which
// point every superstep shuffles O(n^2) doubles — the reason the paper found
// GraphX "unable to handle any reasonable problem size" and turned to 2-D
// blocked decompositions instead.
//
// This implementation runs the vertex program on sparklet RDDs (vertex-state
// records + message shuffles with a min combiner), so its virtual-cluster
// cost is directly comparable with the paper's solvers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"
#include "sparklet/rdd.h"

namespace apspark::pregel {

struct PregelOptions {
  /// RDD partitions used for the vertex and message RDDs.
  int num_partitions = 8;
  /// Safety bound on supersteps (0 = number of vertices).
  std::int64_t max_supersteps = 0;
  /// Model run: skip payloads, keep cost accounting (like apsp::SolveModel;
  /// used by the baseline benchmark at paper scale).
  bool phantom = false;
};

struct PregelResult {
  Status status;
  /// distances(v, l): distance from vertex v to landmarks[l].
  std::optional<linalg::DenseBlock> distances;
  std::int64_t supersteps = 0;
  double sim_seconds = 0;
  sparklet::SimMetrics metrics;
};

/// Multi-source shortest paths for `landmarks`; undirected or directed
/// graphs with non-negative weights.
PregelResult ShortestPaths(const graph::Graph& g,
                           const std::vector<graph::VertexId>& landmarks,
                           const PregelOptions& options,
                           const sparklet::ClusterConfig& cluster);

/// APSP via landmarks = V (the configuration the paper rejected).
PregelResult AllPairs(const graph::Graph& g, const PregelOptions& options,
                      const sparklet::ClusterConfig& cluster);

/// Modelled cost of one superstep of landmark-APSP at paper scale, without
/// running it: message volume ~ 2m * n * 8 bytes, combine + update work.
/// Used by the baseline bench to show the O(n^2)-per-superstep blow-up.
double ModelSuperstepSeconds(std::int64_t n, double avg_degree,
                             const sparklet::ClusterConfig& cluster,
                             const linalg::CostModel& model);

}  // namespace apspark::pregel
