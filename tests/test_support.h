// Shared test-support harness.
//
// Every randomized suite draws its inputs from the generators here with a
// fixed per-case seed, and reports that seed on failure (APSPARK_SEEDED_CASE)
// so any red CI run can be replayed locally from the log alone. The block
// comparator checks *bitwise* equality — the kernels' guarantee is that
// every config (ISA, tiles, inline or pooled) applies (min, +) candidates in
// the same order, so matching within a tolerance would mask real divergence.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "sparklet/config.h"

/// Prints the case's RNG seed on any assertion failure inside the enclosing
/// scope, so randomized suites are reproducible from CI logs.
#define APSPARK_SEEDED_CASE(seed) \
  SCOPED_TRACE(::testing::Message() << "rng seed = " << (seed))

namespace apspark::test {

/// Cluster the correctness suites run on: tiny topology for speed, ample
/// local storage so no test trips the exhaustion path by accident.
inline sparklet::ClusterConfig TestCluster() {
  auto cfg = sparklet::ClusterConfig::TinyTest();
  cfg.local_storage_bytes = 16ULL * kGiB;
  return cfg;
}

/// Hardware-concurrency pool the suites' pooled kernel configs fan out on.
inline ThreadPool& TestKernelPool() {
  static ThreadPool pool(0);
  return pool;
}

/// One named kernel config of an equivalence sweep.
struct NamedKernel {
  const char* name;
  linalg::KernelTuning kernel;
};

/// The two threading configs every equivalence suite sweeps, under
/// `semiring`: kernels inline ("tiled") and fanned out on TestKernelPool
/// ("tiled_parallel"). Both must reproduce the scalar oracles bitwise.
inline std::vector<NamedKernel> KernelConfigs(
    linalg::SemiringId semiring = linalg::SemiringId::kMinPlus) {
  linalg::KernelTuning inline_kernel;
  inline_kernel.semiring = semiring;
  linalg::KernelTuning pooled = inline_kernel;
  pooled.pool = &TestKernelPool();
  return {{"tiled", inline_kernel}, {"tiled_parallel", pooled}};
}

/// TestCluster whose executors run their kernels under `kernel`.
inline sparklet::ClusterConfig TestCluster(const linalg::KernelTuning& kernel) {
  auto cfg = TestCluster();
  cfg.kernel = kernel;
  return cfg;
}

/// An APSP request for `kind` with `options` on `cluster`.
inline apsp::SolveRequest ApspRequest(
    apsp::SolverKind kind, const apsp::ApspOptions& options,
    const sparklet::ClusterConfig& cluster = TestCluster()) {
  apsp::SolveRequest request;
  request.solver = kind;
  request.options = options;
  request.cluster = cluster;
  return request;
}

/// A KSSP request from `sources` with `options` on `cluster`.
inline apsp::SolveRequest KsspRequest(
    const std::vector<graph::VertexId>& sources,
    const apsp::ApspOptions& options,
    const sparklet::ClusterConfig& cluster = TestCluster()) {
  apsp::SolveRequest request;
  request.options = options;
  request.sources = sources;
  request.cluster = cluster;
  return request;
}

/// Bitwise block comparator: shapes, infinity patterns, and payload bit
/// patterns must match exactly. On mismatch, reports the first differing
/// element with full precision.
inline void ExpectBitwiseEqual(const linalg::DenseBlock& actual,
                               const linalg::DenseBlock& expected,
                               const std::string& label = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << label;
  ASSERT_EQ(actual.cols(), expected.cols()) << label;
  ASSERT_EQ(actual.is_phantom(), expected.is_phantom()) << label;
  if (actual.is_phantom()) return;
  // Bit-packed operands (boolean plane) compare element-wise through At(),
  // which reads packed and dense representations transparently — a packed
  // block must equal its dense 0/1 image exactly.
  if (!actual.is_packed() && !expected.is_packed()) {
    const std::size_t bytes =
        static_cast<std::size_t>(actual.size()) * sizeof(double);
    if (std::memcmp(actual.data(), expected.data(), bytes) == 0) return;
  }
  for (std::int64_t r = 0; r < actual.rows(); ++r) {
    for (std::int64_t c = 0; c < actual.cols(); ++c) {
      const double a = actual.At(r, c);
      const double e = expected.At(r, c);
      if (std::memcmp(&a, &e, sizeof(double)) != 0) {
        ADD_FAILURE() << label << ": first bitwise mismatch at (" << r << ", "
                      << c << "): actual "
                      << ::testing::PrintToString(a) << " vs expected "
                      << ::testing::PrintToString(e) << " (diff " << (a - e)
                      << ")";
        return;
      }
    }
  }
}

/// Two Erdős–Rényi components with no inter-component edges: distances
/// across the cut must stay +inf all the way through a solver.
inline graph::Graph TwoComponentGraph(graph::VertexId n_each,
                                      std::uint64_t seed_a,
                                      std::uint64_t seed_b,
                                      bool directed = false) {
  graph::Graph g(2 * n_each, directed);
  const graph::Graph a = graph::PaperErdosRenyi(n_each, seed_a);
  for (const auto& e : a.edges()) g.AddEdge(e.u, e.v, e.weight).CheckOk();
  const graph::Graph b = graph::PaperErdosRenyi(n_each, seed_b);
  for (const auto& e : b.edges()) {
    g.AddEdge(e.u + n_each, e.v + n_each, e.weight).CheckOk();
  }
  return g;
}

struct RandomGraphOptions {
  graph::VertexId min_vertices = 2;
  graph::VertexId max_vertices = 96;
  /// Draw directed graphs with probability ~0.3.
  bool allow_directed = true;
  /// Round weights to integers in [1, 10]. Integer weights make every path
  /// sum exact in double precision, so two algorithmically different solvers
  /// must agree *bitwise* — the strongest oracle a randomized suite can use.
  bool integer_weights = false;
};

/// Random test graph spanning the regimes the solvers must survive:
/// inf-heavy sparse (often naturally disconnected), paper-density, dense;
/// directed or undirected; occasionally forced into two disconnected
/// components. Weights are always positive (negative-free).
inline graph::Graph RandomTestGraph(Xoshiro256& rng,
                                    const RandomGraphOptions& opts = {}) {
  const graph::VertexId n =
      opts.min_vertices +
      static_cast<graph::VertexId>(rng.NextBounded(static_cast<std::uint64_t>(
          opts.max_vertices - opts.min_vertices + 1)));
  const bool directed = opts.allow_directed && rng.NextDouble() < 0.3;

  graph::Graph g(0);
  if (!directed && n >= 8 && rng.NextDouble() < 0.2) {
    g = TwoComponentGraph(n / 2, rng.Next(), rng.Next());
  } else {
    const double mode = rng.NextDouble();
    double p;
    if (mode < 0.3) {
      p = 1.5 / static_cast<double>(n);  // inf-heavy, usually disconnected
    } else if (mode < 0.6) {
      p = graph::PaperEdgeProbability(n);
    } else {
      p = 0.15 + 0.25 * rng.NextDouble();  // dense-ish
    }
    g = graph::ErdosRenyi(n, p, {1.0, 10.0}, rng.Next(), directed);
  }
  if (!opts.integer_weights) return g;

  graph::Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return gi;
}

}  // namespace apspark::test
