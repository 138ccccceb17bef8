// Small-block scaling property suite for the work-stealing block-task
// scheduler: every kernel config (inline and pooled) must stay bitwise-equal
// to the scalar oracle on exactly the layouts the scheduler exists for —
// many small blocks (b in {64, 128}, q >= 8) — at the kernel level, as a raw
// task batch, and end-to-end through the solvers on the directed /
// disconnected graphs from test_support.h. Integer weights make every path
// sum exact in double precision, so bitwise equality is the oracle (see
// test_support.h).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apsp/building_blocks.h"
#include "apsp/api.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::SolverKind;
using linalg::DenseBlock;
using test::KernelConfigs;
using test::NamedKernel;


/// Block sizes the suite sweeps: both ISSUE sizes in optimized builds, the
/// smaller one only under unoptimized/sanitized builds (the b = 128 oracle
/// is a 1024^3 scalar Floyd-Warshall).
std::vector<std::int64_t> SmallBlockSizes() {
#ifdef NDEBUG
  return {64, 128};
#else
  return {64};
#endif
}

/// Random integer-weight matrix: zero diagonal, weights in [1, 10],
/// `inf_density` missing edges. Integer path sums are exact, so every
/// relaxation order yields bitwise-identical minima.
DenseBlock RandomIntMatrix(std::int64_t n, std::uint64_t seed,
                           double inf_density) {
  Xoshiro256 rng(seed);
  DenseBlock m(n, n, 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      m.Set(i, j, rng.NextDouble() < inf_density
                      ? linalg::kInf
                      : 1.0 + std::floor(rng.NextDouble() * 10.0));
    }
  }
  return m;
}

/// Same graph with weights floored to integers (the bitwise-oracle regime).
graph::Graph IntegerWeights(const graph::Graph& g) {
  graph::Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return gi;
}

// --- kernel level -----------------------------------------------------------

TEST(SchedulerScaling, BlockedFloydWarshallBitwiseAtSmallBlocks) {
  for (std::int64_t b : SmallBlockSizes()) {
    const std::int64_t n = 8 * b;  // q = 8 blocked tiles
    APSPARK_SEEDED_CASE(1234 + b);
    const DenseBlock m = RandomIntMatrix(n, 1234 + static_cast<std::uint64_t>(b),
                                         /*inf_density=*/0.25);
    DenseBlock oracle = m;
    linalg::ReferenceFloydWarshall(oracle);
    for (NamedKernel config : KernelConfigs()) {
      config.kernel.fw_block = b;
      DenseBlock out = m;
      linalg::FloydWarshallInPlace(out, config.kernel);
      test::ExpectBitwiseEqual(out, oracle,
                               std::string("fw b=") + std::to_string(b) +
                                   " kernel=" + config.name);
    }
  }
}

// --- task-batch level -------------------------------------------------------

TEST(SchedulerScaling, IndependentBlockUpdateBatchBitwise) {
  // One sparklet task batch's worth of independent block updates
  // C_ij = min(C_ij, A_i (min,+) B_j) — the unit the scheduler decomposes —
  // executed as q^2 stealable tasks and compared against the sequential
  // scalar loop.
  const std::int64_t q = 8;
  for (std::int64_t b : SmallBlockSizes()) {
    APSPARK_SEEDED_CASE(b);
    std::vector<DenseBlock> lhs;
    std::vector<DenseBlock> rhs;
    std::vector<DenseBlock> base;
    for (std::int64_t i = 0; i < q; ++i) {
      lhs.push_back(RandomIntMatrix(b, 100 + static_cast<std::uint64_t>(i),
                                    0.3));
      rhs.push_back(RandomIntMatrix(b, 200 + static_cast<std::uint64_t>(i),
                                    0.3));
    }
    for (std::int64_t u = 0; u < q * q; ++u) {
      base.push_back(RandomIntMatrix(b, 300 + static_cast<std::uint64_t>(u),
                                     0.3));
    }

    // Oracle: the fixed scalar kernel, sequentially.
    std::vector<DenseBlock> expected = base;
    for (std::int64_t u = 0; u < q * q; ++u) {
      const DenseBlock& a = lhs[static_cast<std::size_t>(u / q)];
      const DenseBlock& p = rhs[static_cast<std::size_t>(u % q)];
      linalg::MinPlusAccumulateRawNaive(
          b, b, b, a.data(), b, p.data(), b,
          expected[static_cast<std::size_t>(u)].mutable_data(), b,
          linalg::SemiringId::kMinPlus);
    }

    for (const NamedKernel& config : KernelConfigs()) {
      std::vector<DenseBlock> out = base;
      auto run_one = [&](std::size_t u) {
        const DenseBlock& a = lhs[u / static_cast<std::size_t>(q)];
        const DenseBlock& p = rhs[u % static_cast<std::size_t>(q)];
        linalg::MinPlusUpdate(a, p, out[u], config.kernel);
      };
      if (config.kernel.pool != nullptr) {
        config.kernel.pool->ParallelForTasks(
            static_cast<std::size_t>(q * q), run_one);
      } else {
        for (std::size_t u = 0; u < static_cast<std::size_t>(q * q); ++u) {
          run_one(u);
        }
      }
      for (std::size_t u = 0; u < static_cast<std::size_t>(q * q); ++u) {
        test::ExpectBitwiseEqual(
            out[u], expected[u],
            std::string("batch b=") + std::to_string(b) + " update " +
                std::to_string(u) + " kernel=" + config.name);
      }
    }
  }
}

// --- adaptive task granularity ----------------------------------------------

TEST(SchedulerScaling, TinyBlockBatchMergesGrainsAndStaysBitwise) {
  // At b = 8 a fused update's modelled cost (~1 µs) sits far below the
  // dispatch-overhead floor, so the batch decomposition merges many updates
  // into each stealable task. Results must stay bitwise-identical to the
  // unmerged decomposition AND to the sequential scalar loop.
  const std::int64_t q = 12;
  const std::int64_t b = 8;
  std::vector<apsp::FusedTriple> updates;
  std::vector<DenseBlock> expected;
  for (std::int64_t u = 0; u < q * q; ++u) {
    DenseBlock base = RandomIntMatrix(b, 900 + static_cast<std::uint64_t>(u),
                                      0.3);
    DenseBlock lhs = RandomIntMatrix(b, 910 + static_cast<std::uint64_t>(u),
                                     0.3);
    DenseBlock rhs = RandomIntMatrix(b, 920 + static_cast<std::uint64_t>(u),
                                     0.3);
    DenseBlock oracle = base;
    linalg::MinPlusAccumulateRawNaive(b, b, b, lhs.data(), b, rhs.data(), b,
                                      oracle.mutable_data(), b,
                                      linalg::SemiringId::kMinPlus);
    expected.push_back(std::move(oracle));
    updates.push_back({linalg::MakeRef(std::move(base)),
                       linalg::MakeRef(std::move(lhs)),
                       linalg::MakeRef(std::move(rhs))});
  }

  for (const NamedKernel& config : KernelConfigs()) {
    sparklet::SparkletContext ctx(test::TestCluster(config.kernel));
    // Sanity: the floor is live for this layout (each 8^3 update is cheap).
    ASSERT_GT(config.kernel.task_grain_floor_seconds, 0.0);
    auto tc = ctx.MakeTaskContext();
    auto batch_updates = updates;  // refs: copying the batch is free
    auto out = apsp::MinPlusIntoBatch(std::move(batch_updates), tc);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t u = 0; u < out.size(); ++u) {
      test::ExpectBitwiseEqual(
          *out[u], expected[u],
          std::string("tiny-b batch update ") + std::to_string(u) +
              " kernel=" + config.name);
    }
  }
}

TEST(SchedulerScaling, SolversTinyBlocksUnderGrainMerging) {
  // End-to-end at b = 4 (q = 16 on n = 64): every per-pivot batch is far
  // below the grain floor, so whole batches run as few merged tasks; the
  // stealing path with merged grains must stay bitwise on all solvers.
  const graph::Graph g = IntegerWeights(
      graph::ErdosRenyi(64, 0.15, {1.0, 10.0}, /*seed=*/5150));
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(oracle);
  for (const NamedKernel& config : KernelConfigs()) {
    const auto cluster = test::TestCluster(config.kernel);
    for (SolverKind kind :
         {SolverKind::kBlockedInMemory, SolverKind::kBlockedCollectBroadcast}) {
      ApspOptions opts;
      opts.block_size = 4;
      auto result = apsp::Solve(g, test::ApspRequest(kind, opts, cluster)).run;
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      test::ExpectBitwiseEqual(*result.distances, oracle,
                               std::string("tiny-b ") +
                                   apsp::SolverKindName(kind) + " kernel=" +
                                   config.name);
    }
  }
}

// --- solver level -----------------------------------------------------------

/// Solves `g` at block size 8 (q >= 8 for every n >= 64 here) under each
/// kernel config and checks the distance matrix bitwise against the scalar
/// oracle.
void ExpectSolversMatchOracle(const graph::Graph& g, const std::string& label) {
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(oracle);
  for (const NamedKernel& config : KernelConfigs()) {
    const auto cluster = test::TestCluster(config.kernel);
    for (SolverKind kind :
         {SolverKind::kBlockedInMemory, SolverKind::kBlockedCollectBroadcast}) {
      ApspOptions opts;
      opts.block_size = 8;
      auto result = apsp::Solve(g, test::ApspRequest(kind, opts, cluster)).run;
      ASSERT_TRUE(result.status.ok())
          << label << ": " << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value()) << label;
      test::ExpectBitwiseEqual(*result.distances, oracle,
                               label + " " + apsp::SolverKindName(kind) +
                                   " kernel=" + config.name);
    }
  }
}

TEST(SchedulerScaling, SolversSmallBlocksRandomGraphs) {
  Xoshiro256 rng(2026);
  for (int c = 0; c < 4; ++c) {
    const std::uint64_t seed = rng.Next();
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 crng(seed);
    test::RandomGraphOptions gopts;
    gopts.min_vertices = 64;
    gopts.max_vertices = 96;
    gopts.integer_weights = true;
    const graph::Graph g = test::RandomTestGraph(crng, gopts);
    ExpectSolversMatchOracle(g, "random case " + std::to_string(c));
  }
}

TEST(SchedulerScaling, SolversSmallBlocksDisconnectedGraph) {
  // Two components, no inter-component edges: the +inf cut must survive a
  // q = 10 small-block layout under the stealing path.
  const graph::Graph g = IntegerWeights(test::TwoComponentGraph(40, 11, 22));
  ExpectSolversMatchOracle(g, "two-component");
}

TEST(SchedulerScaling, SolversSmallBlocksDirectedGraph) {
  const graph::Graph g = IntegerWeights(
      graph::ErdosRenyi(72, 0.12, {1.0, 10.0}, /*seed=*/77, /*directed=*/true));
  ASSERT_TRUE(g.directed());
  ExpectSolversMatchOracle(g, "directed");
}

TEST(SchedulerScaling, KsourceSmallBlocksMatchesOracleColumns) {
  const graph::Graph g = IntegerWeights(test::TwoComponentGraph(40, 3, 4));
  const std::int64_t n = g.num_vertices();
  const std::vector<graph::VertexId> sources = {0, 17, 45, 79};
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(oracle);
  DenseBlock expected(n, static_cast<std::int64_t>(sources.size()),
                      linalg::kInf);
  for (std::int64_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      expected.Set(v, static_cast<std::int64_t>(j),
                   oracle.At(sources[j], v));
    }
  }
  for (const NamedKernel& config : KernelConfigs()) {
    const auto cluster = test::TestCluster(config.kernel);
    apsp::ApspOptions opts;
    opts.block_size = 8;  // q = 10
    auto result = apsp::Solve(g, test::KsspRequest(sources, opts, cluster)).run;
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    test::ExpectBitwiseEqual(*result.distances, expected,
                             std::string("ksource kernel=") + config.name);
  }
}

}  // namespace
}  // namespace apspark
