// End-to-end validation: every Spark-style solver must produce distances
// identical (up to FP tolerance) to the Dijkstra ground truth, across graph
// families, block sizes, partitioners and cluster shapes.
#include <gtest/gtest.h>

#include "apsp/api.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::ApspRunResult;
using apsp::PartitionerKind;
using apsp::SolverKind;
using graph::Graph;
using test::TestCluster;

void ExpectMatchesDijkstra(const Graph& g, const ApspRunResult& result,
                           const std::string& label) {
  ASSERT_TRUE(result.status.ok()) << label << ": " << result.status.ToString();
  ASSERT_TRUE(result.distances.has_value()) << label;
  const linalg::DenseBlock truth = graph::DijkstraAllPairs(g);
  EXPECT_TRUE(result.distances->ApproxEquals(truth, 1e-9))
      << label << ": max diff " << result.distances->MaxAbsDiff(truth);
}

struct Case {
  SolverKind solver;
  std::int64_t block_size;
  PartitionerKind partitioner;
};

class SolverCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(SolverCorrectness, ErdosRenyi) {
  const Case c = GetParam();
  const Graph g = graph::PaperErdosRenyi(64, /*seed=*/7);
  ApspOptions opts;
  opts.block_size = c.block_size;
  opts.partitioner = c.partitioner;
  auto result = apsp::Solve(g, test::ApspRequest(c.solver, opts)).run;
  ExpectMatchesDijkstra(g, result, apsp::SolverKindName(c.solver));
}

TEST_P(SolverCorrectness, DisconnectedGraph) {
  const Case c = GetParam();
  // Two ER components with no inter-component edges: distances across must
  // stay +inf.
  const Graph g = test::TwoComponentGraph(20, /*seed_a=*/3, /*seed_b=*/4);
  ApspOptions opts;
  opts.block_size = c.block_size;
  opts.partitioner = c.partitioner;
  auto result = apsp::Solve(g, test::ApspRequest(c.solver, opts)).run;
  ExpectMatchesDijkstra(g, result, apsp::SolverKindName(c.solver));
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverCorrectness,
    ::testing::Values(
        Case{SolverKind::kRepeatedSquaring, 16, PartitionerKind::kMultiDiagonal},
        Case{SolverKind::kRepeatedSquaring, 17, PartitionerKind::kPortableHash},
        Case{SolverKind::kFloydWarshall2d, 16, PartitionerKind::kMultiDiagonal},
        Case{SolverKind::kFloydWarshall2d, 13, PartitionerKind::kPortableHash},
        Case{SolverKind::kBlockedInMemory, 16, PartitionerKind::kMultiDiagonal},
        Case{SolverKind::kBlockedInMemory, 11, PartitionerKind::kPortableHash},
        Case{SolverKind::kBlockedCollectBroadcast, 16,
             PartitionerKind::kMultiDiagonal},
        Case{SolverKind::kBlockedCollectBroadcast, 9,
             PartitionerKind::kPortableHash}),
    [](const auto& info) {
      const Case& c = info.param;
      std::string name;
      switch (c.solver) {
        case SolverKind::kRepeatedSquaring: name = "RS"; break;
        case SolverKind::kFloydWarshall2d: name = "FW2D"; break;
        case SolverKind::kBlockedInMemory: name = "IM"; break;
        case SolverKind::kBlockedCollectBroadcast: name = "CB"; break;
      }
      name += "_b" + std::to_string(c.block_size);
      name += c.partitioner == PartitionerKind::kMultiDiagonal ? "_MD" : "_PH";
      return name;
    });

TEST(SolverDirected, AllSolversMatchJohnsonOnDigraph) {
  const Graph g = graph::ErdosRenyi(48, 0.15, {1.0, 5.0}, /*seed=*/11,
                                    /*directed=*/true);
  auto truth = graph::JohnsonAllPairs(g);
  ASSERT_TRUE(truth.ok());
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 16;
    opts.directed = true;
    auto result = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(result.status.ok()) << apsp::SolverKindName(kind);
    ASSERT_TRUE(result.distances.has_value()) << apsp::SolverKindName(kind);
    EXPECT_TRUE(result.distances->ApproxEquals(*truth, 1e-9))
        << apsp::SolverKindName(kind) << ": max diff "
        << result.distances->MaxAbsDiff(*truth);
  }
}

}  // namespace
}  // namespace apspark
