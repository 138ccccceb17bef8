// Tests for graph containers, generators and the exact shortest-path
// baselines (Dijkstra, Bellman-Ford, Johnson, sequential Floyd-Warshall).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/shortest_paths.h"
#include "linalg/kernels.h"

namespace apspark::graph {
namespace {

using linalg::kInf;

TEST(Graph, AddEdgeValidates) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 3, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(-1, 0, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 1, std::nan("")).ok());
}

TEST(Graph, DenseAdjacencyUndirected) {
  Graph g(3);
  g.AddEdge(0, 1, 2.5).CheckOk();
  g.AddEdge(0, 1, 4.0).CheckOk();  // parallel edge, heavier
  auto a = g.ToDenseAdjacency();
  EXPECT_EQ(a.At(0, 0), 0.0);
  EXPECT_EQ(a.At(0, 1), 2.5);  // min weight wins
  EXPECT_EQ(a.At(1, 0), 2.5);  // symmetric
  EXPECT_EQ(a.At(0, 2), kInf);
}

TEST(Graph, DenseAdjacencyDirected) {
  Graph g(2, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  auto a = g.ToDenseAdjacency();
  EXPECT_EQ(a.At(0, 1), 1.0);
  EXPECT_EQ(a.At(1, 0), kInf);
}

Status ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ReadEdgeListText(in).status();
}

TEST(GraphIo, HeaderDirectedFlagMustBeZeroOrOne) {
  EXPECT_TRUE(ParseEdgeList("apsp 3 0\n0 1 1\n").ok());
  EXPECT_TRUE(ParseEdgeList("apsp 3 1\n0 1 1\n").ok());
  for (const char* flag : {"2", "-1", "x", "1.5", "01"}) {
    const Status status =
        ParseEdgeList(std::string("apsp 3 ") + flag + "\n0 1 1\n");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(GraphIo, HeaderRejectsVertexCountWhosePlaneOverflows) {
  // n = 2^30 is the first count whose n * n * 8 bytes overflow int64.
  for (const char* n : {"3000000000", "1073741824", "9223372036854775807"}) {
    const Status status = ParseEdgeList(std::string("apsp ") + n + " 0\n");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << n;
    EXPECT_NE(status.message().find("line 1"), std::string::npos) << n;
  }
  EXPECT_TRUE(ParseEdgeList("apsp 1073741823 0\n").ok());
}

TEST(GraphIo, BinaryRejectsNegativeOrHugeVertexCountAndBadFlag) {
  const std::vector<std::uint8_t> good = SerializeGraph(Graph(3));
  ASSERT_TRUE(DeserializeGraph(good).ok());
  constexpr std::size_t kCountOffset = 8;  // after magic + version
  constexpr std::size_t kDirectedOffset = kCountOffset + sizeof(VertexId);
  for (const VertexId n : {VertexId{-1}, VertexId{3000000000}}) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + kCountOffset, &n, sizeof n);
    EXPECT_EQ(DeserializeGraph(bytes).status().code(),
              StatusCode::kInvalidArgument)
        << n;
  }
  std::vector<std::uint8_t> bytes = good;
  bytes[kDirectedOffset] = 2;
  EXPECT_EQ(DeserializeGraph(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Generators, PaperEdgeProbability) {
  // p_e = (1 + 0.1) ln(n) / n.
  EXPECT_NEAR(PaperEdgeProbability(1024), 1.1 * std::log(1024.0) / 1024.0,
              1e-12);
  EXPECT_EQ(PaperEdgeProbability(1), 0.0);
}

TEST(Generators, ErdosRenyiDeterministicInSeed) {
  const Graph a = PaperErdosRenyi(200, 5);
  const Graph b = PaperErdosRenyi(200, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
  const Graph c = PaperErdosRenyi(200, 6);
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  const VertexId n = 2000;
  const double p = 0.01;
  double total = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    total += static_cast<double>(
        ErdosRenyi(n, p, {1, 2}, seed).num_edges());
  }
  const double expected = p * static_cast<double>(n) * (n - 1) / 2.0;
  EXPECT_NEAR(total / 8.0, expected, expected * 0.05);
}

TEST(Generators, ErdosRenyiEdgesAreValidAndUnique) {
  const Graph g = ErdosRenyi(300, 0.05, {1, 2}, 9);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.u, 0);
    EXPECT_LT(e.u, 300);
    EXPECT_LT(e.u, e.v);  // generator emits u < v
    EXPECT_TRUE(seen.insert({e.u, e.v}).second) << "duplicate edge";
  }
}

TEST(Generators, ErdosRenyiDirectedCoversBothOrientations) {
  const Graph g = ErdosRenyi(100, 0.2, {1, 2}, 10, /*directed=*/true);
  bool up = false, down = false;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.u, e.v);
    (e.u < e.v ? up : down) = true;
  }
  EXPECT_TRUE(up);
  EXPECT_TRUE(down);
}

TEST(Generators, StructuredFamilies) {
  EXPECT_EQ(PathGraph(5).num_edges(), 4u);
  EXPECT_EQ(CycleGraph(5).num_edges(), 5u);
  EXPECT_EQ(StarGraph(5).num_edges(), 4u);
  EXPECT_EQ(CompleteGraph(5, {1, 2}, 1).num_edges(), 10u);
  EXPECT_EQ(GridGraph(3, 4).num_edges(),
            static_cast<std::size_t>(3 * 3 + 2 * 4));
}

TEST(Csr, NeighborsMatchEdges) {
  Graph g(4);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, 2.0).CheckOk();
  const Csr csr(g);
  EXPECT_EQ(csr.num_arcs(), 4u);  // undirected: both directions
  EXPECT_EQ(csr.Degree(1), 2u);
  EXPECT_EQ(csr.Degree(3), 0u);
}

TEST(ShortestPaths, DijkstraOnPath) {
  const Csr csr(PathGraph(5, 2.0));
  const auto dist = Dijkstra(csr, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[static_cast<std::size_t>(i)], 2.0 * i);
}

TEST(ShortestPaths, DijkstraUnreachableIsInf) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0).CheckOk();
  const auto dist = Dijkstra(Csr(g), 0);
  EXPECT_TRUE(std::isinf(dist[2]));
}

TEST(ShortestPaths, FloydWarshallMatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = PaperErdosRenyi(80, seed);
    EXPECT_TRUE(FloydWarshallAllPairs(g, 16).ApproxEquals(
        DijkstraAllPairs(g), 1e-9));
  }
}

TEST(ShortestPaths, JohnsonMatchesDijkstraNonNegative) {
  const Graph g = PaperErdosRenyi(60, 3);
  auto johnson = JohnsonAllPairs(g);
  ASSERT_TRUE(johnson.ok());
  EXPECT_TRUE(johnson->ApproxEquals(DijkstraAllPairs(g), 1e-9));
}

TEST(ShortestPaths, JohnsonHandlesNegativeEdgesInDigraph) {
  Graph g(4, /*directed=*/true);
  g.AddEdge(0, 1, 2.0).CheckOk();
  g.AddEdge(1, 2, -1.0).CheckOk();
  g.AddEdge(0, 2, 5.0).CheckOk();
  g.AddEdge(2, 3, 1.0).CheckOk();
  auto johnson = JohnsonAllPairs(g);
  ASSERT_TRUE(johnson.ok());
  EXPECT_EQ(johnson->At(0, 2), 1.0);  // 0 -> 1 -> 2
  EXPECT_EQ(johnson->At(0, 3), 2.0);
  // Validate against Floyd-Warshall, which also tolerates negative edges.
  EXPECT_TRUE(johnson->ApproxEquals(FloydWarshallAllPairs(g), 1e-9));
}

TEST(ShortestPaths, BellmanFordDetectsNegativeCycle) {
  Graph g(3, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, -3.0).CheckOk();
  g.AddEdge(2, 1, 1.0).CheckOk();
  EXPECT_EQ(BellmanFord(g, 0).status().code(), StatusCode::kAborted);
  auto johnson = JohnsonAllPairs(g);
  EXPECT_FALSE(johnson.ok());
}

TEST(ShortestPaths, DistancesFormAMetricOnConnectedGraph) {
  const Graph g = CompleteGraph(20, {1.0, 10.0}, 17);
  const auto d = DijkstraAllPairs(g);
  for (VertexId i = 0; i < 20; ++i) {
    EXPECT_EQ(d.At(i, i), 0.0);
    for (VertexId j = 0; j < 20; ++j) {
      // Dijkstra from different sources accumulates FP sums in different
      // orders; symmetry holds to rounding.
      EXPECT_NEAR(d.At(i, j), d.At(j, i), 1e-12);  // symmetry
      for (VertexId k = 0; k < 20; ++k) {
        EXPECT_LE(d.At(i, j), d.At(i, k) + d.At(k, j) + 1e-9);  // triangle
      }
    }
  }
}

TEST(Generators, SwissRollAndKnnGraphConnectivity) {
  const auto points = SwissRoll(150, 23);
  EXPECT_EQ(points.size(), 150u);
  const Graph g = KnnGraph(points, 8);
  EXPECT_GT(g.num_edges(), 150u * 4);  // >= kn/2 and deduplicated
  // Every vertex has at least k neighbours (symmetrized kNN).
  const Csr csr(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(csr.Degree(v), 8u);
  }
}

}  // namespace
}  // namespace apspark::graph
