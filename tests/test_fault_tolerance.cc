// Fault-tolerance subsystem: executor-loss simulation, lineage-driven
// recovery, checkpoint restart, and the seeded chaos harness.
//
// The paper's qualitative claim (§3, §4.5) is demonstrated end to end here:
// solvers built purely from RDD transformations (2D Floyd-Warshall,
// Blocked-IM, the shuffle-replicated KSSP plane) survive an injected
// executor loss by lineage recomputation — in place, no restart — while
// solvers that smuggle pivot data through shared persistent storage
// (Blocked-CB, Repeated Squaring, staged KSSP) abort with DATA_LOSS and
// complete through a checkpoint restart instead. Either way the result must
// be *bitwise* identical to the no-failure run and to the scalar oracle
// (integer weights make every path sum exact).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apsp/checkpoint.h"
#include "apsp/api.h"
#include "apsp/tuner.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "sparklet/rdd.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::BlockLayout;
using apsp::KsourceVariant;
using apsp::SolverKind;
using apsp::SolverKindName;
using graph::Graph;
using graph::VertexId;
using linalg::DenseBlock;
using sparklet::ClusterConfig;
using sparklet::FaultInjector;
using sparklet::SparkletAbort;
using sparklet::SparkletContext;
using sparklet::StageKind;
using test::ExpectBitwiseEqual;
using test::RandomTestGraph;
using test::TestCluster;

using IntPair = std::pair<std::int64_t, std::int64_t>;

std::vector<std::int64_t> Iota(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

/// Integer-weight random graph: bitwise-exact oracle comparisons.
Graph IntegerGraph(Xoshiro256& rng) {
  test::RandomGraphOptions opts;
  opts.min_vertices = 16;
  opts.max_vertices = 48;
  opts.integer_weights = true;
  return RandomTestGraph(rng, opts);
}

DenseBlock Oracle(const Graph& g) {
  DenseBlock d = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(d);
  return d;
}

// ---------------------------------------------------------------------------
// FaultInjector node plans
// ---------------------------------------------------------------------------

TEST(FaultInjectorNodePlans, FiresOnceAtArmedStage) {
  FaultInjector injector;
  injector.FailNode(1, 5);
  injector.FailNode(0, 7);
  EXPECT_FALSE(injector.empty());
  EXPECT_TRUE(injector.TakeNodeFailuresAt(4).empty());
  const auto at5 = injector.TakeNodeFailuresAt(5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0], 1);
  // Consumed: the same boundary yields nothing more.
  EXPECT_TRUE(injector.TakeNodeFailuresAt(5).empty());
  const auto at9 = injector.TakeNodeFailuresAt(9);
  ASSERT_EQ(at9.size(), 1u);
  EXPECT_EQ(at9[0], 0);
  EXPECT_TRUE(injector.empty());
  EXPECT_EQ(injector.injected_node_count(), 2u);
}

TEST(FaultInjectorNodePlans, LatePlansFireAtNextBoundary) {
  FaultInjector injector;
  injector.FailNode(0, 3);  // armed for a stage that already passed
  const auto fired = injector.TakeNodeFailuresAt(10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0);
}

TEST(FaultInjectorNodePlans, ClearDropsNodePlans) {
  FaultInjector injector;
  injector.FailNode(1, 2);
  injector.FailTask("x", 0);
  injector.Clear();
  EXPECT_TRUE(injector.empty());
  EXPECT_TRUE(injector.TakeNodeFailuresAt(100).empty());
}

TEST(FaultInjectorNodePlans, SameNodeMayFailRepeatedly) {
  FaultInjector injector;
  injector.FailNode(1, 2);
  injector.FailNode(1, 6);
  EXPECT_EQ(injector.TakeNodeFailuresAt(2).size(), 1u);
  EXPECT_EQ(injector.TakeNodeFailuresAt(6).size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine-level recovery
// ---------------------------------------------------------------------------

TEST(NodeLoss, DropsCachedPartitionsAndRecomputesThroughLineage) {
  SparkletContext ctx(TestCluster());
  auto rdd = ctx.Parallelize("data", Iota(40), 4)
                 ->Map("double",
                       [](const std::int64_t& x, sparklet::TaskContext&) {
                         return 2 * x;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();
  // Partitions 1 and 3 live on node 1 of the 2-node test cluster.
  EXPECT_GT(ctx.cluster().accountant().node_live_bytes(1), 0u);

  ctx.fault_injector().FailNode(1, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");  // boundary: the loss fires
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);
  EXPECT_EQ(ctx.cluster().LocalStorageUsed(1), 0u);
  // Elastic membership: the dead node leaves the cluster for good and its
  // slots rebalance onto the survivor.
  EXPECT_FALSE(ctx.cluster().placement().alive(1));
  EXPECT_EQ(ctx.cluster().live_nodes(), 1);
  EXPECT_EQ(ctx.metrics().migrated_partitions, 2u);  // slots 1 and 3 moved

  const auto after = rdd->Collect();
  EXPECT_EQ(before, after);
  EXPECT_GE(ctx.metrics().recomputed_tasks, 2u);  // partitions 1 and 3
  EXPECT_GT(ctx.metrics().recovery_seconds, 0.0);
  // Recomputed and re-cached on the surviving node: no partition maps to
  // the dead node afterwards, and the dead node's ledger stays empty.
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);
  EXPECT_GT(ctx.cluster().accountant().node_live_bytes(0), 0u);
  for (std::int64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(ctx.cluster().NodeOfPartition(p), 0) << "partition " << p;
  }
}

TEST(NodeLoss, ReleasedParentReplaysOnlyLostPartitionsAsRecovery) {
  // A lost partition of a cached RDD whose parent was released replays the
  // parent through lineage: only the partitions the loss needs, counted as
  // recovery, and the parent is released again once the child is cached
  // (Spark's rule: an unpersisted RDD recomputes but does not re-cache).
  SparkletContext ctx(TestCluster());
  int parent_tasks = 0;
  auto parent = ctx.Parallelize("data", Iota(40), 4)
                    ->Map("parent",
                          [&parent_tasks](const std::int64_t& x,
                                          sparklet::TaskContext&) {
                            if (x % 10 == 0) ++parent_tasks;  // once a task
                            return x + 1;
                          })
                    ->Persist();
  auto child = parent
                   ->Map("child",
                         [](const std::int64_t& x, sparklet::TaskContext&) {
                           return 2 * x;
                         })
                   ->Persist();
  child->EnsureMaterialized();
  parent->Unpersist();
  const std::uint64_t live_before =
      ctx.cluster().accountant().node_live_bytes(0) +
      ctx.cluster().accountant().node_live_bytes(1);
  parent_tasks = 0;

  ctx.fault_injector().FailNode(1, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");  // boundary: node 1 is lost
  const std::uint64_t recomputed = ctx.metrics().recomputed_tasks;
  const double recovery = ctx.metrics().recovery_seconds;
  child->EnsureMaterialized();

  std::vector<std::int64_t> expected;
  for (std::int64_t x = 0; x < 40; ++x) expected.push_back(2 * (x + 1));
  EXPECT_EQ(child->Collect(), expected);
  // Partitions 1 and 3 lived on node 1: the cached seed, the released
  // parent and the child each rebuild just those two, all as recovery.
  EXPECT_EQ(parent_tasks, 2);
  EXPECT_EQ(ctx.metrics().recomputed_tasks - recomputed, 6u);
  EXPECT_GT(ctx.metrics().recovery_seconds, recovery);
  EXPECT_FALSE(parent->materialized());
  EXPECT_EQ(parent->MaterializedRecordCount(), 0u);
  // Only the child is cached again, on the survivor.
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(0) +
                ctx.cluster().accountant().node_live_bytes(1),
            live_before);
}

TEST(NodeLoss, LostMapOutputsReplayBeforeReduceRecompute) {
  SparkletContext ctx(TestCluster());
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i * 3});
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  const auto stages_before = ctx.metrics().stages;
  auto before = shuffled->Collect();

  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  ASSERT_EQ(ctx.metrics().executor_failures, 1u);

  // The reduce partitions on node 0 were dropped; recomputing them finds
  // the map outputs from node 0 lost as well and replays those map tasks
  // first (a recovery stage), then rebuilds the reduce partitions from the
  // repaired files.
  auto after = shuffled->Collect();
  auto key_sorted = [](std::vector<IntPair> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(key_sorted(before), key_sorted(after));
  EXPECT_GT(ctx.metrics().stages, stages_before);
  EXPECT_GT(ctx.metrics().recomputed_tasks, 0u);
  EXPECT_GT(ctx.metrics().recovery_seconds, 0.0);
}

TEST(NodeLoss, LossAtReplayBoundaryForcesSecondReplay) {
  // Elastic membership makes a dead node stay dead, so the mid-recovery
  // second hit comes from a DIFFERENT node: node 0 dies at the next
  // boundary, node 1 at the boundary right after — which is the replay
  // stage itself. The second loss destroys outputs the first replay just
  // rebuilt (the slots had rebalanced onto node 1); they must stay lost
  // (loss epochs) and a second replay round must run before the reduce
  // side reads the files.
  auto cfg = TestCluster();
  cfg.nodes = 3;
  SparkletContext ctx(cfg);
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i * 5});
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  auto before = shuffled->Collect();

  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(0, s);
  ctx.fault_injector().FailNode(1, s + 1);
  ctx.cluster().RunStage({0.0}, "tick");
  ASSERT_EQ(ctx.metrics().executor_failures, 1u);

  auto after = shuffled->Collect();
  auto key_sorted = [](std::vector<IntPair> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(key_sorted(before), key_sorted(after));
  EXPECT_EQ(ctx.metrics().executor_failures, 2u);
  // Node 0 held map partitions 0 and 3; the second loss re-destroys the
  // rebalanced replays plus node 1's own partition, so at least two replay
  // rounds run, and the dropped reduce partitions recompute on top.
  EXPECT_GE(ctx.metrics().recomputed_tasks, 4u);
  // Everything ends on the sole survivor.
  EXPECT_EQ(ctx.cluster().live_nodes(), 1);
  for (std::int64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(ctx.cluster().NodeOfPartition(p), 2) << "partition " << p;
  }
}

TEST(NodeLoss, BackToBackSameNodeLossesSecondIsNoOp) {
  // Elastic membership: a node dies once. A second plan for the same node
  // at the very next boundary finds it already dead and must be a no-op —
  // no double-counted failure, no double rebalance.
  auto cfg = TestCluster();
  cfg.nodes = 3;
  SparkletContext ctx(cfg);
  auto rdd = ctx.Parallelize("data", Iota(30), 6)->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();

  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(1, s);
  ctx.fault_injector().FailNode(1, s + 1);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  const auto moved_once = ctx.metrics().migrated_partitions;
  ctx.cluster().RunStage({0.0}, "tick");  // second plan fires into a corpse
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  EXPECT_EQ(ctx.metrics().migrated_partitions, moved_once);
  EXPECT_EQ(ctx.cluster().live_nodes(), 2);

  EXPECT_EQ(rdd->Collect(), before);
}

TEST(NodeLoss, ImpureMapSideAbortsWithDataLoss) {
  SparkletContext ctx(TestCluster());
  ctx.DriverWriteShared("side-channel", std::vector<std::uint8_t>(8, 1),
                        1024);
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 20; ++i) data.push_back({i, i});
  // The map side of this shuffle reads the side channel: replaying it after
  // an executor loss is not sound, so recovery must refuse.
  auto tainted = ctx.Parallelize("pairs", data, 4)
                     ->Map("read-side",
                           [](const IntPair& rec, sparklet::TaskContext& tc) {
                             auto obj = tc.ReadShared("side-channel");
                             EXPECT_TRUE(obj.ok());
                             return rec;
                           });
  auto shuffled =
      PartitionBy(tainted, sparklet::MakePortableHash<std::int64_t>(4),
                  "tainted-by");
  shuffled->EnsureMaterialized();

  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  try {
    shuffled->Collect();
    FAIL() << "expected SparkletAbort(DATA_LOSS)";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kDataLoss);
  }
}

TEST(NodeLoss, LostCachedPartitionWithSideChannelReadsAbortsWithDataLoss) {
  SparkletContext ctx(TestCluster());
  ctx.DriverWriteShared("side-channel", std::vector<std::uint8_t>(8, 1),
                        1024);
  auto rdd = ctx.Parallelize("data", Iota(20), 4)
                 ->Map("read-side",
                       [](const std::int64_t& x, sparklet::TaskContext& tc) {
                         auto obj = tc.ReadShared("side-channel");
                         EXPECT_TRUE(obj.ok());
                         return x + 1;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  ctx.fault_injector().FailNode(1, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  try {
    rdd->Collect();
    FAIL() << "expected SparkletAbort(DATA_LOSS)";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kDataLoss);
  }
}

TEST(NodeLoss, PreservedShuffleBucketsAccountedToOwningNode) {
  SparkletContext ctx(TestCluster());
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i});
  const auto live0_before = ctx.cluster().accountant().node_live_bytes(0);
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  // Map partitions 0 and 2 ran on node 0: their preserved output bytes are
  // resident there (block-manager accounting), on top of cached partitions.
  const auto live0_after = ctx.cluster().accountant().node_live_bytes(0);
  EXPECT_GT(live0_after, live0_before);

  // Node loss releases the node's share of the preserved buckets (and its
  // cached partitions) without touching the other node's residency.
  const auto live1 = ctx.cluster().accountant().node_live_bytes(1);
  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(0), 0u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), live1);
}

TEST(StageKeys, RecoveryRerunsGetDistinctStageKeys) {
  SparkletContext ctx(TestCluster());
  auto rdd = ctx.Parallelize("data", Iota(24), 4)
                 ->Map("stamp",
                       [](const std::int64_t& x, sparklet::TaskContext& tc) {
                         tc.ChargeCompute(1e-6);
                         return x;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  rdd->DropPartition(1);
  rdd->EnsureMaterialized();
  rdd->DropPartition(2);
  rdd->EnsureMaterialized();
  // Each re-materialization suffixes the retry attempt, so per-stage
  // metrics and the accountant's peak windows never collide.
  std::vector<std::string> names;
  for (const auto& peak : ctx.cluster().accountant().stage_peaks()) {
    names.push_back(peak.stage);
  }
  int base = 0, r1 = 0, r2 = 0;
  for (const auto& name : names) {
    if (name == "stamp") ++base;
    if (name == "stamp#r1") ++r1;
    if (name == "stamp#r2") ++r2;
  }
  EXPECT_EQ(base, 1) << "original stage key must appear exactly once";
  EXPECT_EQ(r1, 1) << "first re-run must be suffixed #r1";
  EXPECT_EQ(r2, 1) << "second re-run must be suffixed #r2";
}

TEST(Stragglers, SpeculationBoundsHardStragglerTail) {
  auto cfg = ClusterConfig::TinyTest();
  cfg.straggler_spread = 0.0;
  cfg.straggler_factor = 20.0;
  cfg.straggler_every = 4;
  const std::vector<double> tasks(16, 1.0);

  sparklet::VirtualCluster plain(cfg);
  plain.RunStage(tasks, "stage");

  cfg.speculation = true;
  cfg.speculation_multiplier = 1.5;
  sparklet::VirtualCluster speculating(cfg);
  speculating.RunStage(tasks, "stage");

  EXPECT_GT(speculating.metrics().speculative_tasks, 0u);
  EXPECT_LT(speculating.now_seconds(), plain.now_seconds());
  // Deterministic: the same configuration reproduces the same stage time.
  sparklet::VirtualCluster again(cfg);
  again.RunStage(tasks, "stage");
  EXPECT_DOUBLE_EQ(again.now_seconds(), speculating.now_seconds());
}

TEST(Stragglers, SpeculationAppliesToRecoveryStages) {
  // Speculative re-execution is not reserved for normal stages: a lineage
  // replay is a stage like any other, and a hard straggler in it stretches
  // exactly the window where the job is already degraded. The same
  // configuration must bound the recovery stage's tail too.
  auto cfg = ClusterConfig::TinyTest();
  cfg.straggler_spread = 0.0;
  cfg.straggler_factor = 20.0;
  cfg.straggler_every = 4;
  const std::vector<double> replay(16, 1.0);

  sparklet::VirtualCluster plain(cfg);
  plain.RunStage(replay, "recover", StageKind::kRecovery);

  cfg.speculation = true;
  cfg.speculation_multiplier = 1.5;
  sparklet::VirtualCluster speculating(cfg);
  speculating.RunStage(replay, "recover", StageKind::kRecovery);

  EXPECT_GT(speculating.metrics().speculative_tasks, 0u);
  EXPECT_LT(speculating.now_seconds(), plain.now_seconds());
}

TEST(Stragglers, PlaceholderTasksDoNotTriggerSpeculation) {
  // Stages routinely carry zero-cost placeholders (surviving partitions of
  // a recovery re-run, non-lost entries of a replay plan). The speculation
  // median must ignore them — otherwise every real task looks like a
  // straggler and collapses to ~zero modelled time.
  auto cfg = ClusterConfig::TinyTest();
  cfg.straggler_spread = 0.0;
  cfg.speculation = true;
  sparklet::VirtualCluster cluster(cfg);
  std::vector<double> tasks(16, 0.0);
  tasks[3] = 1.0;  // the one partition actually recomputed
  cluster.RunStage(tasks, "recovery-like");
  EXPECT_EQ(cluster.metrics().speculative_tasks, 0u);
  EXPECT_GE(cluster.now_seconds(), 1.0);  // the real task runs in full
}

TEST(Checkpoint, RoundTripsFrontierPanels) {
  const Graph g = graph::PaperErdosRenyi(24, 7);
  const BlockLayout layout(24, 8);
  SparkletContext ctx(TestCluster());
  const auto blocks = layout.Decompose(g.ToDenseAdjacency());
  std::vector<apsp::PanelRecord> panels;
  for (std::int64_t i = 0; i < layout.q(); ++i) {
    DenseBlock p(layout.BlockDim(i), 3, 1.5 * static_cast<double>(i + 1));
    panels.push_back({i, linalg::MakeRef(std::move(p))});
  }
  apsp::SaveCheckpoint(ctx, layout, blocks, 2, panels);
  auto loaded = apsp::LoadCheckpoint(ctx, layout);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_round, 2);
  ASSERT_EQ(loaded->panels.size(), panels.size());
  for (std::size_t i = 0; i < panels.size(); ++i) {
    EXPECT_EQ(loaded->panels[i].first, panels[i].first);
    ExpectBitwiseEqual(*loaded->panels[i].second, *panels[i].second,
                       "panel " + std::to_string(i));
  }
  EXPECT_GT(ctx.metrics().shared_fs_read_bytes, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: the purity dichotomy
// ---------------------------------------------------------------------------

struct SolverRun {
  apsp::ApspRunResult result;
  sparklet::SimMetrics metrics;
};

SolverRun RunApsp(SolverKind kind, const Graph& g, std::int64_t block,
                  const std::vector<sparklet::NodeFailurePlan>& failures,
                  std::int64_t checkpoint_every, int nodes = 2) {
  const BlockLayout layout(g.num_vertices(), block, g.directed());
  auto cfg = TestCluster();
  cfg.nodes = nodes;
  SparkletContext ctx(cfg);
  ApspOptions opts;
  opts.block_size = block;
  opts.directed = g.directed();
  opts.checkpoint_every = checkpoint_every;
  opts.fail_nodes = failures;
  SolverRun run;
  run.result = apsp::Solve(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
      test::ApspRequest(kind, opts)).run;
  run.metrics = ctx.metrics();
  return run;
}

TEST(EndToEnd, PureSolversRecoverInPlaceBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 11);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedInMemory}) {
    // 4 nodes: both planned losses fire with survivors to rebalance onto
    // (the elastic cluster refuses to kill its last live node).
    auto clean = RunApsp(kind, gi, 10, {}, 0, /*nodes=*/4);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApsp(kind, gi, 10, {{1, 12}, {0, 25}}, 0, /*nodes=*/4);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 2u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recomputed_tasks, 0u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recovery_seconds, 0.0) << SolverKindName(kind);
    // Pure: lineage recovery, never a job restart.
    EXPECT_EQ(faulty.metrics.job_restarts, 0u) << SolverKindName(kind);
  }
}

TEST(EndToEnd, LossAtStageZeroBeforeAnyCache) {
  // The loss fires at the very first stage boundary, before any partition
  // was ever cached or shuffled: recovery has next to nothing to recompute,
  // the placement just rebalances, and the run proceeds bitwise-normally.
  const Graph g = graph::PaperErdosRenyi(32, 29);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  auto clean = RunApsp(SolverKind::kFloydWarshall2d, gi, 8, {}, 0);
  auto faulty = RunApsp(SolverKind::kFloydWarshall2d, gi, 8, {{1, 0}}, 0);
  ASSERT_TRUE(faulty.result.status.ok()) << faulty.result.status.ToString();
  ASSERT_TRUE(faulty.result.distances.has_value());
  ExpectBitwiseEqual(*faulty.result.distances, oracle, "loss at stage 0");
  ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                     "loss at stage 0 vs clean");
  EXPECT_EQ(faulty.metrics.executor_failures, 1u);
  EXPECT_EQ(faulty.metrics.job_restarts, 0u);
}

TEST(EndToEnd, Fw2dLateLossReplaysReleasedRoundsAsRecovery) {
  // 2D Floyd-Warshall caches only its latest round. A loss late in the
  // sweep rebuilds the lost partitions of that round through the released
  // rounds before it, back to the cached seed: every replay stage counts as
  // recovery and releases its round again, so the faulty run's memory stays
  // near the clean run's.
  const Graph g = graph::PaperErdosRenyi(64, 3);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  // Two stages a round (collect column k, update): stage 101 ends round 50.
  constexpr std::int64_t kLossStage = 101;
  constexpr std::uint64_t kReplayedRounds = 50;
  auto clean = RunApsp(SolverKind::kFloydWarshall2d, gi, 16, {}, 0, 4);
  auto faulty = RunApsp(SolverKind::kFloydWarshall2d, gi, 16,
                        {{1, kLossStage}}, 0, 4);
  ASSERT_TRUE(faulty.result.status.ok()) << faulty.result.status.ToString();
  ASSERT_TRUE(faulty.result.distances.has_value());
  ExpectBitwiseEqual(*faulty.result.distances, oracle, "late loss vs oracle");
  ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                     "late loss vs clean run");
  EXPECT_EQ(faulty.metrics.executor_failures, 1u);
  EXPECT_EQ(faulty.metrics.job_restarts, 0u);
  // Recovery covers the replay: the seed, the 50 released rounds and the
  // lost round each rebuild node 1's partitions (4 of 16: two per core on
  // 4 nodes x 2 cores), each in a recovery stage of its own.
  EXPECT_EQ(faulty.metrics.recomputed_tasks, 4 * (kReplayedRounds + 2));
  EXPECT_GE(faulty.metrics.recovery_seconds,
            static_cast<double>(kReplayedRounds + 2) *
                TestCluster().stage_overhead_seconds);
  // Replayed rounds do not stay cached.
  EXPECT_LE(faulty.metrics.node_peak_bytes,
            3 * clean.metrics.node_peak_bytes);
}

TEST(EndToEnd, ImpureSolversRestartFromCheckpointBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 13);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  for (SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kRepeatedSquaring}) {
    auto clean = RunApsp(kind, gi, 10, {}, 0);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApsp(kind, gi, 10, {{1, 14}}, /*checkpoint_every=*/1);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 1u) << SolverKindName(kind);
    EXPECT_GE(faulty.metrics.job_restarts, 1u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recovery_seconds, 0.0) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recomputed_tasks, 0u) << SolverKindName(kind);
  }
}

TEST(EndToEnd, RepeatedSquaringKeepsOneSquaringStaged) {
  // Each finished squaring erases the column segments the previous one
  // staged ("rs/<squaring>/..."). After the solve — clean, or after a loss
  // that lands past the first erase, with and without a checkpoint to
  // restart from — shared storage holds at most one squaring's segments,
  // and the result stays bitwise-locked to the oracle.
  const Graph g = graph::PaperErdosRenyi(40, 13);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  const BlockLayout layout(40, 10);  // q = 4, six squarings
  struct Case {
    std::vector<sparklet::NodeFailurePlan> failures;
    std::int64_t checkpoint_every;
  };
  for (const Case& c : {Case{{}, 0}, Case{{{1, 45}}, 4}, Case{{{1, 45}}, 0}}) {
    const std::string label =
        "loss " + std::string(c.failures.empty() ? "none" : "@45") +
        " checkpoint_every=" + std::to_string(c.checkpoint_every);
    SparkletContext ctx(TestCluster());
    ApspOptions opts;
    opts.block_size = 10;
    opts.checkpoint_every = c.checkpoint_every;
    opts.fail_nodes = c.failures;
    auto result = apsp::Solve(
        ctx, layout, layout.Decompose(gi.ToDenseAdjacency()),
        test::ApspRequest(SolverKind::kRepeatedSquaring, opts)).run;
    ASSERT_TRUE(result.status.ok()) << label << ": "
                                    << result.status.ToString();
    ExpectBitwiseEqual(*result.distances, oracle, label);
    EXPECT_EQ(result.metrics.executor_failures, c.failures.size()) << label;
    int staged_squarings = 0;
    for (int squaring = 0; squaring < 64; ++squaring) {
      const std::string prefix = "rs/" + std::to_string(squaring) + "/";
      if (ctx.shared_storage().ErasePrefix(prefix) > 0) ++staged_squarings;
    }
    EXPECT_LE(staged_squarings, 1) << label;
  }
}

TEST(FaultPlans, PlansPastTheJobsEndAreDisarmedWhenItEnds) {
  // A plan whose stage ordinal lies past the job's last stage never fires.
  // The solve reports it and disarms it, so a later job on the same
  // context — long enough to reach that ordinal — sees no loss.
  const Graph g = graph::PaperErdosRenyi(48, 61);
  const BlockLayout layout(48, 12);
  const auto blocks = layout.Decompose(g.ToDenseAdjacency());
  const SolverKind kind = SolverKind::kBlockedInMemory;
  ApspOptions one_round;
  one_round.block_size = 12;
  one_round.max_rounds = 1;
  ApspOptions full;
  full.block_size = 12;
  const auto stages = [&](const ApspOptions& opts) {
    SparkletContext ctx(TestCluster());
    return apsp::Solve(ctx, layout, blocks, test::ApspRequest(kind, opts))
        .run.metrics.stages;
  };
  const auto short_stages = static_cast<std::int64_t>(stages(one_round));
  const auto long_stages = static_cast<std::int64_t>(stages(full));
  ASSERT_LT(short_stages + 1, long_stages);
  const std::int64_t at = (short_stages + long_stages) / 2;

  SparkletContext ctx(TestCluster());
  ApspOptions first = one_round;
  first.fail_nodes = {{1, at}};
  first.add_nodes = {at};
  const auto run1 =
      apsp::Solve(ctx, layout, blocks, test::ApspRequest(kind, first)).run;
  ASSERT_TRUE(run1.status.ok()) << run1.status.ToString();
  EXPECT_EQ(run1.metrics.executor_failures, 0u);
  const std::string stage = " at stage " + std::to_string(at);
  EXPECT_EQ(run1.unfired_plans,
            (std::vector<std::string>{"node 1" + stage, "join" + stage}));
  EXPECT_TRUE(ctx.fault_injector().pending_node_plans().empty());
  EXPECT_TRUE(ctx.fault_injector().pending_join_plans().empty());

  const auto run2 =
      apsp::Solve(ctx, layout, blocks, test::ApspRequest(kind, full)).run;
  ASSERT_TRUE(run2.status.ok()) << run2.status.ToString();
  EXPECT_EQ(run2.metrics.executor_failures, 0u);
  EXPECT_EQ(run2.metrics.node_joins, 0u);
  EXPECT_TRUE(run2.unfired_plans.empty());
}

TEST(EndToEnd, ImpureSolverWithoutCheckpointRestartsFromScratch) {
  // Whether a given loss forces the impure path depends on where in the
  // round it lands (a loss before the first repartition materializes can
  // recover purely — the root RDD re-reads stable input and narrow chains
  // replay staged data that still exists). Sweep a window of stage
  // ordinals: every run must stay bitwise-correct, and the sweep must hit
  // at least one schedule that forces a restart-from-scratch.
  const Graph g = graph::PaperErdosRenyi(32, 17);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  std::uint64_t restarts_seen = 0;
  // Step 1, covering full rounds: CB runs ~4 stages per round, and only
  // some boundaries (e.g. a loss right after a repartition the next round
  // still needs) force the impure path.
  for (std::int64_t stage = 8; stage <= 15; ++stage) {
    auto faulty = RunApsp(SolverKind::kBlockedCollectBroadcast, gi, 8,
                          {{0, stage}}, /*checkpoint_every=*/0);
    ASSERT_TRUE(faulty.result.status.ok())
        << "stage " << stage << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value()) << "stage " << stage;
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       "cb scratch restart, loss at stage " +
                           std::to_string(stage));
    restarts_seen += faulty.metrics.job_restarts;
  }
  EXPECT_GE(restarts_seen, 1u)
      << "no schedule in the sweep forced a restart";
}

TEST(EndToEnd, RestartBudgetExhaustionSurfacesDataLoss) {
  // Same sweep as above with a zero restart budget: wherever the impure
  // path fires, the job must surface DATA_LOSS instead of restarting.
  const Graph g = graph::PaperErdosRenyi(32, 17);
  const BlockLayout layout(32, 8);
  int data_loss_seen = 0;
  for (std::int64_t stage = 8; stage <= 15; ++stage) {
    SparkletContext ctx(TestCluster());
    ApspOptions opts;
    opts.block_size = 8;
    opts.max_restarts = 0;  // no budget: the first impure loss is fatal
    opts.fail_nodes = {{0, stage}};
    auto result = apsp::Solve(
        ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
        test::ApspRequest(SolverKind::kBlockedCollectBroadcast, opts)).run;
    if (result.status.code() == StatusCode::kDataLoss) {
      ++data_loss_seen;
      EXPECT_FALSE(result.distances.has_value()) << "stage " << stage;
    }
  }
  EXPECT_GE(data_loss_seen, 1)
      << "no schedule in the sweep hit the impure path";
}

DenseBlock KsourceOracle(const Graph& g, const std::vector<VertexId>& sources) {
  DenseBlock d = Oracle(g);
  DenseBlock out(g.num_vertices(), static_cast<std::int64_t>(sources.size()),
                 linalg::kInf);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      out.Set(v, static_cast<std::int64_t>(j), d.At(sources[j], v));
    }
  }
  return out;
}

TEST(EndToEnd, KsourceStagedRestartsShuffleRecoversBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 23);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const std::vector<VertexId> sources = {0, 7, 19, 33};
  const DenseBlock oracle = KsourceOracle(gi, sources);
  for (const KsourceVariant variant : {KsourceVariant::kStagedStorage,
                                       KsourceVariant::kShuffleReplicated}) {
    ApspOptions opts;
    opts.block_size = 10;
    opts.variant = variant;
    opts.fail_nodes = {{1, 18}};
    if (variant == KsourceVariant::kStagedStorage) opts.checkpoint_every = 2;
    auto result = apsp::Solve(gi, test::KsspRequest(sources, opts)).run;
    ASSERT_TRUE(result.status.ok())
        << apsp::KsourceVariantName(variant) << ": "
        << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle,
                       apsp::KsourceVariantName(variant));
    EXPECT_EQ(result.metrics.executor_failures, 1u);
    EXPECT_GT(result.metrics.recovery_seconds, 0.0);
    if (apsp::KsourceVariantPure(variant)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u)
          << "pure variant must recover in place";
    } else {
      EXPECT_GE(result.metrics.job_restarts, 1u)
          << "staged variant must checkpoint-restart";
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded chaos property suite
// ---------------------------------------------------------------------------

TEST(Chaos, SeededRandomFailureSchedulesAllSolversBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 7919);
    const Graph g = IntegerGraph(rng);
    const DenseBlock oracle = Oracle(g);
    const std::int64_t block =
        4 + static_cast<std::int64_t>(rng.NextBounded(13));  // 4..16

    // 1-2 losses at random early stage boundaries on random nodes.
    std::vector<sparklet::NodeFailurePlan> schedule;
    const int failures = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < failures; ++i) {
      schedule.push_back(
          {static_cast<int>(rng.NextBounded(2)),
           static_cast<std::int64_t>(rng.NextBounded(40))});
    }

    for (SolverKind kind :
         {SolverKind::kRepeatedSquaring, SolverKind::kFloydWarshall2d,
          SolverKind::kBlockedInMemory,
          SolverKind::kBlockedCollectBroadcast}) {
      const bool pure = apsp::SolverKindPure(kind);
      auto run = RunApsp(kind, g, block, schedule,
                         /*checkpoint_every=*/pure ? 0 : 1);
      ASSERT_TRUE(run.result.status.ok())
          << SolverKindName(kind) << " seed " << seed << ": "
          << run.result.status.ToString();
      ASSERT_TRUE(run.result.distances.has_value());
      ExpectBitwiseEqual(*run.result.distances, oracle,
                         std::string(SolverKindName(kind)) + " seed " +
                             std::to_string(seed));
      if (pure) {
        EXPECT_EQ(run.metrics.job_restarts, 0u) << SolverKindName(kind);
      }
    }
  }
}

TEST(Chaos, SeededKsourceSchedules) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 104729);
    const Graph g = IntegerGraph(rng);
    const std::int64_t n = g.num_vertices();
    std::vector<VertexId> sources;
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    for (int j = 0; j < k; ++j) {
      sources.push_back(static_cast<VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const DenseBlock oracle = KsourceOracle(g, sources);
    std::vector<sparklet::NodeFailurePlan> schedule = {
        {static_cast<int>(rng.NextBounded(2)),
         static_cast<std::int64_t>(rng.NextBounded(30))}};
    for (const KsourceVariant variant : {KsourceVariant::kStagedStorage,
                                         KsourceVariant::kShuffleReplicated}) {
      ApspOptions opts;
      opts.block_size = 4 + static_cast<std::int64_t>(rng.NextBounded(13));
      opts.variant = variant;
      opts.directed = g.directed();
      opts.fail_nodes = schedule;
      if (!apsp::KsourceVariantPure(variant)) opts.checkpoint_every = 1;
      auto result = apsp::Solve(g, test::KsspRequest(sources, opts)).run;
      ASSERT_TRUE(result.status.ok())
          << apsp::KsourceVariantName(variant) << " seed " << seed << ": "
          << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value());
      ExpectBitwiseEqual(*result.distances, oracle,
                         std::string(apsp::KsourceVariantName(variant)) +
                             " seed " + std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive KSSP variant chooser
// ---------------------------------------------------------------------------

TEST(KsourceTuner, PrefersStagedOnFatSharedFs) {
  // The paper's testbed: GPFS sustains 16 GB/s aggregate while the GbE
  // fabric moves ~125 MB/s per node — staging through the shared FS wins.
  apsp::KsourceTuneRequest request;
  request.n = 16384;
  request.num_sources = 64;
  request.block_size = 1024;
  request.cluster = ClusterConfig::Paper();
  auto choice = apsp::ChooseKsourceVariant(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(*choice, KsourceVariant::kStagedStorage);
}

TEST(KsourceTuner, PrefersShuffleWhenSharedFsSlow) {
  // Starve the shared FS (an overloaded NFS appliance): per-file overhead
  // and low aggregate bandwidth make staging the bottleneck, so the
  // shuffle-replicated plane wins.
  apsp::KsourceTuneRequest request;
  request.n = 16384;
  request.num_sources = 64;
  request.block_size = 1024;
  request.cluster = ClusterConfig::Paper();
  request.cluster.shared_fs.aggregate_bandwidth_bytes_per_sec = 20.0e6;
  request.cluster.shared_fs.file_overhead_seconds = 0.25;
  auto choice = apsp::ChooseKsourceVariant(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(*choice, KsourceVariant::kShuffleReplicated);
}

TEST(KsourceTuner, FaultToleranceConstraintForcesShuffle) {
  apsp::KsourceTuneRequest request;
  request.n = 16384;
  request.num_sources = 64;
  request.block_size = 1024;
  request.cluster = ClusterConfig::Paper();
  request.require_fault_tolerance = true;
  auto choice = apsp::ChooseKsourceVariant(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(*choice, KsourceVariant::kShuffleReplicated);
}

TEST(KsourceTuner, RejectsInvalidRequests) {
  apsp::KsourceTuneRequest request;
  request.n = 1;
  request.num_sources = 4;
  EXPECT_FALSE(apsp::ChooseKsourceVariant(request).ok());
  request.n = 1024;
  request.num_sources = 0;
  EXPECT_FALSE(apsp::ChooseKsourceVariant(request).ok());
  request.num_sources = 4;
  request.block_size = 0;
  EXPECT_FALSE(apsp::ChooseKsourceVariant(request).ok());
}

}  // namespace
}  // namespace apspark
