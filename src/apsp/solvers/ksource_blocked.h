// Batched k-source shortest paths (KSSP) on the kernel registry.
//
// The paper's building blocks solve APSP; the same blocked min-plus algebra
// solves the far more common k-source problem as a rectangular n x k
// frontier F, F(v, j) = dist(sources[j] -> v). The solver sweeps the blocked
// Floyd-Warshall pivots of A with the APSP solvers' own round phases and,
// per pivot t, folds the pivot's column factors into a *resident* frontier
// with two rectangular updates:
//
//   P_t  = min(F_t, A*_tt (min,+) F_t)        (pivot panel through the
//                                              closed diagonal)
//   F_I  = min(F_I, A_It  (min,+) P_t)        (every panel through the
//                                              phase-2-updated column cross)
//
// Invariant (same induction as blocked FW): after pivot t, F(v, j) is the
// shortest v -> sources[j] distance using intermediates from block rows
// 0..t; after the last pivot F = A* (min,+) F_0 exactly. Directed inputs
// are swept on the transposed adjacency so columns come out source-rooted.
//
// Two data-movement variants implement the sweep:
//
//   kStagedStorage (default) — like Blocked-CB, impure: pivot blocks, column
//   factors, and the pivot panel travel through shared persistent storage.
//   The matrix phases are Blocked-CB's (namespace cb in
//   blocked_collect_broadcast.h); the plane adds only the pivot panel and
//   the frontier fold.
//
//   kShuffleReplicated — *pure*: no shared-storage side channel at all. The
//   matrix phases are Blocked In-Memory's (namespace im in
//   blocked_inmemory.h: CopyDiag / Phase2 / CopyCol / Phase3 through
//   custom-partitioned shuffles), and the frontier factors replicate
//   through the shuffle too: round A pairs the
//   closed diagonal with panel t to form P_t, round B scatters P_t plus the
//   per-panel left factors A_It to every panel and folds them in with one
//   rectangular update. Fault-tolerant by construction (everything stays in
//   the RDD lineage) at the price of shuffling the replicas — with the
//   zero-copy record plane, the replicas are refs, so the driver's live-byte
//   high water stays at the final panel collect instead of a full cross per
//   pivot (see MemoryAccountant).
//
// Early-exit pivot sweep: when a pivot's cross (every stored off-diagonal
// block of block row/column t) is entirely the semiring's annihilator —
// all-infinite under (min, +), routine for disconnected or inf-heavy graphs
// — phases 2/3 and the frontier factor sweep are provably no-ops and are
// skipped; only the diagonal closure and the pivot-panel update run.
// Detection scans the cross blocks through the semiring's IsZero (charged
// like the element-wise kernel it is) and never fires for phantom blocks,
// whose structure is unknown.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "apsp/solver.h"

namespace apspark::apsp {

/// The KSSP workload for RunSolve: `blocks` must outlive it (restarts
/// reseed from them); the frontier is built from `sources` — real panels in
/// the options' semiring, or phantom ones of the same shape when `phantom`.
std::unique_ptr<Workload> MakeKsourceWorkload(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const std::vector<BlockRecord>& blocks,
    const std::vector<graph::VertexId>& sources, const ApspOptions& opts,
    bool phantom);

// KsourceOptions and KsourceBlockedSolver exist only for the end-to-end
// benchmark (perfbench/), which names them; the two members forward to the
// one entry point, and everything else calls apsp::Solve/SolveModel.
using KsourceOptions = ApspOptions;

class KsourceBlockedSolver {
 public:
  ApspRunResult SolveGraph(const graph::Graph& graph,
                           const std::vector<graph::VertexId>& sources,
                           const KsourceOptions& opts,
                           const sparklet::ClusterConfig& cluster) {
    return Solve(graph, Request(sources, opts, cluster)).run;
  }

  ApspRunResult SolveModel(std::int64_t n, std::int64_t num_sources,
                           const KsourceOptions& opts,
                           const sparklet::ClusterConfig& cluster) {
    const std::vector<graph::VertexId> sources(
        static_cast<std::size_t>(std::max<std::int64_t>(0, num_sources)));
    return apsp::SolveModel(n, Request(sources, opts, cluster)).run;
  }

 private:
  static SolveRequest Request(const std::vector<graph::VertexId>& sources,
                              const KsourceOptions& opts,
                              const sparklet::ClusterConfig& cluster) {
    SolveRequest request;
    request.options = opts;
    request.sources = sources;
    request.cluster = cluster;
    return request;
  }
};

}  // namespace apspark::apsp
