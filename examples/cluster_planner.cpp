// Capacity/configuration planner: before renting 1,024 cores, sweep solver,
// block size and partitioner on the virtual cluster (phantom blocks — no
// graph data needed) and print a recommendation. This automates the paper's
// §5.2-§5.3 tuning discussion: "the block size should be selected
// carefully" and "programmer should not depend on default options".
//
// Usage: cluster_planner [n] [cores]   (defaults: n = 131072, cores = 1024)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "common/time_utils.h"

int main(int argc, char** argv) {
  using namespace apspark;
  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 131072;
  const int cores = argc > 2 ? std::atoi(argv[2]) : 1024;
  auto cluster = sparklet::ClusterConfig::PaperWithCores(cores);
  std::printf("planning APSP of n = %lld on: %s\n", static_cast<long long>(n),
              cluster.Summary().c_str());
  std::printf("%-14s %-6s %-4s %12s %14s %12s\n", "solver", "b", "part",
              "per-round", "projected", "spill/node");

  struct Best {
    double seconds = std::numeric_limits<double>::infinity();
    std::string description;
  } best;

  for (auto kind : {apsp::SolverKind::kBlockedInMemory,
                    apsp::SolverKind::kBlockedCollectBroadcast}) {
    const std::string name = apsp::SolverKindName(kind);
    for (std::int64_t b : {512LL, 1024LL, 1536LL, 2048LL, 3072LL}) {
      if (b >= n) continue;
      for (auto part : {apsp::PartitionerKind::kMultiDiagonal,
                        apsp::PartitionerKind::kPortableHash}) {
        apsp::SolveRequest request;
        request.solver = kind;
        request.options.block_size = b;
        request.options.partitioner = part;
        request.options.max_rounds = 1;  // one simulated round, then project
        request.cluster = cluster;
        const apsp::ApspRunResult result = apsp::SolveModel(n, request).run;
        std::string projected;
        if (!result.status.ok() || result.projected_storage_exceeded) {
          projected = "infeasible";
        } else {
          projected = FormatDuration(result.projected_seconds);
          if (result.projected_seconds < best.seconds) {
            best.seconds = result.projected_seconds;
            best.description = name + ", b = " + std::to_string(b) +
                               ", " + apsp::PartitionerKindName(part) +
                               " partitioner" +
                               (apsp::SolverKindPure(kind)
                                    ? " (fault-tolerant)"
                                    : " (NOT fault-tolerant)");
          }
        }
        std::printf("%-14s %-6lld %-4s %12s %14s %12s\n",
                    name.c_str(), static_cast<long long>(b),
                    apsp::PartitionerKindName(part),
                    FormatDuration(result.SecondsPerRound()).c_str(),
                    projected.c_str(),
                    FormatBytes(static_cast<std::uint64_t>(
                                    result.projected_spill_bytes))
                        .c_str());
      }
    }
  }
  if (best.seconds < std::numeric_limits<double>::infinity()) {
    std::printf("\nrecommendation: %s — estimated %s\n",
                best.description.c_str(),
                FormatDuration(best.seconds).c_str());
  } else {
    std::printf("\nno feasible configuration found — add nodes or storage\n");
  }
  return 0;
}
