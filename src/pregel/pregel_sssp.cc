#include "pregel/pregel_sssp.h"

#include <algorithm>
#include <cmath>

#include "graph/csr.h"
#include "linalg/kernels.h"

namespace apspark::pregel {

using graph::VertexId;
using linalg::BlockPtr;
using linalg::DenseBlock;
using linalg::kInf;
using sparklet::RddPtr;
using sparklet::TaskContext;

namespace internal {

/// Vertex value / combiner for the Pregel loop: the resident distance
/// vector, the (min-combined) incoming message, and a changed flag.
struct Payload {
  BlockPtr state;    // resident distance vector (may be null for messages)
  BlockPtr message;  // min-combined incoming messages (may be null)
  bool changed = false;
};

using VertexRecord = std::pair<std::int64_t, Payload>;

}  // namespace internal
}  // namespace apspark::pregel

namespace apspark::sparklet {
// Shuffle accounting: a Pregel record carries its distance vector(s), so
// message volume scales with the landmark count — the effect that makes
// landmark-APSP explode.
template <>
struct Serde<apspark::pregel::internal::Payload> {
  static std::uint64_t SizeOf(
      const apspark::pregel::internal::Payload& p) noexcept {
    return 1 + (p.state ? p.state->SerializedBytes() : 0) +
           (p.message ? p.message->SerializedBytes() : 0);
  }
};
}  // namespace apspark::sparklet

namespace apspark::pregel {

using internal::Payload;
using internal::VertexRecord;

namespace {

BlockPtr MinVectors(const BlockPtr& a, const BlockPtr& b, TaskContext& tc) {
  if (!a) return b;
  if (!b) return a;
  tc.ChargeCompute(tc.cost_model().ElementwiseSeconds(a->size()));
  return linalg::MakeBlock(linalg::ElementMin(*a, *b, tc.kernel()));
}

/// True if any entry of `candidate` beats `current` (phantom: assume yes,
/// the caller bounds the supersteps instead).
bool Improves(const BlockPtr& current, const BlockPtr& candidate) {
  if (!candidate) return false;
  if (current->is_phantom() || candidate->is_phantom()) return true;
  for (std::int64_t i = 0; i < current->size(); ++i) {
    if (candidate->data()[i] < current->data()[i]) return true;
  }
  return false;
}

}  // namespace

double ModelSuperstepSeconds(std::int64_t n, double avg_degree,
                             const sparklet::ClusterConfig& cluster,
                             const linalg::CostModel& model) {
  const double nd = static_cast<double>(n);
  // Every vertex sends its n-slot vector to every neighbour: the message
  // volume is ~ (sum of degrees) * n * 8 bytes per superstep, all of it
  // through the shuffle; combining and updating costs ~2 ops per entry.
  const double message_bytes = nd * avg_degree * nd * 8.0;
  const double wire =
      message_bytes * cluster.shuffle_compression /
      (cluster.network.bandwidth_bytes_per_sec * cluster.nodes);
  const double serde = message_bytes * cluster.serde_seconds_per_byte /
                       cluster.total_cores();
  const double combine =
      model.ElementwiseSeconds(static_cast<std::int64_t>(nd * avg_degree *
                                                         nd)) /
      cluster.total_cores() * 2.0;
  return wire + serde + combine;
}

PregelResult ShortestPaths(const graph::Graph& g,
                           const std::vector<VertexId>& landmarks,
                           const PregelOptions& options,
                           const sparklet::ClusterConfig& cluster) {
  PregelResult result;
  const VertexId n = g.num_vertices();
  const auto k = static_cast<std::int64_t>(landmarks.size());
  if (k == 0) {
    result.status = InvalidArgumentError("no landmarks given");
    return result;
  }
  sparklet::SparkletContext ctx(cluster);
  // Vertex programs relax in (min, +), whatever semiring the cluster's
  // kernel config names.
  linalg::KernelTuning kernel = cluster.kernel;
  kernel.semiring = linalg::SemiringId::kMinPlus;
  ctx.set_kernel(kernel);
  auto csr = std::make_shared<const graph::Csr>(g);

  // Initial vertex states: inf everywhere, 0 in the own-landmark slot.
  std::vector<VertexRecord> init;
  init.reserve(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    if (options.phantom) {
      init.push_back({v, {linalg::MakeBlock(DenseBlock::Phantom(1, k)),
                          nullptr, true}});
      continue;
    }
    DenseBlock dists(1, k, kInf);
    for (std::int64_t l = 0; l < k; ++l) {
      if (landmarks[static_cast<std::size_t>(l)] == v) dists.Set(0, l, 0.0);
    }
    init.push_back({v, {linalg::MakeBlock(std::move(dists)), nullptr, true}});
  }
  auto partitioner =
      sparklet::MakePortableHash<std::int64_t>(options.num_partitions);
  auto vertices = ctx.ParallelizePartitioned("pregel-v", init, partitioner);
  ctx.cluster().Reset();

  const std::int64_t max_steps =
      options.max_supersteps > 0 ? options.max_supersteps : n;
  std::int64_t step = 0;
  try {
    for (; step < max_steps; ++step) {
      // sendMsg: changed vertices relax along their out-edges.
      auto messages = vertices->FlatMap<VertexRecord>(
          "pregel-messages",
          [csr](const VertexRecord& rec, TaskContext& tc,
                std::vector<VertexRecord>& out) {
            const auto& [v, payload] = rec;
            if (!payload.changed) return;
            for (const auto& nb : csr->Neighbors(v)) {
              BlockPtr relaxed;
              if (payload.state->is_phantom()) {
                relaxed = payload.state;
              } else {
                DenseBlock m = *payload.state;
                for (double& d : m) d += nb.weight;
                relaxed = linalg::MakeBlock(std::move(m));
              }
              tc.ChargeCompute(
                  tc.cost_model().ElementwiseSeconds(payload.state->size()));
              out.push_back({nb.to, Payload{nullptr, relaxed, false}});
            }
          });

      // mergeMsg + vprog: shuffle states and messages together, min-combine.
      auto tagged_vertices = vertices->Map(
          "pregel-tag", [](const VertexRecord& rec, TaskContext&) {
            VertexRecord copy = rec;
            copy.second.message = nullptr;
            return copy;
          });
      auto combined = sparklet::CombineByKey<std::int64_t, Payload, Payload>(
          ctx.Union("pregel-union", {tagged_vertices, messages}), partitioner,
          "pregel-combine",
          [](Payload&& p) { return p; },
          [](Payload& acc, Payload&& p, TaskContext& tc) {
            if (p.state) acc.state = p.state;
            if (p.message) acc.message = MinVectors(acc.message, p.message, tc);
          },
          [](Payload& acc, Payload&& p, TaskContext& tc) {
            if (p.state) acc.state = p.state;
            if (p.message) acc.message = MinVectors(acc.message, p.message, tc);
          });
      vertices = combined
                     ->Map("pregel-update",
                           [](const VertexRecord& rec, TaskContext& tc) {
                             const auto& [v, payload] = rec;
                             Payload next;
                             next.changed = Improves(payload.state,
                                                     payload.message);
                             next.state = payload.message
                                              ? MinVectors(payload.state,
                                                           payload.message, tc)
                                              : payload.state;
                             return VertexRecord{v, next};
                           })
                     ->Persist();
      vertices->EnsureMaterialized();

      // voteToHalt: stop when no vertex improved. (Phantom mode cannot
      // inspect values; it runs to the superstep bound.)
      if (!options.phantom) {
        auto active =
            vertices
                ->Filter("pregel-active",
                         [](const VertexRecord& rec) {
                           return rec.second.changed;
                         })
                ->Count();
        if (active == 0) {
          ++step;
          break;
        }
      }
    }
    result.status = Status::Ok();
  } catch (const sparklet::SparkletAbort& abort) {
    result.status = abort.status();
  }

  result.supersteps = step;
  result.sim_seconds = ctx.now_seconds();
  result.metrics = ctx.metrics();
  if (result.status.ok() && !options.phantom) {
    DenseBlock out(n, k, kInf);
    for (const auto& [v, payload] : vertices->Collect()) {
      for (std::int64_t l = 0; l < k; ++l) {
        out.Set(v, l, payload.state->At(0, l));
      }
    }
    result.distances = std::move(out);
  }
  return result;
}

PregelResult AllPairs(const graph::Graph& g, const PregelOptions& options,
                      const sparklet::ClusterConfig& cluster) {
  std::vector<VertexId> landmarks(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    landmarks[static_cast<std::size_t>(v)] = v;
  }
  return ShortestPaths(g, landmarks, options, cluster);
}

}  // namespace apspark::pregel
