// Reentrancy: solves and kernels running concurrently on different threads
// must not observe each other's kernel configs. Every solve resolves its own
// config (the cluster's ISA, tiles and pool, the request's semiring) and
// hands it down through the task context; every kernel takes its config as
// an argument. Each concurrent result is checked bitwise against a serial
// run of the same request.
//
// The requests deliberately differ in everything a config carries —
// semiring, forced ISA, tile geometry, inline vs pooled — so a config that
// leaked from one thread into another would change some result. Built under
// -DAPSPARK_SANITIZE=thread, this suite is the TSan check of the solve path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apsp/api.h"
#include "graph/generators.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::SolveRequest;
using linalg::DenseBlock;
using linalg::KernelTuning;
using linalg::SemiringId;
using linalg::SimdIsa;

/// The widest ISA this host runs, at most `want` (scalar always runs).
SimdIsa Isa(SimdIsa want) { return linalg::ResolveSimdIsa(want); }

struct NamedRequest {
  std::string name;
  SolveRequest request;
};

/// Blocked-IM at n = 256, b = 32 in all four semirings plus one KSSP plane,
/// each under its own ISA, tiles and threading.
std::vector<NamedRequest> Requests() {
  struct Variant {
    SemiringId semiring;
    SimdIsa isa;
    std::int64_t tile_j, tile_k, fw_block;
    bool pooled;
  };
  const Variant variants[] = {
      {SemiringId::kMinPlus, SimdIsa::kScalar, 1024, 128, 128, false},
      {SemiringId::kMaxMin, Isa(SimdIsa::kAvx2), 64, 8, 16, true},
      {SemiringId::kMaxTimes, Isa(SimdIsa::kAvx512), 32, 16, 8, false},
      {SemiringId::kBoolean, SimdIsa::kScalar, 128, 32, 16, true},
  };
  std::vector<NamedRequest> out;
  for (const Variant& v : variants) {
    KernelTuning kernel;
    kernel.isa = v.isa;
    kernel.tile_j = v.tile_j;
    kernel.tile_k = v.tile_k;
    kernel.fw_block = v.fw_block;
    if (v.pooled) kernel.pool = &test::TestKernelPool();
    ApspOptions opts;
    opts.block_size = 32;
    opts.semiring = v.semiring;
    NamedRequest named;
    named.name = std::string("im/") + linalg::SemiringName(v.semiring) + "/" +
                 linalg::SimdIsaName(v.isa) + (v.pooled ? "/pool" : "/inline");
    named.request = test::ApspRequest(apsp::SolverKind::kBlockedInMemory, opts,
                                      test::TestCluster(kernel));
    out.push_back(std::move(named));
  }
  // One KSSP plane: the rect-kernel path, min-plus, tiles of its own.
  KernelTuning kernel;
  kernel.isa = Isa(SimdIsa::kAvx2);
  kernel.tile_j = 256;
  kernel.tile_k = 64;
  ApspOptions opts;
  opts.block_size = 32;
  opts.variant = apsp::KsourceVariant::kShuffleReplicated;
  std::vector<graph::VertexId> sources;
  for (graph::VertexId s = 0; s < 256; s += 9) sources.push_back(s);
  out.push_back({"kssp/shuffle/minplus",
                 test::KsspRequest(sources, opts, test::TestCluster(kernel))});
  return out;
}

TEST(ConcurrentSolves, EachResultMatchesItsSerialRunBitwise) {
  const graph::Graph g = graph::PaperErdosRenyi(256, 2026);
  const std::vector<NamedRequest> requests = Requests();
  std::vector<DenseBlock> serial;
  for (const NamedRequest& r : requests) {
    const apsp::SolveReport report = apsp::Solve(g, r.request);
    ASSERT_TRUE(report.ok()) << r.name << ": " << report.status().ToString();
    serial.push_back(*report.distances());
  }
  constexpr int kTrials = 3;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<apsp::SolveReport> reports(requests.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      threads.emplace_back([&, i] {
        reports[i] = apsp::Solve(g, requests[i].request);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string label =
          requests[i].name + " trial " + std::to_string(trial);
      ASSERT_TRUE(reports[i].ok())
          << label << ": " << reports[i].status().ToString();
      test::ExpectBitwiseEqual(*reports[i].distances(), serial[i], label);
    }
  }
}

bool SameBits(const DenseBlock& x, const DenseBlock& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) == 0;
}

TEST(ConcurrentKernels, ExplicitConfigsDoNotInterfere) {
  // Two threads hammer the block kernels with different explicit configs:
  // (min, +) scalar inline with default tiles, and (max, min) on the widest
  // ISA with small tiles on the pool.
  Xoshiro256 rng(77);
  const auto random_block = [&](std::int64_t n) {
    DenseBlock m(n, n, 0.0);
    for (double& v : m) v = std::floor(rng.NextDouble(1.0, 50.0));
    for (std::int64_t i = 0; i < n; ++i) m.Set(i, i, 0.0);
    return m;
  };
  constexpr std::int64_t kN = 160;
  const DenseBlock a = random_block(kN);
  const DenseBlock b = random_block(kN);
  const DenseBlock c0 = random_block(kN);

  KernelTuning minplus;
  minplus.isa = SimdIsa::kScalar;
  KernelTuning maxmin;
  maxmin.semiring = SemiringId::kMaxMin;
  maxmin.isa = linalg::DetectSimdIsa();
  maxmin.tile_j = 64;
  maxmin.tile_k = 16;
  maxmin.fw_block = 32;
  maxmin.pool = &test::TestKernelPool();
  const KernelTuning configs[] = {minplus, maxmin};

  struct Result {
    DenseBlock update;
    DenseBlock closure;
  };
  const auto run = [&](const KernelTuning& kernel) {
    Result r{c0, a};
    linalg::MinPlusUpdate(a, b, r.update, kernel);
    linalg::FloydWarshallInPlace(r.closure, kernel);
    return r;
  };
  const Result expected[] = {run(configs[0]), run(configs[1])};
  // The two algebras give different answers, so a swapped config shows.
  ASSERT_FALSE(SameBits(expected[0].closure, expected[1].closure));

  constexpr int kRounds = 20;
  std::vector<std::string> failures[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Result got = run(configs[t]);
        if (!SameBits(got.update, expected[t].update) ||
            !SameBits(got.closure, expected[t].closure)) {
          failures[t].push_back("round " + std::to_string(round));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(failures[0].empty()) << "minplus thread: " << failures[0][0];
  EXPECT_TRUE(failures[1].empty()) << "maxmin thread: " << failures[1][0];
}

TEST(ConcurrentKernels, ScopedSimdIsaPinsOnlyItsOwnThread) {
  const SimdIsa before = linalg::GetKernelTuning().isa;
  SimdIsa seen_inside = before;
  SimdIsa seen_elsewhere = SimdIsa::kScalar;
  {
    linalg::ScopedSimdIsa pin(SimdIsa::kScalar);
    seen_inside = linalg::GetKernelTuning().isa;
    std::thread other([&] { seen_elsewhere = linalg::GetKernelTuning().isa; });
    other.join();
  }
  EXPECT_EQ(seen_inside, SimdIsa::kScalar);
  EXPECT_EQ(seen_elsewhere, linalg::DefaultSimdIsa());
  EXPECT_EQ(linalg::GetKernelTuning().isa, before);
}

}  // namespace
}  // namespace apspark
