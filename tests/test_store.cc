// Disk-backed block store + distance service.
//
// Round-trips (dense and bit-packed planes), ref-count/eviction invariants
// under a byte cap, corruption and truncation rejection, concurrent reader
// stress, and the end-to-end contract: a solve persisted through
// apsp::PersistSolve must answer every distance query bitwise-equal to the
// in-memory reference solve, and every reconstructed path must be a real
// path of that exact length.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "graph/path_reconstruction.h"
#include "linalg/kernels.h"
#include "sparklet/memory_accountant.h"
#include "store/block_store.h"
#include "store/distance_service.h"
#include "test_support.h"

namespace apspark {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory under the test temp dir, removed on destruction.
class TempStoreDir {
 public:
  explicit TempStoreDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("apspark_store_" + tag + "_" +
                std::to_string(static_cast<unsigned long long>(::getpid()))))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempStoreDir() { fs::remove_all(path_); }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

linalg::DenseBlock RandomDense(Xoshiro256& rng, std::int64_t rows,
                               std::int64_t cols) {
  linalg::DenseBlock block(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      block.Set(r, c, rng.NextDouble(0.0, 100.0));
    }
  }
  return block;
}

store::StoreManifest TinyManifest(std::int64_t n = 8, std::int64_t b = 4) {
  store::StoreManifest manifest;
  manifest.n = n;
  manifest.block_size = b;
  return manifest;
}

TEST(BlockStore, RoundTripsDenseAndPackedBlocks) {
  const std::uint64_t seed = 0xb10cULL;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("roundtrip");

  const auto dense = RandomDense(rng, 4, 4);
  auto packed = linalg::DenseBlock::PackedBoolean(4, 4, 0.0);
  packed.Set(0, 1, 1.0);
  packed.Set(3, 3, 1.0);
  ASSERT_TRUE(packed.is_packed());

  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, 0, 0, dense).ok());
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, 0, 1, packed).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  auto reader = store::BlockStore::Open(dir.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->manifest().n, 8);
  EXPECT_EQ((*reader)->manifest().entries.size(), 2u);

  auto got_dense = (*reader)->Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(got_dense.ok()) << got_dense.status().ToString();
  test::ExpectBitwiseEqual(got_dense->block(), dense, "dense round-trip");

  auto got_packed = (*reader)->Fetch(store::Plane::kDistance, 0, 1);
  ASSERT_TRUE(got_packed.ok()) << got_packed.status().ToString();
  EXPECT_TRUE(got_packed->block().is_packed())
      << "bit-packed plane must persist packed, not densified";
  test::ExpectBitwiseEqual(got_packed->block(), packed, "packed round-trip");
}

TEST(BlockStore, WriterProtocolRejectsMisuse) {
  TempStoreDir dir("misuse");
  auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
  ASSERT_TRUE(writer.ok());
  store::BlockStore& bs = **writer;

  const auto phantom = linalg::DenseBlock::Phantom(4, 4);
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 0, 0, phantom).code(),
            StatusCode::kFailedPrecondition);

  linalg::DenseBlock block(4, 4, 1.0);
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 7, 0, block).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(bs.Put(store::Plane::kDistance, 0, 0, block).ok());
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 0, 0, block).code(),
            StatusCode::kFailedPrecondition)
      << "double Put of one block key";

  // Fetch is the reader protocol; a writer store refuses it.
  EXPECT_EQ(bs.Fetch(store::Plane::kDistance, 0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(bs.Seal().ok());
  EXPECT_EQ(bs.Seal().code(), StatusCode::kFailedPrecondition);

  // A sealed directory refuses a second Create.
  EXPECT_EQ(store::BlockStore::Create(dir.path(), TinyManifest())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BlockStore, MissingBlockIsNotFound) {
  TempStoreDir dir("notfound");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    linalg::DenseBlock block(4, 4, 1.0);
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, block).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  auto reader = store::BlockStore::Open(dir.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->Contains(store::Plane::kDistance, 1, 1));
  EXPECT_EQ((*reader)->Fetch(store::Plane::kDistance, 1, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*reader)->Fetch(store::Plane::kNext, 0, 0).status().code(),
            StatusCode::kNotFound)
      << "store persisted without a successor plane";
}

TEST(BlockStore, CorruptAndTruncatedFilesAreRejected) {
  const std::uint64_t seed = 0xc0de;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("corrupt");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)
                    ->Put(store::Plane::kDistance, 0, 0,
                          RandomDense(rng, 4, 4))
                    .ok());
    ASSERT_TRUE((*writer)
                    ->Put(store::Plane::kDistance, 1, 1,
                          RandomDense(rng, 4, 4))
                    .ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  const auto block_path = fs::path(dir.path()) / "d_0_0.blk";

  // Flip one payload byte: checksum must catch it.
  {
    std::fstream f(block_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);  // inside the payload, past the header
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(
        (*reader)->Fetch(store::Plane::kDistance, 0, 0).status().code(),
        StatusCode::kStoreCorrupt);
    // A failed load leaves the entry retryable and the healthy block fine.
    EXPECT_EQ(
        (*reader)->Fetch(store::Plane::kDistance, 0, 0).status().code(),
        StatusCode::kStoreCorrupt);
    EXPECT_TRUE((*reader)->Fetch(store::Plane::kDistance, 1, 1).ok());
  }

  // Truncate the file: size validation must reject the short read.
  fs::resize_file(block_path, 16);
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(
        (*reader)->Fetch(store::Plane::kDistance, 0, 0).status().code(),
        StatusCode::kStoreCorrupt);
  }

  // Corrupt the manifest itself: Open must fail, not limp along.
  {
    std::fstream f(fs::path(dir.path()) / "MANIFEST.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const char garbage = 0x5a;
    f.write(&garbage, 1);
  }
  EXPECT_EQ(store::BlockStore::Open(dir.path()).status().code(),
            StatusCode::kStoreCorrupt);
}

TEST(BlockStore, VersionOneManifestIsRejectedNamingTheVersion) {
  TempStoreDir dir("version1");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    linalg::DenseBlock block(4, 4, 1.0);
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, block).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  // The version follows the 8-byte magic. A store written before CRC32C
  // carries version 1 (and FNV-1a checksums, which no longer verify).
  {
    std::fstream f(fs::path(dir.path()) / "MANIFEST.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(8);
    const std::uint32_t old_version = 1;
    f.write(reinterpret_cast<const char*>(&old_version),
            sizeof(old_version));
  }
  auto opened = store::BlockStore::Open(dir.path());
  EXPECT_EQ(opened.status().code(), StatusCode::kStoreCorrupt);
  EXPECT_NE(opened.status().message().find("unsupported manifest version 1"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(BlockStore, MissTimesAccumulateOnMissesOnly) {
  TempStoreDir dir("misstimes");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    linalg::DenseBlock block(4, 4, 2.0);
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, block).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  auto reader = store::BlockStore::Open(dir.path());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->Fetch(store::Plane::kDistance, 0, 0).ok());
  const auto after_miss = (*reader)->stats();
  EXPECT_EQ(after_miss.misses, 1u);
  EXPECT_GT(after_miss.read_ns + after_miss.verify_ns + after_miss.decode_ns,
            0u);
  ASSERT_TRUE((*reader)->Fetch(store::Plane::kDistance, 0, 0).ok());
  const auto after_hit = (*reader)->stats();
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_EQ(after_hit.read_ns, after_miss.read_ns);
  EXPECT_EQ(after_hit.verify_ns, after_miss.verify_ns);
  EXPECT_EQ(after_hit.decode_ns, after_miss.decode_ns);
}

TEST(Crc32c, KnownAnswers) {
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const std::uint8_t*>(check.data());
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(store::Crc32c(digits, check.size()), 0xE3069283u);
  EXPECT_EQ(store::Crc32cPortable(digits, check.size()), 0xE3069283u);
  EXPECT_EQ(store::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(store::Crc32cPortable(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(store::Crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, HardwarePathIsCompiledInOnEveryX86Build) {
#if defined(__x86_64__)
  // Holds without -march flags too: the SSE4.2 path is picked at run time.
  EXPECT_EQ(store::Crc32cHasHardware(),
            static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#else
  GTEST_SKIP() << "no hardware CRC32C path on this architecture";
#endif
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  if (!store::Crc32cHasHardware()) {
    GTEST_SKIP() << "no hardware CRC32C on this host";
  }
  const std::uint64_t seed = 0xc5c32cULL;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  constexpr std::size_t kMaxLength = 100000;
  std::vector<std::uint8_t> bytes(kMaxLength + 8);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.NextBounded(256));
  // Lengths at the edges of the three-lane groups (3 x 8192, 3 x 256) and
  // of the 8-byte words, then random ones; every start offset mod 8.
  std::vector<std::size_t> lengths;
  for (std::size_t edge : {std::size_t{0}, std::size_t{768},
                           std::size_t{24576}, std::size_t{24576 + 768}}) {
    for (std::size_t d = 0; d < 10; ++d) lengths.push_back(edge + d);
    if (edge >= 5) {
      for (std::size_t d = 1; d < 5; ++d) lengths.push_back(edge - d);
    }
  }
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(
        static_cast<std::size_t>(rng.NextBounded(kMaxLength + 1)));
  }
  for (const std::size_t length : lengths) {
    const auto offset = static_cast<std::size_t>(rng.NextBounded(8));
    const std::uint8_t* data = bytes.data() + offset;
    ASSERT_EQ(store::Crc32c(data, length),
              store::Crc32cPortable(data, length))
        << "length " << length << " at offset " << offset;
  }
}

TEST(BlockStore, EvictionKeepsResidencyUnderCapAndBalancesAccountant) {
  const std::uint64_t seed = 0xe71c;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("evict");

  constexpr std::int64_t kB = 16;
  constexpr std::int64_t kQ = 4;
  const std::uint64_t block_bytes =
      linalg::DenseBlock(kB, kB).SerializedBytes();
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * kQ, kB));
    ASSERT_TRUE(writer.ok());
    for (std::int64_t I = 0; I < kQ; ++I) {
      for (std::int64_t J = I; J < kQ; ++J) {
        ASSERT_TRUE((*writer)
                        ->Put(store::Plane::kDistance, I, J,
                              RandomDense(rng, kB, kB))
                        .ok());
      }
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  sparklet::MemoryAccountant accountant;
  store::BlockStore::Options options;
  options.cache_capacity_bytes = 3 * block_bytes;  // 3 of 10 blocks fit
  options.accountant = &accountant;
  {
    auto reader = store::BlockStore::Open(dir.path(), options);
    ASSERT_TRUE(reader.ok());
    store::BlockStore& bs = **reader;

    // Touch every block twice; residency must never exceed the cap once the
    // pins are released (single-threaded: at most one pin live at a time).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::int64_t I = 0; I < kQ; ++I) {
        for (std::int64_t J = I; J < kQ; ++J) {
          auto pin = bs.Fetch(store::Plane::kDistance, I, J);
          ASSERT_TRUE(pin.ok()) << pin.status().ToString();
          EXPECT_FALSE(pin->block().is_phantom());
        }
        EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
      }
    }
    const auto stats = bs.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.misses, 10u) << "second pass must re-load evicted blocks";
    EXPECT_LE(stats.resident_bytes, options.cache_capacity_bytes);
    // The accountant's driver ledger mirrors residency exactly.
    EXPECT_EQ(accountant.driver_live_bytes(), stats.resident_bytes);
  }
  // Store destruction releases everything it still held.
  EXPECT_EQ(accountant.driver_live_bytes(), 0u);
}

TEST(BlockStore, PinnedBlocksSurviveEvictionPressure) {
  const std::uint64_t seed = 0x911;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("pinned");

  constexpr std::int64_t kB = 16;
  const std::uint64_t block_bytes =
      linalg::DenseBlock(kB, kB).SerializedBytes();
  linalg::DenseBlock first = RandomDense(rng, kB, kB);
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * 4, kB));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, first).ok());
    for (std::int64_t J = 1; J < 4; ++J) {
      ASSERT_TRUE((*writer)
                      ->Put(store::Plane::kDistance, 0, J,
                            RandomDense(rng, kB, kB))
                      .ok());
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  store::BlockStore::Options options;
  options.cache_capacity_bytes = block_bytes;  // room for exactly one block
  auto reader = store::BlockStore::Open(dir.path(), options);
  ASSERT_TRUE(reader.ok());
  store::BlockStore& bs = **reader;

  auto pinned = bs.Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(pinned.ok());
  // Stream the other blocks through a cache that only fits one: the pinned
  // block must never be evicted even though residency exceeds the cap.
  for (std::int64_t J = 1; J < 4; ++J) {
    auto pin = bs.Fetch(store::Plane::kDistance, 0, J);
    ASSERT_TRUE(pin.ok());
  }
  test::ExpectBitwiseEqual(pinned->block(), first, "pinned block intact");
  const auto hit_again = bs.Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(hit_again.ok());
  const auto stats = bs.stats();
  EXPECT_EQ(stats.misses, 4u) << "the pinned block never reloads";

  pinned->Release();
  // With the pin gone, pressure trims residency back under the cap.
  auto churn = bs.Fetch(store::Plane::kDistance, 0, 3);
  ASSERT_TRUE(churn.ok());
  churn->Release();
  EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
}

TEST(BlockStore, ConcurrentReadersAgreeAndNeverDoubleLoad) {
  const std::uint64_t seed = 0xc0c0;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("concurrent");

  constexpr std::int64_t kB = 8;
  constexpr std::int64_t kQ = 3;
  std::vector<linalg::DenseBlock> originals;
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * kQ, kB));
    ASSERT_TRUE(writer.ok());
    for (std::int64_t I = 0; I < kQ; ++I) {
      for (std::int64_t J = I; J < kQ; ++J) {
        originals.push_back(RandomDense(rng, kB, kB));
        ASSERT_TRUE((*writer)
                        ->Put(store::Plane::kDistance, I, J,
                              originals.back())
                        .ok());
      }
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  store::BlockStore::Options options;
  options.cache_capacity_bytes =
      2 * linalg::DenseBlock(kB, kB).SerializedBytes();  // heavy churn
  auto reader = store::BlockStore::Open(dir.path(), options);
  ASSERT_TRUE(reader.ok());
  store::BlockStore& bs = **reader;

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Xoshiro256 trng(seed + static_cast<std::uint64_t>(tid) + 1);
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        std::size_t index = 0;
        std::int64_t I = 0, J = 0;
        const auto pick = trng.NextBounded(kQ * (kQ + 1) / 2);
        for (std::int64_t a = 0; a < kQ && index <= pick; ++a) {
          for (std::int64_t b = a; b < kQ && index <= pick; ++b) {
            I = a;
            J = b;
            ++index;
          }
        }
        auto pin = bs.Fetch(store::Plane::kDistance, I, J);
        if (!pin.ok()) {
          ++mismatches;
          continue;
        }
        const auto& expected = originals[pick];
        // Spot-check a few elements while holding the pin.
        for (int probe = 0; probe < 4; ++probe) {
          const auto r = static_cast<std::int64_t>(trng.NextBounded(kB));
          const auto c = static_cast<std::int64_t>(trng.NextBounded(kB));
          if (pin->block().At(r, c) != expected.At(r, c)) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = bs.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
}

TEST(DistanceService, EndToEndSolvePersistQueryMatchesOracle) {
  // Integer weights: every path sum is exact, so the persisted answers must
  // equal the reference Floyd-Warshall *bitwise* for every pair — both
  // orientations, both geometries (directed / undirected triangle).
  for (const bool directed : {false, true}) {
    const std::uint64_t seed = directed ? 0xd1f2ULL : 0xd1f1ULL;
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    test::RandomGraphOptions gopts;
    gopts.min_vertices = 20;
    gopts.max_vertices = 60;
    gopts.allow_directed = false;
    gopts.integer_weights = true;
    graph::Graph g = test::RandomTestGraph(rng, gopts);
    if (directed) {
      graph::Graph gd(g.num_vertices(), /*directed=*/true);
      for (const auto& e : g.edges()) {
        gd.AddEdge(e.u, e.v, e.weight).CheckOk();
        if (rng.NextDouble() < 0.5) gd.AddEdge(e.v, e.u, e.weight).CheckOk();
      }
      g = gd;
    }
    const std::int64_t n = g.num_vertices();

    linalg::DenseBlock oracle = g.ToDenseAdjacency();
    linalg::ReferenceFloydWarshall(oracle);

    // Solve through the public API, persist, serve.
    apsp::SolveRequest request;
    request.options.block_size = std::max<std::int64_t>(1, n / 3);
    request.options.directed = directed;
    request.cluster = test::TestCluster();
    auto report = apsp::Solve(g, request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    TempStoreDir dir(directed ? "e2e_dir" : "e2e_undir");
    apsp::PersistOptions popts;
    popts.block_size = 16;  // re-block on persist: different geometry
    auto persisted =
        apsp::PersistSolve(dir.path(), *report.distances(), &g, directed,
                           linalg::SemiringId::kMinPlus, popts);
    ASSERT_TRUE(persisted.ok()) << persisted.ToString();

    store::DistanceService::Options sopts;
    sopts.num_threads = 4;
    auto service = store::DistanceService::Open(dir.path(), sopts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    store::DistanceService& svc = **service;

    // Every pair, batched: answers must be bitwise-identical to the oracle.
    std::vector<store::DistanceService::Query> queries;
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t t = 0; t < n; ++t) queries.push_back({s, t});
    }
    auto answers = svc.DistanceBatch(queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double expected = oracle.At(queries[i].s, queries[i].t);
      const double actual = (*answers)[i];
      ASSERT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
          << "dist(" << queries[i].s << ", " << queries[i].t
          << "): served " << actual << " vs oracle " << expected
          << (directed ? " (directed)" : " (undirected)");
    }

    // Paths: for a sample of pairs, the reconstructed sequence must be a
    // genuine walk over graph edges whose total weight equals the distance.
    linalg::DenseBlock adjacency = g.ToDenseAdjacency();
    for (int probe = 0; probe < 64; ++probe) {
      const auto s = static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      auto path = svc.Path(s, t);
      if (std::isinf(oracle.At(s, t))) {
        EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
        continue;
      }
      ASSERT_TRUE(path.ok()) << path.status().ToString();
      ASSERT_EQ(path->front(), s);
      ASSERT_EQ(path->back(), t);
      double total = 0;
      for (std::size_t hop = 0; hop + 1 < path->size(); ++hop) {
        const double w = adjacency.At((*path)[hop], (*path)[hop + 1]);
        ASSERT_FALSE(std::isinf(w))
            << "path uses a non-edge " << (*path)[hop] << "->"
            << (*path)[hop + 1];
        total += w;
      }
      EXPECT_EQ(total, oracle.At(s, t))
          << "path " << s << "->" << t << " has wrong length";
    }

    // Point queries agree with the batch, and bad queries are rejected.
    auto single = svc.Distance(0, n - 1);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*single, oracle.At(0, n - 1));
    EXPECT_EQ(svc.Distance(-1, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(svc.Distance(0, n).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DistanceService, ServesUnderTightCacheCap) {
  // Queries must stay correct when the cache only fits a sliver of the
  // store — the acceptance criterion for bounded-memory serving.
  const std::uint64_t seed = 0xcab;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  graph::Graph g = graph::ErdosRenyi(64, 0.2, {1.0, 10.0}, seed);
  apsp::SolveRequest request;
  request.options.block_size = 16;
  request.cluster = test::TestCluster();
  auto report = apsp::Solve(g, request);
  ASSERT_TRUE(report.ok());

  TempStoreDir dir("tightcap");
  apsp::PersistOptions popts;
  popts.block_size = 8;
  popts.with_paths = false;
  ASSERT_TRUE(apsp::PersistSolve(dir.path(), *report.distances(), nullptr,
                                 false, linalg::SemiringId::kMinPlus, popts)
                  .ok());

  store::DistanceService::Options sopts;
  sopts.num_threads = 4;
  sopts.store_options.cache_capacity_bytes =
      2 * linalg::DenseBlock(8, 8).SerializedBytes();
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok());
  store::DistanceService& svc = **service;
  EXPECT_FALSE(svc.has_paths());
  EXPECT_EQ(svc.Path(0, 1).status().code(), StatusCode::kFailedPrecondition);

  std::vector<store::DistanceService::Query> queries;
  for (int i = 0; i < 4000; ++i) {
    queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(64)),
                       static_cast<graph::VertexId>(rng.NextBounded(64))});
  }
  auto answers = svc.DistanceBatch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected =
        report.distances()->At(queries[i].s, queries[i].t);
    ASSERT_EQ((*answers)[i], expected)
        << "query " << i << " under cache pressure";
  }
  const auto stats = svc.store().stats();
  EXPECT_GT(stats.evictions, 0u) << "cap was meant to force churn";
  EXPECT_LE(svc.store().resident_bytes(),
            sopts.store_options.cache_capacity_bytes);
}

TEST(SuccessorsFromDistances, AgreesWithTrackedFloydWarshall) {
  // The derived successor plane must yield paths exactly as short as the
  // O(n^3)-tracked reference on every reachable pair.
  const std::uint64_t seed = 0x5cc;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  for (int round = 0; round < 6; ++round) {
    test::RandomGraphOptions gopts;
    gopts.max_vertices = 40;
    gopts.integer_weights = true;
    graph::Graph g = test::RandomTestGraph(rng, gopts);
    const std::int64_t n = g.num_vertices();

    auto tracked = graph::FloydWarshallWithPaths(g);
    linalg::DenseBlock next =
        graph::SuccessorsFromDistances(g, tracked.distances);
    linalg::DenseBlock adjacency = g.ToDenseAdjacency();

    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t t = 0; t < n; ++t) {
        auto derived = graph::ExtractPathWithLookup(
            n, s, t, [&next](graph::VertexId i, graph::VertexId target) {
              return static_cast<std::int64_t>(next.At(i, target));
            });
        auto reference = graph::ExtractPath(tracked, s, t);
        ASSERT_EQ(derived.ok(), reference.ok())
            << s << "->" << t << " reachability disagrees";
        if (!derived.ok()) continue;
        double total = 0;
        for (std::size_t hop = 0; hop + 1 < derived->size(); ++hop) {
          total += adjacency.At((*derived)[hop], (*derived)[hop + 1]);
        }
        EXPECT_EQ(total, tracked.distances.At(s, t))
            << "derived path " << s << "->" << t << " not shortest";
      }
    }
  }
}

TEST(ZipfSampler, IsSkewedAndInRange) {
  Xoshiro256 rng(7);
  ZipfSampler zipf(1000, 1.1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Rank 0 must dominate, and the head must carry far more than its uniform
  // share (100 of 100k draws per rank if uniform).
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 5000);
  int head = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(head, 25000) << "top-1% of ranks should absorb >25% of draws";
}

}  // namespace
}  // namespace apspark
