// Seeded mutation sweep over persisted block stores: hostile store files
// must give a typed error, never a signal or a wrong answer.
//
// Two pristine stores are persisted at n = 64, b = 16: an undirected
// min-plus store with its successor plane, and a directed bit-packed
// boolean (reachability) store. Each case copies one of them, damages one
// file — a byte flip, a truncation or an extension of a block file or of
// MANIFEST.bin — then opens the copy and queries every pair (and, for the
// min-plus store, every pair's path). Each outcome must be kStoreCorrupt or
// kNotFound, or an answer bitwise equal to the pristine store's.
//
// Labelled "store" in CMake, so the ASan/UBSan leg runs it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apsp/persist.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "store/distance_service.h"
#include "test_support.h"

namespace apspark {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kN = 64;
constexpr std::int64_t kBlock = 16;
constexpr int kCasesPerStore = 160;

bool Rejected(const Status& status) {
  return status.code() == StatusCode::kStoreCorrupt ||
         status.code() == StatusCode::kNotFound;
}

std::vector<std::uint8_t> ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// What a pristine store serves: every pair's distance, and (with a
/// successor plane) every pair's path or the status it fails with.
struct Answers {
  std::vector<double> distances;
  std::vector<Result<std::vector<graph::VertexId>>> paths;
};

/// Damages one file of the store in `dir`; returns a description for the
/// failure message.
std::string Mutate(const std::string& dir, Xoshiro256& rng) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename() != "MANIFEST.bin") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  // The manifest is one file among ~30 but guards all of them: hit it in a
  // quarter of the cases.
  const fs::path target =
      rng.NextBounded(4) == 0
          ? fs::path(dir) / "MANIFEST.bin"
          : files[static_cast<std::size_t>(rng.NextBounded(files.size()))];
  std::vector<std::uint8_t> bytes = ReadAll(target);
  const std::string name = target.filename().string();
  std::string what;
  switch (rng.NextBounded(3)) {
    case 0: {
      const auto at = static_cast<std::size_t>(rng.NextBounded(bytes.size()));
      const auto mask = static_cast<std::uint8_t>(1 + rng.NextBounded(255));
      bytes[at] ^= mask;
      what = "flip byte " + std::to_string(at) + " of " + name;
      break;
    }
    case 1: {
      const auto size = static_cast<std::size_t>(rng.NextBounded(bytes.size()));
      bytes.resize(size);
      what = "truncate " + name + " to " + std::to_string(size) + " bytes";
      break;
    }
    default: {
      const auto extra = static_cast<std::size_t>(1 + rng.NextBounded(64));
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.NextBounded(256)));
      }
      what = "extend " + name + " by " + std::to_string(extra) + " bytes";
      break;
    }
  }
  WriteAll(target, bytes);
  return what;
}

class StoreMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("apspark_store_mutation_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Serves every pair from the store in `dir`.
  static Answers Serve(const std::string& dir) {
    auto service = store::DistanceService::Open(dir);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    Answers answers;
    if (!service.ok()) return answers;
    for (std::int64_t s = 0; s < kN; ++s) {
      for (std::int64_t t = 0; t < kN; ++t) {
        auto d = (*service)->Distance(s, t);
        EXPECT_TRUE(d.ok()) << d.status().ToString();
        answers.distances.push_back(d.ok() ? *d : 0.0);
        if ((*service)->has_paths()) {
          answers.paths.push_back((*service)->Path(s, t));
        }
      }
    }
    return answers;
  }

  /// Runs the mutation cases against the pristine store in `pristine`,
  /// which must first serve `expected` bitwise.
  void Sweep(const std::string& pristine, const linalg::DenseBlock& expected,
             std::uint64_t seed) {
    APSPARK_SEEDED_CASE(seed);
    const Answers oracle = Serve(pristine);
    ASSERT_EQ(oracle.distances.size(), static_cast<std::size_t>(kN * kN));
    for (std::int64_t s = 0; s < kN; ++s) {
      for (std::int64_t t = 0; t < kN; ++t) {
        const double want = expected.At(s, t);
        ASSERT_EQ(std::memcmp(&oracle.distances[s * kN + t], &want,
                              sizeof(double)),
                  0)
            << "pristine dist(" << s << ", " << t << ")";
      }
    }
    Xoshiro256 rng(seed);
    const std::string work = root_ + "/work";
    int detected = 0;
    for (int c = 0; c < kCasesPerStore; ++c) {
      fs::remove_all(work);
      fs::copy(pristine, work);
      const std::string what = Mutate(work, rng);
      SCOPED_TRACE("case " + std::to_string(c) + ": " + what);

      auto service = store::DistanceService::Open(work);
      if (!service.ok()) {
        ASSERT_TRUE(Rejected(service.status()))
            << service.status().ToString();
        ++detected;
        continue;
      }
      bool rejected = false;
      std::size_t i = 0;
      for (std::int64_t s = 0; s < kN; ++s) {
        for (std::int64_t t = 0; t < kN; ++t, ++i) {
          auto d = (*service)->Distance(s, t);
          if (!d.ok()) {
            ASSERT_TRUE(Rejected(d.status())) << d.status().ToString();
            rejected = true;
          } else {
            ASSERT_EQ(std::memcmp(&*d, &oracle.distances[i], sizeof(double)),
                      0)
                << "dist(" << s << ", " << t << ") served " << *d
                << ", pristine " << oracle.distances[i];
          }
          if (oracle.paths.empty()) continue;
          auto path = (*service)->Path(s, t);
          const auto& want = oracle.paths[i];
          if (path.ok()) {
            ASSERT_TRUE(want.ok()) << "path " << s << "->" << t;
            ASSERT_EQ(*path, *want) << "path " << s << "->" << t;
          } else if (path.status().code() != StatusCode::kStoreCorrupt) {
            // Not a store error: it must be the pristine answer (an
            // unreachable pair), never a reachable pair gone missing.
            ASSERT_FALSE(want.ok()) << path.status().ToString();
            ASSERT_EQ(path.status().code(), want.status().code());
          } else {
            rejected = true;
          }
        }
      }
      detected += rejected ? 1 : 0;
    }
    // Every mutation changes bytes of a file the all-pairs sweep reads, and
    // the size checks plus CRC32C catch every truncation, extension and
    // single-byte burst: no damaged store may pass as pristine.
    EXPECT_EQ(detected, kCasesPerStore);
  }

  std::string root_;
};

TEST_F(StoreMutation, MinPlusStoreWithSuccessorPlane) {
  const graph::Graph g = graph::ErdosRenyi(kN, 0.08, {1.0, 10.0}, 0x5eed1);
  linalg::DenseBlock distances = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(distances);
  const std::string pristine = root_ + "/minplus";
  apsp::PersistOptions options;
  options.block_size = kBlock;
  ASSERT_TRUE(apsp::PersistSolve(pristine, distances, &g, /*directed=*/false,
                                 linalg::SemiringId::kMinPlus, options)
                  .ok());
  ASSERT_TRUE(fs::exists(pristine + "/p_0_0.blk"));
  Sweep(pristine, distances, 0x3a7e1);
}

TEST_F(StoreMutation, PackedBooleanStore) {
  const graph::Graph g =
      graph::ErdosRenyi(kN, 0.03, {1.0, 1.0}, 0x5eed2, /*directed=*/true);
  linalg::DenseBlock closure = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(closure);
  linalg::DenseBlock reach(kN, kN, 0.0);
  for (std::int64_t s = 0; s < kN; ++s) {
    for (std::int64_t t = 0; t < kN; ++t) {
      reach.Set(s, t, std::isinf(closure.At(s, t)) ? 0.0 : 1.0);
    }
  }
  const std::string pristine = root_ + "/boolean";
  apsp::PersistOptions options;
  options.block_size = kBlock;
  ASSERT_TRUE(apsp::PersistSolve(pristine, reach.BitPacked(), nullptr,
                                 /*directed=*/true,
                                 linalg::SemiringId::kBoolean, options)
                  .ok());
  {
    auto opened = store::BlockStore::Open(pristine);
    ASSERT_TRUE(opened.ok());
    auto pin = (*opened)->Fetch(store::Plane::kDistance, 1, 2);
    ASSERT_TRUE(pin.ok());
    ASSERT_TRUE(pin->block().is_packed()) << "store must persist packed";
  }
  Sweep(pristine, reach, 0x3a7e2);
}

}  // namespace
}  // namespace apspark
