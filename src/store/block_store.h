// Disk-backed, ref-counted block store: the persistence layer under the
// distance-serving subsystem.
//
// A solve currently ends at a collected matrix that must fit in RAM. The
// store turns that result into something a service can answer queries
// against: each block of the solved layout is written to its own
// checksummed file under a store directory, a MANIFEST records the layout
// geometry and the block index, and readers materialize blocks lazily into
// an in-memory cache with LRU eviction of cold blocks under a configurable
// byte cap. (The shape follows aomdd's FunctionTableBlock pattern — lazily
// materialized, reference-counted, file-backed table blocks — adapted to
// this repository's DenseBlock serialization.)
//
// On-disk layout (format version 2):
//   <dir>/MANIFEST.bin        magic, version, header, block index, CRC32C
//   <dir>/d_<I>_<J>.blk       distance-plane block (I, J)
//   <dir>/p_<I>_<J>.blk       successor-plane ("paths") block (I, J)
// Each block file: magic, plane, I, J, payload byte count, the payload
// (DenseBlock::Serialize — the same packed-boolean-aware encoding the
// sparklet data plane sizes through sparklet/serde.h, so a bit-packed
// boolean solve persists its 64-per-word footprint), then a CRC32C of the
// payload, which the manifest index records too. Version 1 stores
// (FNV-1a checksums) are rejected with a message naming the version.
//
// Miss cost: a cache miss reads the file with one open, one fstat and a
// pread loop, checks its size, header and CRC32C (SSE4.2 crc32 where the
// CPU has it, a table otherwise), then decodes the payload with one bulk
// copy. A 64x64 min-plus block (32 785-byte payload) costs about 11 us on a
// 4-vCPU AVX-512 Xeon; Stats splits it into read, verify and decode time.
//
// Caching and ref counting:
//   Fetch() returns a Pin — a lease on the materialized block. While any
//   Pin is live the block cannot be evicted; when the last Pin drops the
//   block becomes LRU-evictable. Eviction keeps resident payload bytes
//   under Options::cache_capacity_bytes (pinned bytes may transiently
//   exceed the cap; the store trims back under it as pins release).
//   Resident bytes charge/release the driver ledger of an optional
//   MemoryAccountant, so a serving process's high water is measured the
//   same way the solvers' is.
//
// Error model: every failure routes through Status — kNotFound for a
// missing directory/manifest/block, kStoreCorrupt for anything that fails
// validation (bad magic or version, size mismatch, checksum mismatch,
// truncated or malformed payload). The store never throws for I/O-shaped
// failures.
//
// Thread safety: all reader methods are safe to call concurrently; a miss
// loads the file outside the store mutex and concurrent requests for the
// same block wait instead of loading twice. The writer protocol
// (Create/Put/Seal) is single-threaded.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "sparklet/memory_accountant.h"

namespace apspark::store {

/// Which logical matrix a block belongs to.
enum class Plane : std::uint8_t {
  kDistance = 0,  // solved distances (canonical triangle when undirected)
  kNext = 1,      // successor matrix for path reconstruction (always q^2)
};

const char* PlaneName(Plane plane) noexcept;

/// Store-wide metadata persisted in the MANIFEST.
struct StoreManifest {
  std::int64_t n = 0;           // matrix dimension
  std::int64_t block_size = 0;  // decomposition parameter b
  bool directed = false;        // distance plane stores q^2 blocks if true
  linalg::SemiringId semiring = linalg::SemiringId::kMinPlus;
  bool has_paths = false;  // successor plane present

  std::int64_t q() const noexcept {
    return block_size > 0 ? (n + block_size - 1) / block_size : 0;
  }

  struct Entry {
    Plane plane = Plane::kDistance;
    std::int64_t I = 0;
    std::int64_t J = 0;
    std::uint64_t payload_bytes = 0;
    std::uint32_t checksum = 0;  // CRC32C of the payload
  };
  std::vector<Entry> entries;
};

class BlockStore {
 public:
  struct Options {
    /// Resident-payload cap the LRU eviction maintains. Pinned blocks may
    /// transiently push residency above it.
    std::uint64_t cache_capacity_bytes = 256ULL << 20;
    /// Optional byte mirror: resident blocks charge the driver ledger.
    sparklet::MemoryAccountant* accountant = nullptr;
  };

  /// Cache behavior counters (cumulative since Open).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_loaded = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t peak_resident_bytes = 0;
    /// Where the misses went: file read, size/header/checksum checks, and
    /// payload decode, summed over every load (failed ones included).
    std::uint64_t read_ns = 0;
    std::uint64_t verify_ns = 0;
    std::uint64_t decode_ns = 0;
  };

  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  // -- writer protocol ----------------------------------------------------

  /// Creates `dir` (and parents) and starts a fresh store described by
  /// `manifest` (its `entries` are ignored; Put fills them). Refuses a
  /// directory that already holds a manifest.
  static Result<std::unique_ptr<BlockStore>> Create(
      const std::string& dir, const StoreManifest& manifest,
      const Options& options);
  static Result<std::unique_ptr<BlockStore>> Create(
      const std::string& dir, const StoreManifest& manifest) {
    return Create(dir, manifest, Options{});
  }

  /// Writes one block file and records it in the manifest index. Phantom
  /// blocks are rejected (kFailedPrecondition): a store persists payloads.
  Status Put(Plane plane, std::int64_t I, std::int64_t J,
             const linalg::DenseBlock& block);

  /// Writes the MANIFEST; the store is complete and ready to Open.
  Status Seal();

  // -- reader protocol ----------------------------------------------------

  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir,
                                                  const Options& options);
  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  /// Lease on a materialized block: while live, the block is pinned
  /// resident. Move-only; dropping it makes the block evictable again.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    bool valid() const noexcept { return entry_ != nullptr; }
    const linalg::DenseBlock& block() const noexcept { return *block_; }
    /// The underlying shared payload (outlives the Pin if copied out, but
    /// then no longer counts toward the store's pinned set).
    const linalg::BlockPtr& payload() const noexcept { return block_; }

    void Release();

   private:
    friend class BlockStore;
    Pin(BlockStore* store, void* entry, linalg::BlockPtr block) noexcept
        : store_(store), entry_(entry), block_(std::move(block)) {}

    BlockStore* store_ = nullptr;
    void* entry_ = nullptr;
    linalg::BlockPtr block_;
  };

  /// Materializes (or finds resident) block (I, J) of `plane` and pins it.
  /// kNotFound if the manifest has no such block; kStoreCorrupt if the
  /// file fails validation.
  Result<Pin> Fetch(Plane plane, std::int64_t I, std::int64_t J);

  /// True if the manifest indexes block (I, J) of `plane`.
  bool Contains(Plane plane, std::int64_t I, std::int64_t J) const;

  const StoreManifest& manifest() const noexcept { return manifest_; }
  const std::string& directory() const noexcept { return dir_; }
  Stats stats() const;
  std::uint64_t resident_bytes() const;
  /// Total persisted payload bytes across all planes (from the manifest).
  std::uint64_t total_payload_bytes() const noexcept;

 private:
  struct CacheKey {
    Plane plane;
    std::int64_t I;
    std::int64_t J;
    friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
  };

  enum class EntryState { kCold, kLoading, kResident };

  struct CacheEntry {
    StoreManifest::Entry meta;
    EntryState state = EntryState::kCold;
    linalg::BlockPtr block;
    int pins = 0;
    /// Position in lru_ when resident and unpinned; lru_.end() otherwise.
    std::list<CacheKey>::iterator lru_pos;
    /// Set when a concurrent load failed so waiters re-drive the load.
    Status load_error;
  };

  BlockStore(std::string dir, StoreManifest manifest, Options options,
             bool writable);

  struct LoadTimes {
    std::uint64_t read_ns = 0;
    std::uint64_t verify_ns = 0;
    std::uint64_t decode_ns = 0;
  };

  std::string BlockPath(const StoreManifest::Entry& meta) const;
  /// Reads + validates one block file (no lock held), adding the time each
  /// step took to `times`.
  Result<linalg::DenseBlock> LoadBlockFile(const StoreManifest::Entry& meta,
                                           LoadTimes& times) const;
  /// Evicts cold LRU entries until residency fits the cap (lock held).
  void EvictToFit();
  void Unpin(void* entry_handle);

  const std::string dir_;
  StoreManifest manifest_;
  const Options options_;
  bool writable_ = false;
  bool sealed_ = false;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::map<CacheKey, CacheEntry> cache_;
  /// Evictable (resident, unpinned) keys, least recently used first.
  std::list<CacheKey> lru_;
  Stats stats_;
};

/// CRC32C (Castagnoli) of a byte range: the block-payload and manifest
/// checksum. Uses the SSE4.2 crc32 instruction when the CPU has it.
std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size) noexcept;
/// The table-driven CRC32C Crc32c falls back to; same value everywhere.
std::uint32_t Crc32cPortable(const std::uint8_t* data,
                             std::size_t size) noexcept;
/// True when Crc32c runs on the SSE4.2 crc32 instruction.
bool Crc32cHasHardware() noexcept;

}  // namespace apspark::store
