#include "store/block_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define APSPARK_CRC32C_SSE42 1
#endif

#include "common/serial.h"
#include "obs/trace.h"

namespace apspark::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kBlockMagic = 0x41505350424c4b32ULL;     // "APSPBLK2"
constexpr std::uint64_t kManifestMagic = 0x415053504d414e31ULL;  // "APSPMAN1"
// Version 1 checksummed with FNV-1a; version 2 with CRC32C.
constexpr std::uint32_t kManifestVersion = 2;
constexpr char kManifestFile[] = "MANIFEST.bin";

// CRC32C (Castagnoli): reflected polynomial 0x82F63B78, initial value and
// final xor 0xFFFFFFFF — the polynomial SSE4.2's crc32 instruction computes.
constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

#ifdef APSPARK_CRC32C_SSE42
// The crc32 functions below are compiled for SSE4.2 whatever the file's
// baseline ISA, and called only after a CPUID check, so a -march-neutral
// build still takes this path.

/// Feeding `len` zero bytes to a raw (un-inverted) CRC32C register, as four
/// byte-indexed tables: the map is linear, so it is the XOR of the images
/// of the register's bits.
class ZeroBytesShift {
 public:
  explicit ZeroBytesShift(std::size_t len) {
    std::array<std::uint32_t, 32> bit_image{};
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t reg = std::uint32_t{1} << bit;
      for (std::size_t i = 0; i < len; ++i) {
        reg = (reg >> 8) ^ kCrc32cTable[reg & 0xFFu];
      }
      bit_image[static_cast<std::size_t>(bit)] = reg;
    }
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t v = 0; v < 256; ++v) {
        std::uint32_t image = 0;
        for (std::size_t j = 0; j < 8; ++j) {
          if (((v >> j) & 1) != 0) image ^= bit_image[8 * k + j];
        }
        table_[k][v] = image;
      }
    }
  }

  std::uint32_t operator()(std::uint32_t reg) const noexcept {
    return table_[0][reg & 0xFFu] ^ table_[1][(reg >> 8) & 0xFFu] ^
           table_[2][(reg >> 16) & 0xFFu] ^ table_[3][reg >> 24];
  }

 private:
  std::array<std::array<std::uint32_t, 256>, 4> table_{};
};

std::uint64_t LoadWord(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Runs whole groups of three `lane`-byte lanes as three independent crc32
/// chains, which hides the instruction's latency, then shifts each lane's
/// CRC past the lanes after it. Advances `data` and `size`.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cLanes(
    std::uint32_t crc, const std::uint8_t*& data, std::size_t& size,
    std::size_t lane, const ZeroBytesShift& shift) noexcept {
  for (; size >= 3 * lane; data += 3 * lane, size -= 3 * lane) {
    std::uint64_t crc0 = crc;
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < lane; i += sizeof(std::uint64_t)) {
      crc0 = _mm_crc32_u64(crc0, LoadWord(data + i));
      crc1 = _mm_crc32_u64(crc1, LoadWord(data + lane + i));
      crc2 = _mm_crc32_u64(crc2, LoadWord(data + 2 * lane + i));
    }
    crc = shift(shift(static_cast<std::uint32_t>(crc0)) ^
                static_cast<std::uint32_t>(crc1)) ^
          static_cast<std::uint32_t>(crc2);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::uint8_t* data, std::size_t size) noexcept {
  constexpr std::size_t kLongLane = 8192;
  constexpr std::size_t kShortLane = 256;
  static const ZeroBytesShift long_shift(kLongLane);
  static const ZeroBytesShift short_shift(kShortLane);
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = Crc32cLanes(crc, data, size, kLongLane, long_shift);
  crc = Crc32cLanes(crc, data, size, kShortLane, short_shift);
  std::uint64_t crc64 = crc;
  for (; size >= sizeof(std::uint64_t);
       data += sizeof(std::uint64_t), size -= sizeof(std::uint64_t)) {
    crc64 = _mm_crc32_u64(crc64, LoadWord(data));
  }
  crc = static_cast<std::uint32_t>(crc64);
  for (; size > 0; ++data, --size) crc = _mm_crc32_u8(crc, *data);
  return ~crc;
}
#endif

std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Reads all of `path` with one open, one fstat and a pread loop. When
/// `expected` is set, any other file size is rejected before a byte is
/// read. ENOENT is kNotFound; every other failure is kStoreCorrupt.
Result<std::vector<std::uint8_t>> ReadFileBytes(
    const std::string& path, std::optional<std::uint64_t> expected) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT) return NotFoundError("no such file: " + path);
    return StoreCorruptError("cannot open " + path + ": " +
                             std::strerror(err));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return StoreCorruptError(path + " is not a readable regular file");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (expected.has_value() && size != *expected) {
    return StoreCorruptError(path + ": file is " + std::to_string(size) +
                             " bytes, want " + std::to_string(*expected));
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::pread(fd, bytes.data() + done, bytes.size() - done,
                                static_cast<off_t>(done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return StoreCorruptError("short read of " + path);
    done += static_cast<std::size_t>(got);
  }
  return bytes;
}

Status WriteFileBytes(const fs::path& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot create " + path.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return InternalError("short write to " + path.string());
  }
  return Status::Ok();
}

std::string EntryDescription(const StoreManifest::Entry& meta) {
  return std::string(PlaneName(meta.plane)) + " block (" +
         std::to_string(meta.I) + "," + std::to_string(meta.J) + ")";
}

}  // namespace

const char* PlaneName(Plane plane) noexcept {
  switch (plane) {
    case Plane::kDistance:
      return "distance";
    case Plane::kNext:
      return "next";
  }
  return "unknown";
}

std::uint32_t Crc32cPortable(const std::uint8_t* data,
                            std::size_t size) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

bool Crc32cHasHardware() noexcept {
#ifdef APSPARK_CRC32C_SSE42
  static const bool has_sse42 = __builtin_cpu_supports("sse4.2");
  return has_sse42;
#else
  return false;
#endif
}

std::uint32_t Crc32c(const std::uint8_t* data, std::size_t size) noexcept {
#ifdef APSPARK_CRC32C_SSE42
  if (Crc32cHasHardware()) return Crc32cSse42(data, size);
#endif
  return Crc32cPortable(data, size);
}

BlockStore::BlockStore(std::string dir, StoreManifest manifest,
                       Options options, bool writable)
    : dir_(std::move(dir)),
      manifest_(std::move(manifest)),
      options_(options),
      writable_(writable) {
  for (const auto& meta : manifest_.entries) {
    CacheEntry entry;
    entry.meta = meta;
    entry.lru_pos = lru_.end();
    cache_.emplace(CacheKey{meta.plane, meta.I, meta.J}, std::move(entry));
  }
}

BlockStore::~BlockStore() {
  // Release every still-resident block from the accountant ledger so a
  // serving process's live-byte accounting balances at shutdown.
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.accountant != nullptr) {
    for (auto& [key, entry] : cache_) {
      if (entry.state == EntryState::kResident) {
        options_.accountant->ReleaseDriver(entry.meta.payload_bytes);
      }
    }
  }
}

std::string BlockStore::BlockPath(const StoreManifest::Entry& meta) const {
  const char* prefix = meta.plane == Plane::kDistance ? "d" : "p";
  return (fs::path(dir_) / (std::string(prefix) + "_" +
                            std::to_string(meta.I) + "_" +
                            std::to_string(meta.J) + ".blk"))
      .string();
}

// ---------------------------------------------------------------- writer

Result<std::unique_ptr<BlockStore>> BlockStore::Create(
    const std::string& dir, const StoreManifest& manifest,
    const Options& options) {
  if (manifest.n <= 0 || manifest.block_size <= 0) {
    return InvalidArgumentError("store manifest needs n > 0 and b > 0");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create store directory " + dir + ": " +
                         ec.message());
  }
  if (fs::exists(fs::path(dir) / kManifestFile)) {
    return FailedPreconditionError("store directory " + dir +
                                   " already holds a sealed store");
  }
  StoreManifest fresh = manifest;
  fresh.entries.clear();
  return std::unique_ptr<BlockStore>(
      new BlockStore(dir, std::move(fresh), options, /*writable=*/true));
}

Status BlockStore::Put(Plane plane, std::int64_t I, std::int64_t J,
                       const linalg::DenseBlock& block) {
  if (!writable_ || sealed_) {
    return FailedPreconditionError("Put on a sealed or read-only store");
  }
  if (block.is_phantom()) {
    return FailedPreconditionError(
        "phantom blocks carry no payload to persist");
  }
  const std::int64_t q = manifest_.q();
  if (I < 0 || J < 0 || I >= q || J >= q) {
    return OutOfRangeError("block (" + std::to_string(I) + "," +
                           std::to_string(J) + ") outside a " +
                           std::to_string(q) + "x" + std::to_string(q) +
                           " layout");
  }
  if (Contains(plane, I, J)) {
    return FailedPreconditionError(EntryDescription({plane, I, J, 0, 0}) +
                                   " already persisted");
  }

  BinaryWriter payload;
  block.Serialize(payload);

  StoreManifest::Entry meta;
  meta.plane = plane;
  meta.I = I;
  meta.J = J;
  meta.payload_bytes = payload.size();
  meta.checksum = Crc32c(payload.buffer().data(), payload.size());

  BinaryWriter file;
  file.Write(kBlockMagic);
  file.Write(static_cast<std::uint8_t>(plane));
  file.Write(I);
  file.Write(J);
  file.Write(static_cast<std::uint64_t>(payload.size()));
  file.WriteRaw(payload.buffer().data(), payload.size());
  file.Write(meta.checksum);

  auto status = WriteFileBytes(BlockPath(meta), file.buffer());
  if (!status.ok()) return status;

  manifest_.entries.push_back(meta);
  CacheEntry entry;
  entry.meta = meta;
  entry.lru_pos = lru_.end();
  cache_.emplace(CacheKey{plane, I, J}, std::move(entry));
  return Status::Ok();
}

Status BlockStore::Seal() {
  if (!writable_ || sealed_) {
    return FailedPreconditionError("Seal on a sealed or read-only store");
  }
  BinaryWriter body;
  body.Write(kManifestMagic);
  body.Write(kManifestVersion);
  body.Write(manifest_.n);
  body.Write(manifest_.block_size);
  body.Write(static_cast<std::uint8_t>(manifest_.directed ? 1 : 0));
  body.Write(static_cast<std::uint8_t>(manifest_.semiring));
  body.Write(static_cast<std::uint8_t>(manifest_.has_paths ? 1 : 0));
  body.Write(static_cast<std::uint64_t>(manifest_.entries.size()));
  for (const auto& e : manifest_.entries) {
    body.Write(static_cast<std::uint8_t>(e.plane));
    body.Write(e.I);
    body.Write(e.J);
    body.Write(e.payload_bytes);
    body.Write(e.checksum);
  }
  body.Write(Crc32c(body.buffer().data(), body.size()));
  auto status =
      WriteFileBytes(fs::path(dir_) / kManifestFile, body.buffer());
  if (!status.ok()) return status;
  sealed_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------- reader

Result<std::unique_ptr<BlockStore>> BlockStore::Open(const std::string& dir,
                                                     const Options& options) {
  auto bytes = ReadFileBytes((fs::path(dir) / kManifestFile).string(),
                             std::nullopt);
  if (!bytes.ok()) return bytes.status();
  // Magic and version are read first, only to name a store of another
  // format; no other field is trusted before the trailing checksum over the
  // whole body passes, so any byte flip or truncation is caught first.
  BinaryReader prefix(*bytes);
  auto magic = prefix.Read<std::uint64_t>();
  if (!magic.ok() || *magic != kManifestMagic) {
    return StoreCorruptError("bad manifest magic in " + dir);
  }
  auto version = prefix.Read<std::uint32_t>();
  if (!version.ok() || prefix.remaining() < sizeof(std::uint32_t)) {
    return StoreCorruptError("manifest truncated in " + dir);
  }
  if (*version != kManifestVersion) {
    return StoreCorruptError("unsupported manifest version " +
                             std::to_string(*version) + " in " + dir +
                             " (this build reads version " +
                             std::to_string(kManifestVersion) + ")");
  }
  const std::size_t body_size = bytes->size() - sizeof(std::uint32_t);
  std::uint32_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes->data() + body_size,
              sizeof(stored_checksum));
  if (Crc32c(bytes->data(), body_size) != stored_checksum) {
    return StoreCorruptError("manifest checksum mismatch in " + dir);
  }

  BinaryReader reader(bytes->data(), body_size);
  (void)reader.Read<std::uint64_t>();  // magic, checked above
  (void)reader.Read<std::uint32_t>();  // version, checked above
  StoreManifest manifest;
  auto n = reader.Read<std::int64_t>();
  auto b = reader.Read<std::int64_t>();
  auto directed = reader.Read<std::uint8_t>();
  auto semiring = reader.Read<std::uint8_t>();
  auto has_paths = reader.Read<std::uint8_t>();
  auto count = reader.Read<std::uint64_t>();
  if (!n.ok() || !b.ok() || !directed.ok() || !semiring.ok() ||
      !has_paths.ok() || !count.ok()) {
    return StoreCorruptError("manifest header truncated in " + dir);
  }
  manifest.n = *n;
  manifest.block_size = *b;
  manifest.directed = *directed != 0;
  manifest.semiring = static_cast<linalg::SemiringId>(*semiring);
  manifest.has_paths = *has_paths != 0;
  if (manifest.n <= 0 || manifest.block_size <= 0) {
    return StoreCorruptError("manifest geometry invalid in " + dir);
  }
  constexpr std::size_t kEntryBytes = sizeof(std::uint8_t) +
                                      2 * sizeof(std::int64_t) +
                                      sizeof(std::uint64_t) +
                                      sizeof(std::uint32_t);
  if (*count > reader.remaining() / kEntryBytes) {
    return StoreCorruptError("manifest index truncated in " + dir);
  }
  manifest.entries.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    StoreManifest::Entry e;
    auto plane = reader.Read<std::uint8_t>();
    auto bi = reader.Read<std::int64_t>();
    auto bj = reader.Read<std::int64_t>();
    auto payload = reader.Read<std::uint64_t>();
    auto checksum = reader.Read<std::uint32_t>();
    if (!plane.ok() || !bi.ok() || !bj.ok() || !payload.ok() ||
        !checksum.ok()) {
      return StoreCorruptError("manifest index truncated in " + dir);
    }
    if (*plane > static_cast<std::uint8_t>(Plane::kNext)) {
      return StoreCorruptError("manifest entry has unknown plane in " + dir);
    }
    e.plane = static_cast<Plane>(*plane);
    e.I = *bi;
    e.J = *bj;
    e.payload_bytes = *payload;
    e.checksum = *checksum;
    manifest.entries.push_back(e);
  }
  return std::unique_ptr<BlockStore>(new BlockStore(
      dir, std::move(manifest), options, /*writable=*/false));
}

Result<linalg::DenseBlock> BlockStore::LoadBlockFile(
    const StoreManifest::Entry& meta, LoadTimes& times) const {
  // Fixed header + declared payload + trailing checksum must account for
  // the exact file size — a truncated or padded file is never read.
  constexpr std::size_t kHeaderBytes =
      sizeof(std::uint64_t) + sizeof(std::uint8_t) + 2 * sizeof(std::int64_t) +
      sizeof(std::uint64_t);
  if (meta.payload_bytes >
      std::numeric_limits<std::uint64_t>::max() - kHeaderBytes -
          sizeof(std::uint32_t)) {
    return StoreCorruptError(EntryDescription(meta) +
                             ": manifest payload size out of range");
  }
  const std::uint64_t expected =
      kHeaderBytes + meta.payload_bytes + sizeof(std::uint32_t);
  const std::uint64_t t0 = NowNs();
  auto bytes = ReadFileBytes(BlockPath(meta), expected);
  const std::uint64_t t1 = NowNs();
  times.read_ns += t1 - t0;
  if (!bytes.ok()) return bytes.status();

  BinaryReader reader(*bytes);
  auto magic = reader.Read<std::uint64_t>();
  if (!magic.ok() || *magic != kBlockMagic) {
    return StoreCorruptError(EntryDescription(meta) + ": bad magic");
  }
  auto plane = reader.Read<std::uint8_t>();
  auto bi = reader.Read<std::int64_t>();
  auto bj = reader.Read<std::int64_t>();
  auto payload_bytes = reader.Read<std::uint64_t>();
  if (!plane.ok() || !bi.ok() || !bj.ok() || !payload_bytes.ok()) {
    return StoreCorruptError(EntryDescription(meta) + ": header truncated");
  }
  if (*plane != static_cast<std::uint8_t>(meta.plane) || *bi != meta.I ||
      *bj != meta.J || *payload_bytes != meta.payload_bytes) {
    return StoreCorruptError(EntryDescription(meta) +
                             ": header disagrees with manifest");
  }
  const std::uint8_t* payload = bytes->data() + kHeaderBytes;
  const auto payload_size = static_cast<std::size_t>(meta.payload_bytes);
  std::uint32_t stored_checksum = 0;
  std::memcpy(&stored_checksum, payload + payload_size,
              sizeof(stored_checksum));
  const bool intact = Crc32c(payload, payload_size) == stored_checksum &&
                      stored_checksum == meta.checksum;
  const std::uint64_t t2 = NowNs();
  times.verify_ns += t2 - t1;
  if (!intact) {
    return StoreCorruptError(EntryDescription(meta) + ": checksum mismatch");
  }

  BinaryReader payload_reader(payload, payload_size);
  // Materializing from durable bytes is a sanctioned copy, exactly like the
  // checkpoint reload path (the zero-copy audit tracks hot-path copies).
  linalg::CowScope cow;
  auto block = linalg::DenseBlock::Deserialize(payload_reader);
  times.decode_ns += NowNs() - t2;
  if (!block.ok()) {
    return StoreCorruptError(EntryDescription(meta) + ": payload malformed (" +
                             block.status().message() + ")");
  }
  if (block->is_phantom()) {
    return StoreCorruptError(EntryDescription(meta) +
                             ": persisted block is phantom");
  }
  return std::move(*block);
}

bool BlockStore::Contains(Plane plane, std::int64_t I, std::int64_t J) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.find(CacheKey{plane, I, J}) != cache_.end();
}

Result<BlockStore::Pin> BlockStore::Fetch(Plane plane, std::int64_t I,
                                          std::int64_t J) {
  if (writable_) {
    return FailedPreconditionError(
        "Fetch on a writer store: Seal it and Open for reading");
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = cache_.find(CacheKey{plane, I, J});
  if (it == cache_.end()) {
    return NotFoundError(EntryDescription({plane, I, J, 0, 0}) +
                         " not in store manifest");
  }
  CacheEntry& entry = it->second;

  for (;;) {
    if (entry.state == EntryState::kResident) {
      ++stats_.hits;
      if (entry.pins == 0 && entry.lru_pos != lru_.end()) {
        lru_.erase(entry.lru_pos);
        entry.lru_pos = lru_.end();
      }
      ++entry.pins;
      return Pin(this, &entry, entry.block);
    }
    if (entry.state == EntryState::kLoading) {
      // Another thread is materializing this block; wait for it rather
      // than reading the file twice.
      load_cv_.wait(lock, [&entry] {
        return entry.state != EntryState::kLoading;
      });
      if (!entry.load_error.ok()) {
        return entry.load_error;
      }
      continue;
    }

    // Cold: this thread drives the load with the lock released.
    entry.state = EntryState::kLoading;
    entry.load_error = Status::Ok();
    ++stats_.misses;
    lock.unlock();
    LoadTimes times;
    Result<linalg::DenseBlock> loaded = [&] {
      obs::RealSpanScope span(
          "store-load",
          obs::TraceEnabled()
              ? "\"plane\":" +
                    std::to_string(static_cast<int>(entry.meta.plane)) +
                    ",\"I\":" + std::to_string(entry.meta.I) +
                    ",\"J\":" + std::to_string(entry.meta.J) +
                    ",\"bytes\":" + std::to_string(entry.meta.payload_bytes)
              : std::string());
      return LoadBlockFile(entry.meta, times);
    }();
    lock.lock();
    stats_.read_ns += times.read_ns;
    stats_.verify_ns += times.verify_ns;
    stats_.decode_ns += times.decode_ns;
    if (!loaded.ok()) {
      entry.state = EntryState::kCold;
      entry.load_error = loaded.status();
      load_cv_.notify_all();
      return loaded.status();
    }
    entry.block = linalg::MakeBlock(std::move(*loaded));
    entry.state = EntryState::kResident;
    stats_.bytes_loaded += entry.meta.payload_bytes;
    stats_.resident_bytes += entry.meta.payload_bytes;
    if (stats_.resident_bytes > stats_.peak_resident_bytes) {
      stats_.peak_resident_bytes = stats_.resident_bytes;
    }
    if (options_.accountant != nullptr) {
      options_.accountant->ChargeDriver(entry.meta.payload_bytes);
    }
    EvictToFit();
    load_cv_.notify_all();
    ++entry.pins;
    return Pin(this, &entry, entry.block);
  }
}

void BlockStore::EvictToFit() {
  while (stats_.resident_bytes > options_.cache_capacity_bytes &&
         !lru_.empty()) {
    const CacheKey victim_key = lru_.front();
    lru_.pop_front();
    auto it = cache_.find(victim_key);
    CacheEntry& victim = it->second;
    victim.lru_pos = lru_.end();
    victim.block.reset();
    victim.state = EntryState::kCold;
    stats_.resident_bytes -= victim.meta.payload_bytes;
    ++stats_.evictions;
    if (options_.accountant != nullptr) {
      options_.accountant->ReleaseDriver(victim.meta.payload_bytes);
    }
  }
}

void BlockStore::Unpin(void* entry_handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& entry = *static_cast<CacheEntry*>(entry_handle);
  --entry.pins;
  if (entry.pins == 0 && entry.state == EntryState::kResident) {
    lru_.push_back(CacheKey{entry.meta.plane, entry.meta.I, entry.meta.J});
    entry.lru_pos = std::prev(lru_.end());
    // Pinned bytes may have pushed residency past the cap; trim back now
    // that this block is evictable again.
    EvictToFit();
  }
}

BlockStore::Pin& BlockStore::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    entry_ = other.entry_;
    block_ = std::move(other.block_);
    other.store_ = nullptr;
    other.entry_ = nullptr;
    other.block_.reset();
  }
  return *this;
}

void BlockStore::Pin::Release() {
  if (store_ != nullptr && entry_ != nullptr) {
    store_->Unpin(entry_);
  }
  store_ = nullptr;
  entry_ = nullptr;
  block_.reset();
}

BlockStore::Stats BlockStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t BlockStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

std::uint64_t BlockStore::total_payload_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : manifest_.entries) total += e.payload_bytes;
  return total;
}

}  // namespace apspark::store
