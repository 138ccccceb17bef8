#include "linalg/dense_block.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace apspark::linalg {

namespace {

std::atomic<std::uint64_t> g_total_copies{0};
std::atomic<std::uint64_t> g_sanctioned_copies{0};
thread_local int g_cow_depth = 0;

/// Counts one deep copy of a materialized payload (phantom and empty blocks
/// carry nothing, so duplicating them is free and uncounted).
void CountCopy(bool phantom, std::size_t payload_elems) noexcept {
  if (phantom || payload_elems == 0) return;
  g_total_copies.fetch_add(1, std::memory_order_relaxed);
  if (g_cow_depth > 0) {
    g_sanctioned_copies.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int64_t WordsPerRow(std::int64_t cols) noexcept {
  // cols / 64 rounded up, without the cols + 63 that overflows near
  // INT64_MAX (a decoded header may carry any non-negative width).
  return (cols >> 6) + ((cols & 63) != 0 ? 1 : 0);
}

}  // namespace

std::uint64_t BlockCopyStats::TotalCopies() noexcept {
  return g_total_copies.load(std::memory_order_relaxed);
}

std::uint64_t BlockCopyStats::SanctionedCopies() noexcept {
  return g_sanctioned_copies.load(std::memory_order_relaxed);
}

std::uint64_t BlockCopyStats::UnsanctionedCopies() noexcept {
  return TotalCopies() - SanctionedCopies();
}

void BlockCopyStats::Reset() noexcept {
  g_total_copies.store(0, std::memory_order_relaxed);
  g_sanctioned_copies.store(0, std::memory_order_relaxed);
}

CowScope::CowScope() noexcept { ++g_cow_depth; }
CowScope::~CowScope() { --g_cow_depth; }

DenseBlock::DenseBlock(const DenseBlock& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      words_per_row_(other.words_per_row_),
      phantom_(other.phantom_),
      packed_(other.packed_),
      data_(other.data_),
      words_(other.words_) {
  CountCopy(phantom_, data_.size() + words_.size());
}

DenseBlock& DenseBlock::operator=(const DenseBlock& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  words_per_row_ = other.words_per_row_;
  phantom_ = other.phantom_;
  packed_ = other.packed_;
  data_ = other.data_;
  words_ = other.words_;
  CountCopy(phantom_, data_.size() + words_.size());
  return *this;
}

DenseBlock::DenseBlock(std::int64_t rows, std::int64_t cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), fill) {}

DenseBlock::DenseBlock(std::int64_t rows, std::int64_t cols,
                       std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != static_cast<std::size_t>(rows * cols)) {
    throw std::invalid_argument("DenseBlock: data size does not match shape");
  }
}

DenseBlock DenseBlock::Phantom(std::int64_t rows, std::int64_t cols) {
  DenseBlock b;
  b.rows_ = rows;
  b.cols_ = cols;
  b.phantom_ = true;
  return b;
}

DenseBlock DenseBlock::PackedBoolean(std::int64_t rows, std::int64_t cols,
                                     double fill) {
  if (fill != 0.0 && fill != 1.0) {
    throw std::invalid_argument("PackedBoolean: fill must be 0 or 1");
  }
  DenseBlock b;
  b.rows_ = rows;
  b.cols_ = cols;
  b.packed_ = true;
  b.words_per_row_ = WordsPerRow(cols);
  b.words_.assign(static_cast<std::size_t>(rows * b.words_per_row_),
                  fill != 0.0 ? ~std::uint64_t{0} : std::uint64_t{0});
  if (fill != 0.0 && (cols & 63) != 0) {
    // Keep the tail bits past `cols` zero: word-parallel kernels or whole
    // words, and popcount-style predicates must not see ghost columns.
    const std::uint64_t tail_mask =
        (std::uint64_t{1} << (cols & 63)) - 1;
    for (std::int64_t r = 0; r < rows; ++r) {
      b.MutableWordRow(r)[b.words_per_row_ - 1] = tail_mask;
    }
  }
  return b;
}

DenseBlock DenseBlock::PackedPhantom(std::int64_t rows, std::int64_t cols) {
  DenseBlock b;
  b.rows_ = rows;
  b.cols_ = cols;
  b.phantom_ = true;
  b.packed_ = true;
  b.words_per_row_ = WordsPerRow(cols);
  return b;
}

DenseBlock DenseBlock::Unpacked() const {
  if (!packed_) return *this;
  if (phantom_) return Phantom(rows_, cols_);
  DenseBlock out(rows_, cols_, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    double* row = out.MutableRow(r);
    for (std::int64_t c = 0; c < cols_; ++c) {
      row[c] = GetBit(r, c) ? 1.0 : 0.0;
    }
  }
  return out;
}

DenseBlock DenseBlock::BitPacked() const {
  if (packed_) return *this;
  if (phantom_) return PackedPhantom(rows_, cols_);
  DenseBlock out = PackedBoolean(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    for (std::int64_t c = 0; c < cols_; ++c) {
      if (row[c] != 0.0) out.SetBit(r, c, true);
    }
  }
  return out;
}

namespace {
// Serialized layout: rows (8) + cols (8) + flags (1) + payload. Flags byte:
// bit 0 = phantom, bit 1 = bit-packed.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 1;
constexpr std::uint8_t kFlagPhantom = 1;
constexpr std::uint8_t kFlagPacked = 2;
}  // namespace

std::uint64_t DenseBlock::SerializedBytes() const noexcept {
  const std::uint64_t payload =
      packed_ ? static_cast<std::uint64_t>(rows_ * words_per_row_) *
                    sizeof(std::uint64_t)
              : static_cast<std::uint64_t>(rows_ * cols_) * sizeof(double);
  return kHeaderBytes + payload;
}

void DenseBlock::Serialize(BinaryWriter& writer) const {
  writer.Write(rows_);
  writer.Write(cols_);
  std::uint8_t flags = 0;
  if (phantom_) flags |= kFlagPhantom;
  if (packed_) flags |= kFlagPacked;
  writer.Write(flags);
  if (phantom_) return;
  if (packed_) {
    writer.WriteRaw(words_.data(), words_.size() * sizeof(std::uint64_t));
  } else {
    writer.WriteRaw(data_.data(), data_.size() * sizeof(double));
  }
}

Result<DenseBlock> DenseBlock::Deserialize(BinaryReader& reader) {
  auto rows = reader.Read<std::int64_t>();
  if (!rows.ok()) return rows.status();
  auto cols = reader.Read<std::int64_t>();
  if (!cols.ok()) return cols.status();
  auto flags = reader.Read<std::uint8_t>();
  if (!flags.ok()) return flags.status();
  if (*rows < 0 || *cols < 0) {
    return InvalidArgumentError("DenseBlock: negative shape");
  }
  const bool phantom = (*flags & kFlagPhantom) != 0;
  const bool packed = (*flags & kFlagPacked) != 0;
  if (phantom) {
    return packed ? PackedPhantom(*rows, *cols) : Phantom(*rows, *cols);
  }
  // rows * per_row * 8 bytes must fit in what is left. Checked by division:
  // a hostile shape (say 2^32 x 2^30) must not wrap the product into range.
  const std::int64_t per_row = packed ? WordsPerRow(*cols) : *cols;
  if (*rows > 0 && static_cast<std::uint64_t>(per_row) >
                       reader.remaining() / sizeof(std::uint64_t) /
                           static_cast<std::uint64_t>(*rows)) {
    return OutOfRangeError(packed ? "DenseBlock: truncated packed payload"
                                  : "DenseBlock: truncated payload");
  }
  const std::size_t count = static_cast<std::size_t>(*rows * per_row);
  if (packed) {
    DenseBlock out = PackedBoolean(*rows, *cols);
    auto status = reader.ReadRaw(out.words_.data(),
                                 count * sizeof(std::uint64_t));
    if (!status.ok()) return status;
    CountCopy(/*phantom=*/false, count);
    return out;
  }
  std::vector<double> data(count);
  auto status = reader.ReadRaw(data.data(), count * sizeof(double));
  if (!status.ok()) return status;
  // Materializing a payload from bytes duplicates block data just like a
  // copy constructor would — the zero-copy data plane must not do it on hot
  // paths, so it counts (durability paths sanction it with a CowScope).
  CountCopy(/*phantom=*/false, count);
  return DenseBlock(*rows, *cols, std::move(data));
}

DenseBlock DenseBlock::Column(std::int64_t c) const {
  if (phantom_) {
    return packed_ ? PackedPhantom(rows_, 1) : Phantom(rows_, 1);
  }
  if (packed_) {
    DenseBlock out = PackedBoolean(rows_, 1);
    for (std::int64_t r = 0; r < rows_; ++r) {
      if (GetBit(r, c)) out.SetBit(r, 0, true);
    }
    return out;
  }
  DenseBlock out(rows_, 1, 0.0);
  for (std::int64_t r = 0; r < rows_; ++r) out.Set(r, 0, At(r, c));
  return out;
}

DenseBlock DenseBlock::RowBlock(std::int64_t r) const {
  if (phantom_) {
    return packed_ ? PackedPhantom(1, cols_) : Phantom(1, cols_);
  }
  if (packed_) {
    DenseBlock out = PackedBoolean(1, cols_);
    std::memcpy(out.MutableWordRow(0), WordRow(r),
                static_cast<std::size_t>(words_per_row_) *
                    sizeof(std::uint64_t));
    return out;
  }
  DenseBlock out(1, cols_, 0.0);
  std::memcpy(out.mutable_data(), Row(r),
              static_cast<std::size_t>(cols_) * sizeof(double));
  return out;
}

DenseBlock DenseBlock::Transposed() const {
  if (phantom_) {
    return packed_ ? PackedPhantom(cols_, rows_) : Phantom(cols_, rows_);
  }
  if (packed_) {
    DenseBlock out = PackedBoolean(cols_, rows_);
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t w = 0; w < words_per_row_; ++w) {
        std::uint64_t word = WordRow(r)[w];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          word &= word - 1;
          out.SetBit((w << 6) + bit, r, true);
        }
      }
    }
    return out;
  }
  DenseBlock out(cols_, rows_, 0.0);
  // Simple tiled transpose to stay cache-friendly for large blocks.
  constexpr std::int64_t kTile = 64;
  for (std::int64_t r0 = 0; r0 < rows_; r0 += kTile) {
    for (std::int64_t c0 = 0; c0 < cols_; c0 += kTile) {
      const std::int64_t r1 = std::min(rows_, r0 + kTile);
      const std::int64_t c1 = std::min(cols_, c0 + kTile);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          out.Set(c, r, At(r, c));
        }
      }
    }
  }
  return out;
}

DenseBlock DenseBlock::SubBlock(std::int64_t r0, std::int64_t c0,
                                std::int64_t h, std::int64_t w) const {
  if (phantom_) return packed_ ? PackedPhantom(h, w) : Phantom(h, w);
  if (packed_) {
    DenseBlock out = PackedBoolean(h, w);
    if ((c0 & 63) == 0) {
      // Word-aligned column offset: copy whole words, mask the ragged tail.
      const std::int64_t src_w0 = c0 >> 6;
      const std::int64_t out_wpr = out.words_per_row_;
      const std::uint64_t tail_mask =
          (w & 63) == 0 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (w & 63)) - 1;
      for (std::int64_t r = 0; r < h; ++r) {
        const std::uint64_t* src = WordRow(r0 + r) + src_w0;
        std::uint64_t* dst = out.MutableWordRow(r);
        for (std::int64_t i = 0; i < out_wpr; ++i) dst[i] = src[i];
        dst[out_wpr - 1] &= tail_mask;
      }
    } else {
      for (std::int64_t r = 0; r < h; ++r) {
        for (std::int64_t c = 0; c < w; ++c) {
          if (GetBit(r0 + r, c0 + c)) out.SetBit(r, c, true);
        }
      }
    }
    return out;
  }
  DenseBlock out(h, w, 0.0);
  for (std::int64_t r = 0; r < h; ++r) {
    std::memcpy(out.MutableRow(r), Row(r0 + r) + c0,
                static_cast<std::size_t>(w) * sizeof(double));
  }
  return out;
}

DenseBlock DenseBlock::RowPanel(std::int64_t r0, std::int64_t h) const {
  if (r0 < 0 || h < 0 || r0 + h > rows_) {
    throw std::invalid_argument("RowPanel: row range out of bounds");
  }
  if (phantom_) return packed_ ? PackedPhantom(h, cols_) : Phantom(h, cols_);
  if (packed_) {
    DenseBlock out = PackedBoolean(h, cols_);
    std::memcpy(out.words_.data(), WordRow(r0),
                static_cast<std::size_t>(h * words_per_row_) *
                    sizeof(std::uint64_t));
    return out;
  }
  DenseBlock out(h, cols_, 0.0);
  std::memcpy(out.mutable_data(), Row(r0),
              static_cast<std::size_t>(h * cols_) * sizeof(double));
  return out;
}

void DenseBlock::PasteRowPanel(std::int64_t r0, const DenseBlock& panel) {
  if (panel.cols() != cols_ || r0 < 0 || r0 + panel.rows() > rows_) {
    throw std::invalid_argument("PasteRowPanel: panel does not fit");
  }
  if (phantom_ || panel.is_phantom()) {
    throw std::invalid_argument("PasteRowPanel: phantom operand");
  }
  if (packed_ != panel.packed_) {
    throw std::invalid_argument("PasteRowPanel: packed/dense mismatch");
  }
  if (packed_) {
    std::memcpy(MutableWordRow(r0), panel.words_.data(),
                static_cast<std::size_t>(panel.rows_ * words_per_row_) *
                    sizeof(std::uint64_t));
    return;
  }
  std::memcpy(MutableRow(r0), panel.data(),
              static_cast<std::size_t>(panel.size()) * sizeof(double));
}

bool DenseBlock::AllInfinite() const noexcept {
  if (phantom_) return false;  // unknown structure: never licenses a skip
  if (packed_) return false;   // boolean payload: +inf cannot occur
  for (const double v : data_) {
    if (!std::isinf(v)) return false;
  }
  return true;
}

bool DenseBlock::ApproxEquals(const DenseBlock& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  if (phantom_ || other.phantom_) return phantom_ == other.phantom_;
  return MaxAbsDiff(other) <= tol;
}

double DenseBlock::MaxAbsDiff(const DenseBlock& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return kInf;
  if (phantom_ || other.phantom_) return phantom_ == other.phantom_ ? 0 : kInf;
  double max_diff = 0.0;
  // At() is packed-aware, so a packed block compares equal to its dense 0/1
  // image; the dense/dense case still touches each payload entry once.
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) {
      const double a = At(r, c);
      const double b = other.At(r, c);
      const bool a_inf = std::isinf(a);
      const bool b_inf = std::isinf(b);
      if (a_inf != b_inf) return kInf;
      if (a_inf) continue;
      max_diff = std::max(max_diff, std::fabs(a - b));
    }
  }
  return max_diff;
}

DenseBlock FrontierPanel(std::int64_t rows,
                         const std::vector<std::int64_t>& unit_rows,
                         double zero, double one) {
  DenseBlock out(rows, static_cast<std::int64_t>(unit_rows.size()), zero);
  for (std::size_t j = 0; j < unit_rows.size(); ++j) {
    const std::int64_t r = unit_rows[j];
    if (r < 0 || r >= rows) {
      throw std::invalid_argument("FrontierPanel: unit row out of range");
    }
    out.Set(r, static_cast<std::int64_t>(j), one);
  }
  return out;
}

}  // namespace apspark::linalg
