#include "apsp/block_layout.h"

#include <algorithm>
#include <stdexcept>

#include "common/math_utils.h"

namespace apspark::apsp {

namespace {

/// Checked before CeilDiv runs: a zero block size would divide by zero.
std::int64_t CheckedBlockCount(std::int64_t n, std::int64_t block_size) {
  if (n <= 0 || block_size <= 0) {
    throw std::invalid_argument("BlockLayout: n and block size must be > 0");
  }
  return CeilDiv(n, block_size);
}

}  // namespace

BlockLayout::BlockLayout(std::int64_t n, std::int64_t block_size,
                         bool directed)
    : n_(n),
      b_(block_size),
      q_(CheckedBlockCount(n, block_size)),
      directed_(directed) {}

std::int64_t BlockLayout::BlockDim(std::int64_t index) const noexcept {
  return std::min(b_, n_ - index * b_);
}

std::int64_t BlockLayout::StoredBlockCount() const noexcept {
  return directed_ ? q_ * q_ : q_ * (q_ + 1) / 2;
}

bool BlockLayout::Stores(const BlockKey& key) const noexcept {
  if (key.I < 0 || key.J < 0 || key.I >= q_ || key.J >= q_) return false;
  return directed_ || key.I <= key.J;
}

BlockKey BlockLayout::Canonical(std::int64_t i_block,
                                std::int64_t j_block) const noexcept {
  if (directed_ || i_block <= j_block) return {i_block, j_block};
  return {j_block, i_block};
}

std::vector<BlockKey> BlockLayout::StoredKeys() const {
  std::vector<BlockKey> keys;
  keys.reserve(static_cast<std::size_t>(StoredBlockCount()));
  for (std::int64_t i = 0; i < q_; ++i) {
    for (std::int64_t j = directed_ ? 0 : i; j < q_; ++j) {
      keys.push_back({i, j});
    }
  }
  return keys;
}

bool BlockLayout::InColumnCross(const BlockKey& key,
                                std::int64_t x) const noexcept {
  // Undirected storage: the upper-triangular block carries data of column x
  // whenever either index is x (the mirrored half is served by transpose).
  // Directed (full) storage: column x is exactly the keys with J == x.
  if (directed_) return key.J == x;
  return key.I == x || key.J == x;
}

bool BlockLayout::InCross(const BlockKey& key, std::int64_t x) const noexcept {
  return key.I == x || key.J == x;
}

std::vector<BlockRecord> BlockLayout::Decompose(
    const linalg::DenseBlock& matrix) const {
  if (matrix.rows() != n_ || matrix.cols() != n_) {
    throw std::invalid_argument("Decompose: matrix shape does not match layout");
  }
  std::vector<BlockRecord> records;
  records.reserve(static_cast<std::size_t>(StoredBlockCount()));
  for (const BlockKey& key : StoredKeys()) {
    if (matrix.is_phantom()) {
      records.emplace_back(
          key, linalg::MakeBlock(
                   matrix.is_packed()
                       ? linalg::DenseBlock::PackedPhantom(BlockDim(key.I),
                                                           BlockDim(key.J))
                       : linalg::DenseBlock::Phantom(BlockDim(key.I),
                                                     BlockDim(key.J))));
    } else {
      records.emplace_back(
          key, linalg::MakeBlock(matrix.SubBlock(key.I * b_, key.J * b_,
                                                 BlockDim(key.I),
                                                 BlockDim(key.J))));
    }
  }
  return records;
}

std::vector<BlockRecord> BlockLayout::DecomposePhantom(bool packed) const {
  std::vector<BlockRecord> records;
  records.reserve(static_cast<std::size_t>(StoredBlockCount()));
  for (const BlockKey& key : StoredKeys()) {
    records.emplace_back(
        key, linalg::MakeBlock(
                 packed ? linalg::DenseBlock::PackedPhantom(BlockDim(key.I),
                                                            BlockDim(key.J))
                        : linalg::DenseBlock::Phantom(BlockDim(key.I),
                                                      BlockDim(key.J))));
  }
  return records;
}

Result<linalg::DenseBlock> BlockLayout::Assemble(
    const std::vector<BlockRecord>& records) const {
  // A bit-packed solve assembles into a bit-packed matrix (n = 65536 packed
  // reachability is 512 MiB; the dense-double image would be 32 GiB). Every
  // cell is Set below, so the initial fill never survives either way.
  const bool packed = !records.empty() && records.front().second &&
                      records.front().second->is_packed();
  linalg::DenseBlock out =
      packed ? linalg::DenseBlock::PackedBoolean(n_, n_)
             : linalg::DenseBlock(n_, n_, linalg::kInf);
  std::int64_t placed = 0;
  for (const auto& [key, block] : records) {
    if (!Stores(key)) {
      return InvalidArgumentError("Assemble: non-canonical key " +
                                  key.ToString());
    }
    if (!block || block->is_phantom()) {
      return FailedPreconditionError(
          "Assemble: phantom or missing payload at " + key.ToString());
    }
    const std::int64_t r0 = key.I * b_;
    const std::int64_t c0 = key.J * b_;
    for (std::int64_t r = 0; r < block->rows(); ++r) {
      for (std::int64_t c = 0; c < block->cols(); ++c) {
        out.Set(r0 + r, c0 + c, block->At(r, c));
        if (!directed_ && key.I != key.J) {
          out.Set(c0 + c, r0 + r, block->At(r, c));
        }
      }
    }
    ++placed;
  }
  if (placed != StoredBlockCount()) {
    return FailedPreconditionError(
        "Assemble: expected " + std::to_string(StoredBlockCount()) +
        " blocks, got " + std::to_string(placed));
  }
  return out;
}

linalg::DenseBlock BlockLayout::Orient(const BlockKey& canonical,
                                       const linalg::DenseBlock& payload,
                                       std::int64_t i_block,
                                       std::int64_t j_block) {
  if (canonical.I == i_block && canonical.J == j_block) return payload;
  return payload.Transposed();
}

}  // namespace apspark::apsp
