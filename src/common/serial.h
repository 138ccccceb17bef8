// Binary serialization used by the sparklet shuffle service and the shared
// persistent storage side channel. Data written through a BinaryWriter is a
// flat little-endian byte stream; this is what the virtual cluster charges
// against local-disk and network budgets, so serialized sizes must be exact.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace apspark {

class BinaryWriter {
 public:
  BinaryWriter() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void Write(const T& value) {
    const auto* src = reinterpret_cast<const std::uint8_t*>(&value);
    buffer_.insert(buffer_.end(), src, src + sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write(static_cast<std::uint64_t>(s.size()));
    const auto* src = reinterpret_cast<const std::uint8_t*>(s.data());
    buffer_.insert(buffer_.end(), src, src + s.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void WriteVector(const std::vector<T>& v) {
    Write(static_cast<std::uint64_t>(v.size()));
    const auto* src = reinterpret_cast<const std::uint8_t*>(v.data());
    buffer_.insert(buffer_.end(), src, src + v.size() * sizeof(T));
  }

  void WriteRaw(const void* data, std::size_t size) {
    const auto* src = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), src, src + size);
  }

  std::size_t size() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& buffer() const noexcept { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() && { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Result<T> Read() {
    if (pos_ + sizeof(T) > size_) {
      return OutOfRangeError("BinaryReader: read past end of buffer");
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> ReadString() {
    auto len = Read<std::uint64_t>();
    if (!len.ok()) return len.status();
    if (*len > remaining()) {
      return OutOfRangeError("BinaryReader: string past end of buffer");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(*len));
    pos_ += static_cast<std::size_t>(*len);
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Result<std::vector<T>> ReadVector() {
    auto len = Read<std::uint64_t>();
    if (!len.ok()) return len.status();
    // Divide rather than multiply: a hostile length must not wrap the
    // byte count into range.
    if (*len > remaining() / sizeof(T)) {
      return OutOfRangeError("BinaryReader: vector past end of buffer");
    }
    std::vector<T> v(static_cast<std::size_t>(*len));
    std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
    pos_ += v.size() * sizeof(T);
    return v;
  }

  /// Copies the next `size` bytes into `dst` in one bounds-checked copy.
  Status ReadRaw(void* dst, std::size_t size) {
    if (size > remaining()) {
      return OutOfRangeError("BinaryReader: raw read past end of buffer");
    }
    if (size > 0) std::memcpy(dst, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool AtEnd() const noexcept { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace apspark
