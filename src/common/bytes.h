#ifndef TRIAD_COMMON_BYTES_H_
#define TRIAD_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace triad::io {

/// \file The byte codec every binary format is written and read with
/// (ARCHITECTURE.md §10): checkpoints, tensor streams, the fleet manifest,
/// tenant snapshots, WAL records and their framing.
///
/// Values are fixed-width and stored in host byte order (little-endian on
/// every supported target), with no padding or alignment between them.
/// The reader's one rule: it never sizes anything from a count it has not
/// checked against the bytes left, so no count a decoder reads can make it
/// allocate more than its input holds.

/// \brief Appends fixed-width values to a byte string it does not own.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  /// `count` values, with no count prefix.
  template <typename T>
  void PutArray(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(values), count * sizeof(T));
  }

  void PutBytes(std::string_view bytes) { out_->append(bytes); }

 private:
  std::string* out_;
};

/// \brief Reads fixed-width values from a byte view it does not own.
///
/// The first read that runs past the end fails the reader for good: it and
/// every later read return zero values or empty views, so a decoder can
/// chain reads and test ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// Bytes left; 0 once the reader has failed.
  size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

  /// One value into `*value` (left unchanged on failure); false on failure.
  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::string_view raw = GetBytes(sizeof(T));
    if (!ok_) return false;
    std::memcpy(value, raw.data(), sizeof(T));
    return true;
  }

  /// One value, or T{} on failure.
  template <typename T>
  T Get() {
    T value{};
    Get(&value);
    return value;
  }

  /// The next `n` bytes as a view into the input; empty on failure.
  std::string_view GetBytes(uint64_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return {};
    }
    const std::string_view out = bytes_.substr(pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return out;
  }

  /// `count` values into `*out`, resized to `count`. Fails, and leaves
  /// `*out` untouched, when fewer than `count * sizeof(T)` bytes are left,
  /// so a hostile count costs nothing.
  template <typename T, typename Alloc>
  bool GetArray(uint64_t count, std::vector<T, Alloc>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || count > (bytes_.size() - pos_) / sizeof(T)) {
      ok_ = false;
      return false;
    }
    out->resize(static_cast<size_t>(count));
    // memcpy from or to a null pointer is undefined even for 0 bytes, and
    // an empty vector's data() may be null.
    if (count == 0) return true;
    std::memcpy(out->data(), GetBytes(count * sizeof(T)).data(),
                static_cast<size_t>(count) * sizeof(T));
    return true;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace triad::io

#endif  // TRIAD_COMMON_BYTES_H_
