// Typed in-place pack/unpack over transport bytes.
//
// PackedWriter fills a byte area front to back with trivially copyable
// elements. Over a pool-acquired Buffer, the finished buffer is *moved*
// into the network (Communicator::send_buffer), so a message is packed
// exactly once, in its final wire location. Over a span it fills a block
// of an all-to-all's staging area in place (Communicator::alltoallv_packed).
// PackedReader walks a received payload, or a sender's staged block, in
// place: unpacking reads straight out of the storage, no copy-out vector.
//
// Both sides are cursor-checked: a writer must be filled exactly to its
// declared size (finish(), take()), and a reader throws if a read runs past
// the payload — the typed equivalent of the old recv-size-mismatch check.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "simnet/buffer_pool.hpp"
#include "util/error.hpp"

namespace agcm::comm {

using Buffer = simnet::Buffer;

/// Packs typed elements into a fixed-size pooled buffer or byte span.
class PackedWriter {
 public:
  /// Wraps storage whose logical size is the exact wire size of the message.
  explicit PackedWriter(Buffer buffer)
      : buffer_(std::move(buffer)), bytes_(buffer_.span()) {}

  /// Fills `bytes` in place; the caller owns the storage (no take()).
  explicit PackedWriter(std::span<std::byte> bytes) : bytes_(bytes) {}

  std::size_t size_bytes() const { return bytes_.size(); }
  std::size_t cursor_bytes() const { return cursor_; }
  std::size_t remaining_bytes() const { return bytes_.size() - cursor_; }

  /// Reserves the next `count` elements and returns them for in-place
  /// filling (the zero-copy pack path: memcpy rows straight into the wire
  /// buffer).
  template <typename T>
  std::span<T> append(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    if (bytes > remaining_bytes()) {
      throw CommError("PackedWriter overflow: appending " +
                      std::to_string(bytes) + " bytes with " +
                      std::to_string(remaining_bytes()) + " remaining");
    }
    T* base = reinterpret_cast<T*>(bytes_.data() + cursor_);
    cursor_ += bytes;
    return {base, count};
  }

  /// Copies `values` into the buffer.
  template <typename T>
  void write(std::span<const T> values) {
    auto dst = append<T>(values.size());
    if (!values.empty()) {
      std::memcpy(dst.data(), values.data(), values.size_bytes());
    }
  }

  /// Throws unless the writer has been filled exactly to its size.
  void finish() const {
    if (cursor_ != bytes_.size()) {
      throw CommError("PackedWriter finished before it was filled (" +
                      std::to_string(cursor_) + " of " +
                      std::to_string(bytes_.size()) + " bytes)");
    }
  }

  /// Releases the filled buffer for sending; the writer must be full.
  Buffer take() {
    finish();
    cursor_ = 0;
    bytes_ = {};
    return std::move(buffer_);
  }

 private:
  Buffer buffer_;  ///< owned storage; empty for a span-backed writer
  std::span<std::byte> bytes_;
  std::size_t cursor_ = 0;
};

/// Reads typed elements out of a received payload or a byte span, in place.
class PackedReader {
 public:
  explicit PackedReader(Buffer buffer)
      : buffer_(std::move(buffer)), bytes_(std::as_const(buffer_).span()) {}

  /// Reads `bytes` in place; the caller keeps the storage alive.
  explicit PackedReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::size_t size_bytes() const { return bytes_.size(); }
  std::size_t remaining_bytes() const { return bytes_.size() - cursor_; }

  /// Views the next `count` elements without copying. The payload start is
  /// allocator-aligned and messages are packed homogeneously, so the
  /// in-place view is correctly aligned; debug builds assert it.
  template <typename T>
  std::span<const T> view(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = count * sizeof(T);
    if (bytes > remaining_bytes()) {
      throw CommError("PackedReader underflow: reading " +
                      std::to_string(bytes) + " bytes with " +
                      std::to_string(remaining_bytes()) + " remaining");
    }
    const T* base = reinterpret_cast<const T*>(bytes_.data() + cursor_);
    AGCM_DBG_ASSERT(reinterpret_cast<std::uintptr_t>(base) % alignof(T) == 0);
    cursor_ += bytes;
    return {base, count};
  }

  /// Copies the next out.size() elements into `out`.
  template <typename T>
  void read(std::span<T> out) {
    auto src = view<T>(out.size());
    if (!out.empty()) {
      std::memcpy(out.data(), src.data(), src.size_bytes());
    }
  }

 private:
  Buffer buffer_;  ///< owned payload; empty for a span-backed reader
  std::span<const std::byte> bytes_;
  std::size_t cursor_ = 0;
};

/// A whole received payload viewed as a typed array; owns the pooled
/// storage, so the span stays valid for the view's lifetime.
template <typename T>
class TypedView {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  explicit TypedView(Buffer buffer) : buffer_(std::move(buffer)) {
    if (buffer_.size() % sizeof(T) != 0) {
      throw CommError("recv_view: payload not a multiple of sizeof(T)");
    }
  }

  std::size_t size() const { return buffer_.size() / sizeof(T); }
  bool empty() const { return buffer_.empty(); }
  const T* data() const {
    return reinterpret_cast<const T*>(buffer_.data());
  }
  const T& operator[](std::size_t i) const { return data()[i]; }
  std::span<const T> values() const { return {data(), size()}; }
  operator std::span<const T>() const { return values(); }

 private:
  Buffer buffer_;
};

}  // namespace agcm::comm
