// Byte-buffer primitives shared by every FanStore module.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fanstore {

/// Owning, contiguous byte buffer. All codec and I/O paths traffic in this.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of immutable bytes.
using ByteView = std::span<const std::uint8_t>;

/// Non-owning view of mutable bytes.
using MutByteView = std::span<std::uint8_t>;

inline ByteView as_view(const Bytes& b) { return ByteView{b.data(), b.size()}; }

/// Immutable, reference-counted byte buffer: copies share one allocation,
/// so a blob handed from a backend to the cache (or to a socket reply)
/// is never duplicated. Built from a Bytes it takes over, never copies.
class SharedBytes {
 public:
  SharedBytes() = default;
  // Implicit: a Bytes handed to a Blob or a CachedFile becomes shared.
  SharedBytes(Bytes bytes)
      : buf_(std::make_shared<const Bytes>(std::move(bytes))) {}

  const Bytes& bytes() const { return buf_ != nullptr ? *buf_ : empty_bytes(); }
  const std::uint8_t* data() const { return bytes().data(); }
  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  Bytes::const_iterator begin() const { return bytes().begin(); }
  Bytes::const_iterator end() const { return bytes().end(); }

  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.bytes() == b;
  }
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.bytes() == b.bytes();
  }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }
  std::shared_ptr<const Bytes> buf_;
};

inline ByteView as_view(const SharedBytes& b) { return as_view(b.bytes()); }

inline ByteView as_view(const std::string& s) {
  return ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

inline std::string to_string(ByteView v) {
  return std::string{reinterpret_cast<const char*>(v.data()), v.size()};
}

inline Bytes to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  return Bytes(p, p + s.size());
}

/// Reads a little-endian integral value from `p`. Caller guarantees bounds.
template <typename T>
inline T load_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;  // x86/ARM little-endian hosts; asserted in tests
}

/// Writes a little-endian integral value to `p`. Caller guarantees bounds.
template <typename T>
inline void store_le(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Appends a little-endian integral value to `out`.
template <typename T>
inline void append_le(Bytes& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

}  // namespace fanstore
