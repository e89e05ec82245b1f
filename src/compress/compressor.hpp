// Compressor interface for FanStore's lossless codec suite.
//
// The paper evaluates ~180 compressor configurations from lzbench and stores
// a 2-byte compressor identifier per file in the partition format (Table I).
// Every codec here implements this interface; the Registry (registry.hpp)
// assigns the stable identifiers.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"

namespace fanstore::compress {

/// Stable 2-byte codec-configuration identifier, persisted in partitions.
using CompressorId = std::uint16_t;

/// Thrown by decompress() and decompress_into() when the input stream is
/// malformed or truncated.
class CorruptDataError : public std::runtime_error {
 public:
  explicit CorruptDataError(const std::string& what) : std::runtime_error(what) {}
};

/// A lossless codec configuration. Implementations are stateless and
/// thread-safe: one instance may serve concurrent compress/decompress calls.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Human-readable configuration name, e.g. "lz4hc-9".
  virtual std::string name() const = 0;

  /// Compresses `src`; the result is self-contained given `src.size()`.
  virtual Bytes compress(ByteView src) const = 0;

  /// Reverses compress(). `original_size` is the exact uncompressed size
  /// (FanStore stores it in the per-file stat record). Throws
  /// CorruptDataError on malformed input.
  virtual Bytes decompress(ByteView src, std::size_t original_size) const = 0;

  /// Reverses compress() straight into `out`, whose size is the exact
  /// uncompressed size. The decoder writes only inside `out`: never a byte
  /// before or past it, so neighbouring spans of one buffer (the chunks of
  /// a CachedFile) may decode concurrently. On CorruptDataError `out` may
  /// be partly written. The default decodes into a temporary through
  /// decompress() and copies; codecs on the chunked hot path override it.
  virtual void decompress_into(ByteView src, MutByteView out) const {
    const Bytes plain = decompress(src, out.size());
    if (plain.size() != out.size()) {
      throw CorruptDataError(name() + ": decoded size mismatch");
    }
    if (!plain.empty()) std::memcpy(out.data(), plain.data(), plain.size());
  }
};

/// Convenience: compression ratio (original / compressed); >= 1 is a win.
inline double ratio(std::size_t original, std::size_t compressed) {
  return compressed == 0 ? 1.0
                         : static_cast<double>(original) / static_cast<double>(compressed);
}

}  // namespace fanstore::compress
