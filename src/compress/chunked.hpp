// Chunked container framing: any registered inner codec wrapped so that a
// file compresses as independent fixed-size chunks instead of one monolithic
// stream.
//
// Why (paper §read path, Table VI): the baseline read path decompresses a
// whole object inside open() on one core. Chunking turns that into an
// embarrassingly parallel decode (one chunk per task) and — the latency win —
// lets a pread of [offset, offset+len) decode only the chunks it overlaps,
// so a 4 KB read at the tail of a 100 MB object stops paying whole-file
// decompression (cf. Progressive Compressed Records / HDMLP in PAPERS.md).
//
// Container layout (all little-endian):
//
//   header   u32 magic "FCK1" | u8 version=1 | u16 inner_id |
//            u32 chunk_size | u32 chunk_count                    (15 bytes)
//   table    chunk_count x { u64 offset, u32 csize, u32 crc32 }  (16 B each)
//   payload  concatenated inner-compressed chunks
//
// `offset` is relative to the start of the payload area and must equal the
// running sum of preceding csizes (redundancy that parse() verifies). The
// crc32 covers the *compressed* chunk bytes so corruption is caught before
// the inner decoder runs. The original (uncompressed) size is NOT stored:
// FanStore always carries it externally (FileStat / partition record), and
// parse() takes it as an argument — chunk_count must equal
// ceil(original_size / chunk_size) or the frame is rejected.
//
// Id scheme (see registry.cpp): chunked configurations get structural ids in
// a reserved range rather than enumerated entries —
//
//   bit 15        1 = chunked frame
//   bits 10..14   log2(chunk_size) - 12   (chunk sizes are powers of two,
//                                          4 KiB .. 2 GiB: the header's
//                                          u32 chunk_size caps the range)
//   bits 0..9     inner CompressorId      (all flat ids are < 1024)
//
// so the 2-byte compressor field in partitions and daemon replies round-trips
// a chunked codec with zero format changes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/compressor.hpp"
#include "util/bytes.hpp"

namespace fanstore::compress {

inline constexpr CompressorId kChunkedFlag = 0x8000;
inline constexpr std::size_t kMinChunkSize = std::size_t{4} << 10;  // 4 KiB
inline constexpr std::size_t kMaxChunkSize = std::size_t{2} << 30;  // 2 GiB
inline constexpr std::uint32_t kChunkedMagic = 0x314B4346;          // "FCK1"
inline constexpr std::size_t kChunkedHeaderSize = 15;
inline constexpr std::size_t kChunkTableEntrySize = 16;

inline constexpr bool is_chunked_id(CompressorId id) {
  return (id & kChunkedFlag) != 0;
}

/// Structural id for chunked(inner, chunk_size). Throws std::invalid_argument
/// when chunk_size is not a power of two in [4 KiB, 2 GiB], or inner is
/// itself chunked or >= 1024 (outside the flat id space).
CompressorId chunked_id(CompressorId inner, std::size_t chunk_size);

/// Inner codec id encoded in a chunked id (no validation of the flag).
inline constexpr CompressorId chunked_inner_id(CompressorId id) {
  return static_cast<CompressorId>(id & 0x03FF);
}

/// Chunk size encoded in a chunked id.
inline constexpr std::size_t chunked_chunk_size(CompressorId id) {
  return std::size_t{1} << (((id >> 10) & 0x1F) + 12);
}

/// Parsed, validated view over a chunked container. Keeps ByteViews into the
/// caller's buffer — the compressed bytes must outlive the frame.
class ChunkedFrame {
 public:
  /// Empty frame (no chunks); overwritten via parse().
  ChunkedFrame() = default;

  /// Parses and fully validates the header + chunk table against
  /// `original_size` (the known uncompressed size). Throws CorruptDataError
  /// on any inconsistency: bad magic/version, unknown or nested inner codec,
  /// truncated table, non-contiguous offsets, payload overrun, or a
  /// chunk count that disagrees with original_size.
  static ChunkedFrame parse(ByteView src, std::size_t original_size);

  std::size_t chunk_count() const { return chunk_count_; }
  std::size_t chunk_size() const { return chunk_size_; }
  CompressorId inner_id() const { return inner_id_; }
  std::size_t original_size() const { return original_size_; }

  /// Uncompressed byte offset where chunk i begins.
  std::size_t chunk_begin(std::size_t i) const { return i * chunk_size_; }
  /// Uncompressed size of chunk i (the last chunk may be short).
  std::size_t chunk_plain_size(std::size_t i) const;
  /// Compressed bytes of chunk i (view into the parsed buffer).
  ByteView chunk_compressed(std::size_t i) const;

  /// Verifies chunk i's crc32, then decodes it straight into `out`, which
  /// must be chunk_plain_size(i) long, through the inner codec's
  /// decompress_into(): no temporary, and no write outside `out`. Throws
  /// CorruptDataError; `out` may then be partly written.
  void decode_chunk_into(std::size_t i, MutByteView out) const;

 private:
  const Compressor* inner_ = nullptr;
  CompressorId inner_id_ = 0;
  std::size_t chunk_size_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t original_size_ = 0;
  ByteView table_;    // chunk_count * kChunkTableEntrySize bytes
  ByteView payload_;  // concatenated compressed chunks
};

/// Compressor wrapping `inner` with the chunked container. Stateless and
/// thread-safe like every codec; `inner` must outlive it (registry codecs
/// have static lifetime).
class ChunkedCompressor final : public Compressor {
 public:
  ChunkedCompressor(const Compressor* inner, CompressorId inner_id,
                    std::size_t chunk_size);

  std::string name() const override;
  /// Serial chunk-by-chunk encode, so speed sampling
  /// (select::profile_candidates) stays single-threaded; use
  /// compress_with() for parallel prep.
  Bytes compress(ByteView src) const override;
  Bytes decompress(ByteView src, std::size_t original_size) const override;

  /// Parallel encode: chunks are compressed on up to `threads` threads via
  /// util::parallel_for. threads <= 1 degenerates to compress().
  Bytes compress_with(ByteView src, std::size_t threads) const;
  /// Parallel decode counterpart of decompress().
  Bytes decompress_with(ByteView src, std::size_t original_size,
                        std::size_t threads) const;

  CompressorId inner_id() const { return inner_id_; }
  std::size_t chunk_size() const { return chunk_size_; }

 private:
  const Compressor* inner_;
  CompressorId inner_id_;
  std::size_t chunk_size_;
};

}  // namespace fanstore::compress
