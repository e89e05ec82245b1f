// A cache entry that may be only partially decompressed.
//
// A compressed file has one form, the chunked frame (compress/chunked.hpp);
// the plain constructor holds stored (id 0) blobs and frames FanStoreFs
// decoded before admission. A frame entry keeps the *compressed* frame and
// decodes chunks on demand:
//
//   - read_range() decodes only the chunks overlapping the request — the
//     pread() latency win: a 64 KiB read of a 100 MB object touches at most
//     two chunks instead of the whole file.
//   - materialize_all() decodes every missing chunk, optionally in parallel
//     (open()'s eager path and the prefetcher's warm path).
//
// Concurrency: each chunk has an atomic state (empty -> decoding -> ready).
// A reader claims an empty chunk under mu_, decodes with no lock held, then
// publishes ready; concurrent readers of the same chunk wait on the condvar.
// Distinct chunks decode fully in parallel. The claim protocol also makes
// decode *charging* exact: DecodeStats reports a chunk in exactly one
// caller's stats, so virtual-time decompress cost is charged once per chunk
// no matter how many threads race (the PR-3 double-charge bug is structural
// here, not patched around).
//
// The compressed frame is retained even after full materialization: freeing
// it would race with concurrent readers holding ChunkedFrame views, and the
// shared_ptr aliasing used by PlainCache needs a stable owner anyway.
// charge_bytes() therefore accounts compressed size + materialized plain
// bytes. Where nothing needs the frame after decode (no cache tier, eager
// open), FanStoreFs decodes before the entry is shared and keeps only
// take_plain(), so such an entry is charged its plain size alone.
//
// Lock order: cached_file.mu is a leaf — decode runs with no lock held and
// callers (FanStoreFs) only take it via this class.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "compress/chunked.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace fanstore::core {

class CachedFile {
 public:
  /// Per-call accounting of *newly* decoded chunks (never chunks another
  /// thread decoded, never chunks already materialized).
  struct DecodeStats {
    std::size_t chunks_decoded = 0;
    std::size_t bytes_decoded = 0;  // uncompressed bytes of those chunks
  };

  /// Fully-materialized entry: stored blobs, or a frame decoded up front.
  explicit CachedFile(Bytes plain);

  /// Lazy chunked entry: parses and validates the frame, allocates the
  /// plain buffer, decodes nothing. Throws CorruptDataError on a bad frame.
  CachedFile(Bytes compressed, compress::CompressorId chunked_id,
             std::size_t original_size);

  CachedFile(const CachedFile&) = delete;
  CachedFile& operator=(const CachedFile&) = delete;

  std::size_t size() const { return plain_.size(); }
  bool is_chunked() const { return chunk_count_ > 0; }
  std::size_t chunk_count() const { return chunk_count_; }
  std::size_t chunk_size() const { return frame_.chunk_size(); }
  /// Inner codec id of a chunked entry (0 for non-chunked).
  compress::CompressorId inner_id() const {
    return chunk_count_ > 0 ? frame_.inner_id() : 0;
  }

  /// True once every chunk is decoded (always true for non-chunked files).
  bool fully_materialized() const {
    return ready_chunks_.load(std::memory_order_acquire) == chunk_count_;
  }
  std::size_t chunks_materialized() const {
    return ready_chunks_.load(std::memory_order_acquire);
  }

  /// True once nothing is left to check: FanStoreFs marks a chunked entry
  /// after its whole-file crc passes; non-chunked entries start true (their
  /// decoder checks the bytes before constructing the entry).
  bool verified() const { return verified_.load(std::memory_order_acquire); }
  void mark_verified() { verified_.store(true, std::memory_order_release); }

  /// Copies [offset, offset + out.size()) into `out`, decoding exactly the
  /// overlapping missing chunks first. The caller clips the range to
  /// size(). Throws CorruptDataError if a needed chunk is corrupt.
  void read_range(std::size_t offset, MutByteView out, DecodeStats* stats);

  /// Decodes every missing chunk, using up to `threads` workers when more
  /// than one chunk is missing. Throws CorruptDataError on a corrupt chunk
  /// (remaining chunks may still have been decoded).
  void materialize_all(std::size_t threads, DecodeStats* stats);

  /// The full plain contents; only valid once fully_materialized().
  const Bytes& plain() const { return plain_; }

  /// Moves the plain contents out of an entry nobody else references
  /// (FanStoreFs keeps them and drops the frame before admission).
  Bytes take_plain() && { return std::move(plain_); }

  /// The retained compressed frame of a chunked entry (empty for
  /// non-chunked entries). Immutable after construction — the tiered cache
  /// demotes this form into the compressed-RAM tier without re-encoding.
  const Bytes& compressed_bytes() const { return compressed_; }

  /// Structural chunked-container id of this entry (0 for non-chunked):
  /// the id that reconstructs an equivalent lazy entry from
  /// compressed_bytes() + size().
  compress::CompressorId container_id() const {
    return chunk_count_ > 0
               ? compress::chunked_id(frame_.inner_id(), frame_.chunk_size())
               : 0;
  }

  /// Bytes this entry occupies for cache-budget purposes: retained
  /// compressed frame + plain bytes of materialized chunks. Grows as
  /// chunks decode (PlainCache::recharge applies the delta).
  std::size_t charge_bytes() const;

 private:
  enum : std::uint8_t { kEmpty = 0, kDecoding = 1, kReady = 2 };

  /// Decodes chunk i if missing; blocks if another thread is decoding it.
  /// Returns true iff *this call* performed the decode.
  bool ensure_chunk(std::size_t i);

  Bytes plain_;
  Bytes compressed_;               // empty for non-chunked entries
  compress::ChunkedFrame frame_;   // views into compressed_
  std::size_t chunk_count_ = 0;    // 0 for non-chunked entries
  std::atomic<std::size_t> ready_chunks_{0};
  std::atomic<bool> verified_{true};
  std::unique_ptr<std::atomic<std::uint8_t>[]> states_;
  // mu_ guards no member directly: chunk states are claimed via atomic CAS
  // on states_[], and the mutex only parks losers of a decode race until
  // decode_done_ fires. fanstore-lint: allow(guarded-by)
  sync::Mutex mu_{"cached_file.mu"};
  sync::AnnotatedCondVar decode_done_;  // signalled when any chunk settles
};

}  // namespace fanstore::core
