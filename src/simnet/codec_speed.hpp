// Committed codec throughput table.
//
// Decompression is CPU work and could be charged at measured wall time, but
// scaling experiments run hundreds of rank-threads on a few host cores and
// oversubscription would corrupt the measurement. Instead each codec's
// decode throughput is measured once, single-threaded, on a representative
// sample by bench/bench_codec_speeds (through select::profile_candidates,
// the selector's own timing loop), and the result is committed as
// codec_speeds.inc. Virtual time is charged as bytes / throughput. This
// mirrors how the paper's selection algorithm treats Tpt_decom(c) — a
// per-codec constant estimated from samples (§VI-B). Nothing here reads a
// clock, so virtual-clock results replay across processes and hosts.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "compress/compressor.hpp"

namespace fanstore::simnet {

/// One row of codec_speeds.inc.
struct CodecSpeed {
  std::string_view name;  // exact registry configuration name ("lz4hc-9")
  double decompress_bps;  // uncompressed bytes/sec, single-threaded
};

/// Every row of the committed table, in file order.
std::span<const CodecSpeed> codec_speeds();

/// Decompression throughput (uncompressed bytes/sec) of a flat codec
/// config. Throws std::invalid_argument for an id with no row (an unknown
/// id, or a codec added to the registry without regenerating the table).
double decompress_bps(compress::CompressorId id);

inline double decompress_seconds(compress::CompressorId id,
                                 std::size_t uncompressed_bytes) {
  return static_cast<double>(uncompressed_bytes) / decompress_bps(id);
}

/// Virtual-time cost of decoding `chunks` chunks of a chunked container
/// (compress/chunked.hpp) totalling `bytes` uncompressed bytes on
/// `threads` workers. Chunks decode independently, so the makespan is
/// ceil(chunks / threads) chunk-batches — the serial cost scaled by that
/// fraction, never the serial sum. With threads == 1 this degenerates to
/// the serial cost of exactly the decoded bytes, which is what a partial
/// range decode charges. chunks == 0 costs nothing.
inline double chunked_decompress_seconds(compress::CompressorId inner_id,
                                         std::size_t bytes, std::size_t chunks,
                                         std::size_t threads) {
  if (chunks == 0 || bytes == 0) return 0.0;
  if (threads == 0) threads = 1;
  const double batches = static_cast<double>((chunks + threads - 1) / threads);
  return decompress_seconds(inner_id, bytes) *
         (batches / static_cast<double>(chunks));
}

}  // namespace fanstore::simnet
