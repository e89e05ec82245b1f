// Shared LZ77 machinery: hashing and a hash-chain match finder.
//
// Every LZ-family codec (lzf, lz4, lz4hc, lzss, lzsse8, deflate-lite,
// brotli-lite, lzma-lite) parses with one of these finders; codecs differ in
// how they *encode* the (literal, match) stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bytes.hpp"

namespace fanstore::compress {

inline std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Fibonacci hash of the 4 bytes at `p`, reduced to `bits` bits.
inline std::uint32_t hash4(const std::uint8_t* p, int bits) {
  return (read_u32(p) * 2654435761u) >> (32 - bits);
}

/// Hash of the 3 bytes at `p` (for min-match-3 codecs), reduced to `bits`.
inline std::uint32_t hash3(const std::uint8_t* p, int bits) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - bits);
}

/// Longest common prefix of [a, limit) and [b, ...); b < a assumed valid.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                const std::uint8_t* limit) {
  const std::uint8_t* start = a;
  while (a + 8 <= limit) {
    std::uint64_t va, vb;
    std::memcpy(&va, a, 8);
    std::memcpy(&vb, b, 8);
    const std::uint64_t diff = va ^ vb;
    if (diff != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(std::countr_zero(diff) >> 3);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

/// Bytes copy_match() may write past the end of a match. A decoder either
/// over-allocates its output by this much (lzf, lzss, lzsse8) or copies
/// byte by byte when fewer bytes of `out` remain (lz4's decompress_into).
inline constexpr std::size_t kCopySlack = 16;

/// Expands an LZ match: copies `length` bytes from `dst - distance` to
/// `dst`. The ranges may overlap (distance < length replicates a run).
/// Wide strides are overlap-safe because a 16 (resp. 8) byte block read at
/// dst - distance + k never reaches dst + k when distance >= 16 (resp. 8);
/// shorter distances take the scalar path. The caller must guarantee
/// kCopySlack writable bytes past dst + length.
inline void copy_match(std::uint8_t* dst, std::size_t distance,
                       std::size_t length) {
  const std::uint8_t* src = dst - distance;
  if (distance >= 16) {
    for (std::size_t k = 0; k < length; k += 16) {
      std::memcpy(dst + k, src + k, 16);
    }
  } else if (distance >= 8) {
    for (std::size_t k = 0; k < length; k += 8) {
      std::memcpy(dst + k, src + k, 8);
    }
  } else {
    for (std::size_t k = 0; k < length; ++k) dst[k] = src[k];
  }
}

/// A match candidate: `length` bytes at distance `distance` behind `pos`.
struct Match {
  std::size_t length = 0;
  std::size_t distance = 0;
};

/// Hash-chain match finder with bounded search depth. Insertion order gives
/// nearest-first traversal, so the first acceptable match is the closest.
class HashChainFinder {
 public:
  /// `hash_bits` sizes the head table; `window` bounds match distance;
  /// `depth` bounds candidates examined per query; `min_match` in {3, 4}.
  HashChainFinder(ByteView src, int hash_bits, std::size_t window,
                  std::size_t depth, std::size_t min_match)
      : src_(src.data()),
        size_(src.size()),
        hash_bits_(hash_bits),
        window_(window),
        depth_(depth),
        min_match_(min_match),
        head_(std::size_t{1} << hash_bits, kNone),
        prev_(src.size(), kNone) {}

  /// Finds the longest match for position `pos`, capped at `max_len`.
  /// Does not insert `pos`; call insert(pos) afterwards (or insert_run).
  Match find(std::size_t pos, std::size_t max_len) const {
    Match best;
    if (pos + min_match_ > size_) return best;
    const std::uint8_t* limit = src_ + std::min(size_, pos + max_len);
    std::uint32_t h = hash_at(pos);
    std::uint32_t cand = head_[h];
    std::size_t tries = depth_;
    while (cand != kNone && tries-- > 0) {
      const std::size_t cpos = cand;
      if (cpos >= pos) {  // self or future position (double insertion guard)
        cand = prev_[cpos];
        continue;
      }
      if (pos - cpos > window_) break;  // chain is position-ordered
      const std::size_t len = match_length(src_ + pos, src_ + cpos, limit);
      if (len > best.length) {
        best.length = len;
        best.distance = pos - cpos;
        if (src_ + pos + len == limit) break;  // cannot improve
      }
      cand = prev_[cpos];
    }
    if (best.length < min_match_) best = Match{};
    return best;
  }

  /// Registers position `pos` in the chains. Idempotent for the most
  /// recently inserted position (re-insertion would create a self-loop).
  void insert(std::size_t pos) {
    if (pos + min_match_ > size_) return;
    const std::uint32_t h = hash_at(pos);
    if (head_[h] == pos) return;
    prev_[pos] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

  /// Registers every position in [begin, end).
  void insert_run(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) insert(i);
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::uint32_t hash_at(std::size_t pos) const {
    return min_match_ >= 4 ? hash4(src_ + pos, hash_bits_)
                           : hash3(src_ + pos, hash_bits_);
  }

  const std::uint8_t* src_;
  std::size_t size_;
  int hash_bits_;
  std::size_t window_;
  std::size_t depth_;
  std::size_t min_match_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
};

}  // namespace fanstore::compress
