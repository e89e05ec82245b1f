// LZ4-like codec: token = (litlen nibble | matchlen nibble), 0xF nibbles are
// extended with 255-terminated byte runs; offsets are 16-bit little-endian.
//
// Three encoder strategies share the format:
//   - fast  : single-probe hash with step acceleration (lz4 "fast" mode)
//   - greedy: single probe at every position (default lz4 level)
//   - hc    : hash-chain search with level-scaled depth and lazy matching
#include <algorithm>
#include <vector>

#include "compress/codecs.hpp"
#include "compress/lz_common.hpp"
#include "util/bytes.hpp"

namespace fanstore::compress {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kWindow = 65535;
// Decoder shortcut bounds (the reference decoder's): input left after the
// token covers the 16-byte literal move and the offset that follows at most
// 14 literals, and output left covers the longest shortcut sequence, 14
// literals then an 18-byte match move.
constexpr std::size_t kShortcutIn = 18;
constexpr std::size_t kShortcutOut = 32;

void write_varlen(Bytes& out, std::size_t v) {
  while (v >= 255) {
    out.push_back(255);
    v -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void emit_sequence(Bytes& out, ByteView src, std::size_t lit_start,
                   std::size_t lit_len, std::size_t match_len,
                   std::size_t distance) {
  const std::uint8_t lit_nib =
      static_cast<std::uint8_t>(std::min<std::size_t>(lit_len, 15));
  std::uint8_t match_nib = 0;
  if (match_len > 0) {
    match_nib = static_cast<std::uint8_t>(std::min<std::size_t>(match_len - kMinMatch, 15));
  }
  out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) write_varlen(out, lit_len - 15);
  out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(lit_start),
             src.begin() + static_cast<std::ptrdiff_t>(lit_start + lit_len));
  if (match_len > 0) {
    append_le<std::uint16_t>(out, static_cast<std::uint16_t>(distance));
    if (match_nib == 15) write_varlen(out, match_len - kMinMatch - 15);
  }
}

enum class Mode { kFast, kGreedy, kHc };

class Lz4Compressor final : public Compressor {
 public:
  Lz4Compressor(Mode mode, int param) : mode_(mode), param_(param) {}

  std::string name() const override {
    switch (mode_) {
      case Mode::kFast: return "lz4fast-" + std::to_string(param_);
      case Mode::kGreedy: return "lz4";
      case Mode::kHc: return "lz4hc-" + std::to_string(param_);
    }
    return "lz4?";
  }

  Bytes compress(ByteView src) const override {
    return mode_ == Mode::kHc ? compress_hc(src) : compress_fast(src);
  }

  Bytes decompress(ByteView src, std::size_t original_size) const override {
    Bytes out(original_size);
    decompress_into(src, MutByteView(out.data(), out.size()));
    return out;
  }

  void decompress_into(ByteView src, MutByteView out) const override {
    const std::uint8_t* ip = src.data();
    const std::uint8_t* const iend = ip + src.size();
    std::uint8_t* const obegin = out.data();
    std::uint8_t* op = obegin;
    std::uint8_t* const oend = obegin + out.size();
    auto remaining_in = [&] { return static_cast<std::size_t>(iend - ip); };
    auto remaining_out = [&] { return static_cast<std::size_t>(oend - op); };
    auto read_varlen = [&](std::size_t base) {
      std::size_t v = base;
      for (;;) {
        if (ip == iend) throw CorruptDataError("lz4: truncated varlen");
        const std::uint8_t b = *ip++;
        v += b;
        if (b != 255) return v;
      }
    };
    auto read_distance = [&] {
      const std::size_t distance = load_le<std::uint16_t>(ip);
      ip += 2;
      if (distance == 0 || distance > static_cast<std::size_t>(op - obegin)) {
        throw CorruptDataError("lz4: bad match distance");
      }
      return distance;
    };
    while (op != oend) {
      if (ip == iend) throw CorruptDataError("lz4: truncated token");
      const std::uint8_t token = *ip++;
      const std::size_t lit_nib = token >> 4;
      const std::size_t match_nib = token & 0x0F;
      std::size_t distance = 0;
      if (lit_nib != 15 && remaining_in() >= kShortcutIn &&
          remaining_out() >= kShortcutOut) {
        // The shortcut of the reference decoder (LZ4_decompress_generic):
        // with both buffers far from their ends, the literal run and the
        // offset lie inside the input and a short match fits the output,
        // so fixed-width moves replace every bound check but the
        // distance's. Bytes written past the run or match are rewritten
        // by the next sequence.
        std::memcpy(op, ip, 16);
        op += lit_nib;
        ip += lit_nib;
        distance = read_distance();
        if (match_nib != 15 && distance >= 8) {
          const std::uint8_t* match = op - distance;
          std::memcpy(op, match, 8);
          std::memcpy(op + 8, match + 8, 8);
          std::memcpy(op + 16, match + 16, 2);
          op += match_nib + kMinMatch;
          continue;
        }
      } else {
        const std::size_t lit_len = lit_nib == 15 ? read_varlen(15) : lit_nib;
        if (lit_len > remaining_in()) throw CorruptDataError("lz4: truncated literals");
        if (lit_len > remaining_out()) throw CorruptDataError("lz4: overlong literals");
        std::memcpy(op, ip, lit_len);
        op += lit_len;
        ip += lit_len;
        if (op == oend) break;  // stream ends with literals
        if (remaining_in() < 2) throw CorruptDataError("lz4: truncated offset");
        distance = read_distance();
      }
      const std::size_t match_len =
          match_nib == 15 ? read_varlen(15 + kMinMatch) : match_nib + kMinMatch;
      if (match_len > remaining_out()) throw CorruptDataError("lz4: overlong match");
      // copy_match's wide strides overrun the match by up to kCopySlack
      // bytes; near the end of `out` the copy goes byte by byte instead.
      if (remaining_out() - match_len >= kCopySlack) {
        copy_match(op, distance, match_len);
      } else {
        const std::uint8_t* match = op - distance;
        for (std::size_t k = 0; k < match_len; ++k) op[k] = match[k];
      }
      op += match_len;
    }
  }

 private:
  Bytes compress_fast(ByteView src) const {
    Bytes out;
    out.reserve(src.size() / 2 + 16);
    const std::size_t n = src.size();
    const int hash_bits = 16;
    std::vector<std::uint32_t> table(std::size_t{1} << hash_bits, 0xFFFFFFFFu);
    std::size_t lit_start = 0;
    std::size_t i = 0;
    // Step acceleration: after `64 << accel_shift` consecutive misses the
    // scan starts skipping bytes, trading ratio for speed (lz4 "fast" mode).
    const int accel = mode_ == Mode::kFast ? param_ : 1;
    std::size_t search_count = static_cast<std::size_t>(accel) << 6;
    while (i + kMinMatch <= n) {
      const std::uint32_t h = hash4(src.data() + i, hash_bits);
      const std::uint32_t cand = table[h];
      table[h] = static_cast<std::uint32_t>(i);
      if (cand != 0xFFFFFFFFu && i > cand && i - cand <= kWindow &&
          read_u32(src.data() + cand) == read_u32(src.data() + i)) {
        const std::size_t len =
            match_length(src.data() + i, src.data() + cand, src.data() + n);
        emit_sequence(out, src, lit_start, i - lit_start, len, i - cand);
        i += len;
        lit_start = i;
        search_count = static_cast<std::size_t>(accel) << 6;
      } else {
        const std::size_t step = mode_ == Mode::kFast ? (search_count++ >> 6) - static_cast<std::size_t>(accel) + 1 : 1;
        i += std::max<std::size_t>(1, step);
      }
    }
    if (lit_start < n) emit_sequence(out, src, lit_start, n - lit_start, 0, 0);
    return out;
  }

  Bytes compress_hc(ByteView src) const {
    Bytes out;
    out.reserve(src.size() / 2 + 16);
    const std::size_t n = src.size();
    const std::size_t depth = std::min<std::size_t>(std::size_t{4} << param_, 1u << 16);
    HashChainFinder finder(src, 16, kWindow, depth, kMinMatch);
    const bool lazy = param_ >= 6;
    std::size_t lit_start = 0;
    std::size_t i = 0;
    while (i + kMinMatch <= n) {
      Match m = finder.find(i, n - i);
      if (m.length == 0) {
        finder.insert(i++);
        continue;
      }
      if (lazy && i + 1 + kMinMatch <= n) {
        finder.insert(i);
        const Match m2 = finder.find(i + 1, n - i - 1);
        if (m2.length > m.length + 1) {
          ++i;  // defer: the next position has a better match
          m = m2;
        }
        emit_sequence(out, src, lit_start, i - lit_start, m.length, m.distance);
        finder.insert_run(i, std::min(n, i + m.length));
        i += m.length;
        lit_start = i;
        continue;
      }
      emit_sequence(out, src, lit_start, i - lit_start, m.length, m.distance);
      finder.insert_run(i, std::min(n, i + m.length));
      i += m.length;
      lit_start = i;
    }
    if (lit_start < n) emit_sequence(out, src, lit_start, n - lit_start, 0, 0);
    return out;
  }

  Mode mode_;
  int param_;
};

}  // namespace

std::unique_ptr<Compressor> make_lz4fast(int accel) {
  return std::make_unique<Lz4Compressor>(Mode::kFast, accel);
}
std::unique_ptr<Compressor> make_lz4() {
  return std::make_unique<Lz4Compressor>(Mode::kGreedy, 0);
}
std::unique_ptr<Compressor> make_lz4hc(int level) {
  return std::make_unique<Lz4Compressor>(Mode::kHc, level);
}

}  // namespace fanstore::compress
