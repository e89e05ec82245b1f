#include "util/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fanstore {
namespace {

// Slice-by-8 tables: table[0] is the classic byte table; table[k] advances
// a byte through k additional zero bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

/// Advances the raw (pre-inverted) CRC state `c` over [p, p + n).
std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p,
                            std::size_t n) {
  static const Tables t = make_tables();
  // Process 8 bytes per step (slice-by-8).
  while (n >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// The fold kernel needs one 64-byte block to seed its four lanes.
constexpr std::size_t kFoldMin = 64;

#define FANSTORE_CLMUL __attribute__((target("pclmul,sse4.1")))

FANSTORE_CLMUL inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.hi * k.hi ^ x.lo * k.lo ^ next: folds the 128 bits in `x` forward
/// over the distance `k` encodes and adds the block that sits there.
FANSTORE_CLMUL inline __m128i fold128(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Carry-less-multiply fold of the raw CRC state `c` over [p, p + n), where
/// n >= kFoldMin and n % 16 == 0 (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009). Constants are for the
/// bit-reflected IEEE polynomial: k1/k2 fold 512 bits, k3/k4 fold 128 bits,
/// k5 folds 96 -> 64 bits, and (P', mu) drive the final Barrett reduction.
FANSTORE_CLMUL std::uint32_t clmul_fold(std::uint32_t c, const std::uint8_t* p,
                                        std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four 128-bit lanes, 64 bytes per step.
  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
    p += 64;
    n -= 64;
  }

  // Reduce the lanes to one, then fold any remaining 16-byte blocks in.
  __m128i x = fold128(x0, k3k4, x1);
  x = fold128(x, k3k4, x2);
  x = fold128(x, k3k4, x3);
  while (n >= 16) {
    x = fold128(x, k3k4, load128(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits: multiply the low half by k4 into the high half.
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
  // 96 -> 64 bits: multiply the low 32 bits by k5 into the rest.
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));

  // Barrett reduction: 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
}

#undef FANSTORE_CLMUL

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_portable(ByteView data, std::uint32_t seed) {
  return slice8_update(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^
         0xFFFFFFFFu;
}

#if defined(__x86_64__)

bool crc32_clmul_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t crc32_clmul(ByteView data, std::uint32_t seed) {
  // The kernel takes the largest 16-byte multiple of a long enough input;
  // slice-by-8 finishes the tail from the folded state.
  const std::size_t n = data.size();
  const std::size_t body = n >= kFoldMin ? n & ~std::size_t{15} : 0;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (body > 0) c = clmul_fold(c, data.data(), body);
  return slice8_update(c, data.data() + body, n - body) ^ 0xFFFFFFFFu;
}

#endif  // __x86_64__

}  // namespace detail

std::uint32_t crc32(ByteView data, std::uint32_t seed) {
#if defined(__x86_64__)
  // Chosen once, on first use (a namespace-scope initializer could run
  // before the CPU model is known).
  static const bool clmul = detail::crc32_clmul_supported();
  if (clmul) return detail::crc32_clmul(data, seed);
#endif
  return detail::crc32_portable(data, seed);
}

}  // namespace fanstore
