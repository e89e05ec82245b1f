// CRC-32 (IEEE 802.3 polynomial) used for partition and container integrity.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace fanstore {

/// Computes CRC-32 over `data`, continuing from `seed` (0 for a fresh CRC).
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1 inputs of 64 bytes or more fold
/// with carry-less multiplies; everything else runs slice-by-8. Both give
/// bit-identical values.
std::uint32_t crc32(ByteView data, std::uint32_t seed = 0);

namespace detail {

/// The slice-by-8 path: portable, and the reference the fold path is
/// tested against.
std::uint32_t crc32_portable(ByteView data, std::uint32_t seed);

#if defined(__x86_64__)
/// True when this CPU can run crc32_clmul().
bool crc32_clmul_supported();
/// The carry-less-multiply path; call only when crc32_clmul_supported().
std::uint32_t crc32_clmul(ByteView data, std::uint32_t seed);
#endif

}  // namespace detail
}  // namespace fanstore
