#include "simnet/codec_speed.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "compress/registry.hpp"

namespace fanstore::simnet {

namespace {

constexpr CodecSpeed kRows[] = {
#define FANSTORE_CODEC_SPEED(name, bps) CodecSpeed{name, bps},
#include "simnet/codec_speeds.inc"
#undef FANSTORE_CODEC_SPEED
};

// Rows keyed by registry id, resolved once. The function-local static is
// initialized exactly once and read-only afterwards, so no lock guards it.
const std::unordered_map<compress::CompressorId, double>& rows_by_id() {
  static const auto table = [] {
    const auto& reg = compress::Registry::instance();
    std::unordered_map<compress::CompressorId, double> m;
    for (const CodecSpeed& row : kRows) {
      if (const compress::Compressor* codec = reg.by_name(row.name)) {
        m.emplace(reg.id_of(*codec), row.decompress_bps);
      }
    }
    return m;
  }();
  return table;
}

}  // namespace

std::span<const CodecSpeed> codec_speeds() { return kRows; }

double decompress_bps(compress::CompressorId id) {
  const auto& rows = rows_by_id();
  const auto it = rows.find(id);
  if (it == rows.end()) {
    throw std::invalid_argument("codec speed table: no row for compressor id " +
                                std::to_string(id));
  }
  return it->second;
}

}  // namespace fanstore::simnet
