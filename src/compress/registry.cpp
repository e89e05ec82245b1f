#include "compress/registry.hpp"

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "compress/chunked.hpp"
#include "compress/codecs.hpp"

namespace fanstore::compress {
namespace {

// Family alias -> default configuration name. These mirror the defaults the
// paper reaches for: lzsse8/lz4hc as the fast decoders, lzma/xz as the
// high-ratio comparisons, brotli/zling in between.
const std::map<std::string, std::string, std::less<>>& aliases() {
  static const std::map<std::string, std::string, std::less<>> kAliases = {
      {"lzf", "lzf-2"},           {"lz4fast", "lz4fast-8"},
      {"lz4hc", "lz4hc-9"},       {"lzss", "lzss-w14l6d128"},
      {"lzw", "lzw-14"},          {"huff", "huff-64k"},
      {"deflate", "deflate-6"},   {"brotli", "brotli-9"},
      {"zling", "zling-2"},       {"lzma", "lzma-6"},
      {"xz", "xz-6"},             {"lzsse8", "lzsse8-d16"},
      {"bzip2", "bzip2-6"},       {"zstd", "zstd-5"},
      {"rans", "rans-64k"},
  };
  return kAliases;
}

std::unique_ptr<Compressor> make_delta_pipeline(int stride,
                                                std::unique_ptr<Compressor> inner) {
  std::string name = "delta" + std::to_string(stride) + "+" + inner->name();
  std::vector<std::unique_ptr<Compressor>> stages;
  stages.push_back(make_delta(stride));
  stages.push_back(std::move(inner));
  return make_pipeline(std::move(name), std::move(stages));
}

}  // namespace

const Registry& Registry::instance() {
  static const Registry kRegistry;
  return kRegistry;
}

Registry::Registry() {
  auto add = [this](CompressorId id, std::string family,
                    std::unique_ptr<Compressor> codec) {
    entries_.push_back(RegisteredCompressor{id, std::move(family), codec.get()});
    owned_.push_back(std::move(codec));
  };

  add(0, "store", make_store());
  add(1, "rle", make_rle());

  for (int l = 1; l <= 3; ++l) add(static_cast<CompressorId>(9 + l), "lzf", make_lzf(l));

  for (int a = 1; a <= 16; ++a) {
    add(static_cast<CompressorId>(19 + a), "lz4fast", make_lz4fast(a));
  }
  add(40, "lz4", make_lz4());
  for (int l = 1; l <= 16; ++l) {
    add(static_cast<CompressorId>(40 + l), "lz4hc", make_lz4hc(l));
  }

  {
    CompressorId id = 60;
    for (int w : {10, 12, 14, 16}) {
      for (int lb : {4, 6}) {
        for (int d : {8, 128}) add(id++, "lzss", make_lzss(w, lb, d));
      }
    }
  }

  for (int b = 10; b <= 16; ++b) {
    add(static_cast<CompressorId>(70 + b), "lzw", make_lzw(b));
  }

  {
    CompressorId id = 90;
    for (std::size_t kib : {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
      add(id++, "huff", make_huffman(kib * 1024));
    }
  }

  {
    CompressorId id = 100;
    for (int w : {13, 15, 17}) {
      for (int l = 1; l <= 9; ++l) add(id++, "deflate", make_deflate(l, w));
    }
  }

  for (int l = 1; l <= 11; ++l) {
    add(static_cast<CompressorId>(129 + l), "brotli", make_brotli(l));
  }
  for (int l = 1; l <= 4; ++l) {
    add(static_cast<CompressorId>(144 + l), "zling", make_zling(l));
  }
  for (int l = 1; l <= 12; ++l) {
    add(static_cast<CompressorId>(149 + l), "lzma", make_lzma(l));
  }
  for (int l = 1; l <= 12; ++l) {
    add(static_cast<CompressorId>(164 + l), "xz", make_xz(l));
  }

  {
    CompressorId id = 180;
    for (int d : {1, 2, 4, 8, 16, 32, 64, 128}) add(id++, "lzsse8", make_lzsse8(d));
  }

  {
    CompressorId id = 200;
    for (int stride : {1, 2, 4, 8, 16}) {
      add(id++, "delta-lzf", make_delta_pipeline(stride, make_lzf(2)));
      add(id++, "delta-lz4", make_delta_pipeline(stride, make_lz4()));
      add(id++, "delta-lz4hc", make_delta_pipeline(stride, make_lz4hc(8)));
      add(id++, "delta-deflate", make_delta_pipeline(stride, make_deflate(6, 15)));
      add(id++, "delta-lzma", make_delta_pipeline(stride, make_lzma(6)));
      add(id++, "delta-huff", make_delta_pipeline(stride, make_huffman(64 * 1024)));
    }
  }

  {
    CompressorId id = 240;
    for (int stride : {1, 4, 8}) {
      add(id++, "delta-rle", make_delta_pipeline(stride, make_rle()));
    }
    {
      std::vector<std::unique_ptr<Compressor>> stages;
      stages.push_back(make_rle());
      stages.push_back(make_huffman(64 * 1024));
      add(id++, "rle-huff", make_pipeline("rle+huff-64k", std::move(stages)));
    }
    add(id++, "delta-xz", make_delta_pipeline(4, make_xz(6)));
    add(id++, "delta-xz", make_delta_pipeline(8, make_xz(6)));
  }

  {
    CompressorId id = 250;
    for (std::size_t kib : {16, 64, 256}) add(id++, "rans", make_rans(kib * 1024));
  }
  {
    // bzip2-lite: BWT + MTF + RLE + Huffman, block size grows with level.
    CompressorId id = 260;
    for (int l = 1; l <= 9; ++l) {
      std::vector<std::unique_ptr<Compressor>> stages;
      stages.push_back(make_bwtmtf(static_cast<std::size_t>(64 * l) * 1024));
      stages.push_back(make_rle());
      stages.push_back(make_huffman(64 * 1024));
      add(id++, "bzip2", make_pipeline("bzip2-" + std::to_string(l), std::move(stages)));
    }
  }
  {
    // zstd-lite: LZ parse + rANS entropy stage over the token stream.
    CompressorId id = 280;
    for (int l = 1; l <= 9; ++l) {
      std::vector<std::unique_ptr<Compressor>> stages;
      stages.push_back(make_lz4hc(l));
      stages.push_back(make_rans(64 * 1024));
      add(id++, "zstd", make_pipeline("zstd-" + std::to_string(l), std::move(stages)));
    }
  }

  // Safety net behind fanstore-lint's codec-id rule (which can only check
  // literal ids): every registered id is persisted in container headers,
  // must be unique, and must stay below the chunked-container bit range
  // (chunked.hpp packs structure into bits 10..15).
  std::set<CompressorId> ids;
  for (const auto& e : entries_) {
    if (e.id > 1023) {
      throw std::logic_error("codec id " + std::to_string(e.id) +
                             " collides with the chunked bit range");
    }
    if (!ids.insert(e.id).second) {
      throw std::logic_error("duplicate codec id " + std::to_string(e.id));
    }
  }
}

const Compressor* Registry::by_id(CompressorId id) const {
  if (is_chunked_id(id)) return chunked_by_id(id);
  for (const auto& e : entries_) {
    if (e.id == id) return e.codec;
  }
  return nullptr;
}

const Compressor* Registry::chunked_by_id(CompressorId id) const {
  // Validate the structural fields before synthesizing: the inner id must be
  // a registered flat codec and the size bits must round-trip.
  const CompressorId inner_id = chunked_inner_id(id);
  const std::size_t chunk_size = chunked_chunk_size(id);
  if (chunk_size > kMaxChunkSize) return nullptr;
  const Compressor* inner = nullptr;
  for (const auto& e : entries_) {
    if (e.id == inner_id) {
      inner = e.codec;
      break;
    }
  }
  if (inner == nullptr) return nullptr;

  sync::MutexLock lk(chunked_mu_);
  auto it = chunked_.find(id);
  if (it == chunked_.end()) {
    it = chunked_
             .emplace(id, std::make_unique<ChunkedCompressor>(inner, inner_id,
                                                              chunk_size))
             .first;
  }
  return it->second.get();
}

const Compressor* Registry::by_name(std::string_view name) const {
  // "chunked-<size>+<inner>": parse the size token, then resolve the inner
  // name (aliases allowed) recursively.
  constexpr std::string_view kPrefix = "chunked-";
  if (name.substr(0, kPrefix.size()) == kPrefix) {
    const std::string_view rest = name.substr(kPrefix.size());
    const std::size_t plus = rest.find('+');
    if (plus == std::string_view::npos || plus == 0) return nullptr;
    const std::string_view size_tok = rest.substr(0, plus);
    std::size_t value = 0;
    std::size_t i = 0;
    while (i < size_tok.size() && size_tok[i] >= '0' && size_tok[i] <= '9') {
      value = value * 10 + static_cast<std::size_t>(size_tok[i] - '0');
      // Every valid size is <= 2 GiB; stopping here keeps the digits and
      // the unit shift below from wrapping into a small valid size.
      if (value > kMaxChunkSize) return nullptr;
      ++i;
    }
    if (i == 0 || i + 1 != size_tok.size()) return nullptr;
    if (size_tok[i] == 'k') {
      value <<= 10;
    } else if (size_tok[i] == 'm') {
      value <<= 20;
    } else {
      return nullptr;
    }
    const Compressor* inner = by_name(rest.substr(plus + 1));
    if (inner == nullptr) return nullptr;
    try {
      return chunked_by_id(chunked_id(id_of(*inner), value));
    } catch (const std::invalid_argument&) {
      return nullptr;  // bad chunk size or un-wrappable inner
    }
  }

  const auto alias = aliases().find(name);
  const std::string_view target = alias != aliases().end() ? alias->second : name;
  for (const auto& e : entries_) {
    if (e.codec->name() == target) return e.codec;
  }
  return nullptr;
}

CompressorId Registry::id_by_name(std::string_view name) const {
  const Compressor* c = by_name(name);
  if (c == nullptr) {
    throw std::invalid_argument("unknown compressor: " + std::string(name));
  }
  return id_of(*c);
}

CompressorId Registry::id_of(const Compressor& codec) const {
  if (const auto* ch = dynamic_cast<const ChunkedCompressor*>(&codec)) {
    return chunked_id(ch->inner_id(), ch->chunk_size());
  }
  for (const auto& e : entries_) {
    if (e.codec == &codec) return e.id;
  }
  throw std::invalid_argument("compressor not registered: " + codec.name());
}

}  // namespace fanstore::compress
