#include "compress/chunked.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "compress/registry.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace fanstore::compress {
namespace {

constexpr std::uint8_t kVersion = 1;

std::size_t chunk_count_for(std::size_t original_size, std::size_t chunk_size) {
  return (original_size + chunk_size - 1) / chunk_size;
}

[[noreturn]] void corrupt(const std::string& what) {
  throw CorruptDataError("chunked: " + what);
}

}  // namespace

CompressorId chunked_id(CompressorId inner, std::size_t chunk_size) {
  if (is_chunked_id(inner)) {
    throw std::invalid_argument("chunked_id: inner codec is already chunked");
  }
  if (inner >= 1024) {
    throw std::invalid_argument("chunked_id: inner id outside flat range");
  }
  if (chunk_size < kMinChunkSize || chunk_size > kMaxChunkSize ||
      !std::has_single_bit(chunk_size)) {
    throw std::invalid_argument(
        "chunked_id: chunk size must be a power of two in [4 KiB, 2 GiB]");
  }
  const auto log2 = static_cast<unsigned>(std::countr_zero(chunk_size)) - 12u;
  return static_cast<CompressorId>(kChunkedFlag | (log2 << 10) | inner);
}

ChunkedFrame ChunkedFrame::parse(ByteView src, std::size_t original_size) {
  if (src.size() < kChunkedHeaderSize) corrupt("truncated header");
  if (load_le<std::uint32_t>(src.data()) != kChunkedMagic) corrupt("bad magic");
  if (src[4] != kVersion) corrupt("unsupported version");

  ChunkedFrame f;
  f.inner_id_ = load_le<std::uint16_t>(src.data() + 5);
  f.chunk_size_ = load_le<std::uint32_t>(src.data() + 7);
  f.chunk_count_ = load_le<std::uint32_t>(src.data() + 11);
  f.original_size_ = original_size;

  if (is_chunked_id(f.inner_id_)) corrupt("nested chunked frame");
  f.inner_ = Registry::instance().by_id(f.inner_id_);
  if (f.inner_ == nullptr) corrupt("unknown inner codec id");
  if (f.chunk_size_ < kMinChunkSize || !std::has_single_bit(f.chunk_size_)) {
    corrupt("invalid chunk size");
  }
  if (f.chunk_count_ != chunk_count_for(original_size, f.chunk_size_)) {
    corrupt("chunk count inconsistent with original size");
  }

  const std::size_t table_bytes = f.chunk_count_ * kChunkTableEntrySize;
  if (src.size() - kChunkedHeaderSize < table_bytes) corrupt("truncated table");
  f.table_ = src.subspan(kChunkedHeaderSize, table_bytes);
  f.payload_ = src.subspan(kChunkedHeaderSize + table_bytes);

  // The table is redundant by construction: offsets must be the running
  // prefix sums of csizes and the last chunk must end inside the payload.
  std::uint64_t expect_off = 0;
  for (std::size_t i = 0; i < f.chunk_count_; ++i) {
    const std::uint8_t* e = f.table_.data() + i * kChunkTableEntrySize;
    const auto off = load_le<std::uint64_t>(e);
    const auto csize = load_le<std::uint32_t>(e + 8);
    if (off != expect_off) corrupt("non-contiguous chunk offsets");
    if (csize == 0) corrupt("empty chunk");
    expect_off += csize;
  }
  if (expect_off > f.payload_.size()) corrupt("payload overrun");
  return f;
}

std::size_t ChunkedFrame::chunk_plain_size(std::size_t i) const {
  const std::size_t begin = chunk_begin(i);
  const std::size_t rest = original_size_ - begin;
  return rest < chunk_size_ ? rest : chunk_size_;
}

ByteView ChunkedFrame::chunk_compressed(std::size_t i) const {
  const std::uint8_t* e = table_.data() + i * kChunkTableEntrySize;
  const auto off = load_le<std::uint64_t>(e);
  const auto csize = load_le<std::uint32_t>(e + 8);
  return payload_.subspan(static_cast<std::size_t>(off), csize);
}

void ChunkedFrame::decode_chunk_into(std::size_t i, MutByteView out) const {
  if (out.size() != chunk_plain_size(i)) corrupt("chunk output size mismatch");
  const std::uint8_t* e = table_.data() + i * kChunkTableEntrySize;
  const ByteView comp = chunk_compressed(i);
  if (crc32(comp) != load_le<std::uint32_t>(e + 12)) corrupt("chunk crc mismatch");
  inner_->decompress_into(comp, out);
}

ChunkedCompressor::ChunkedCompressor(const Compressor* inner,
                                     CompressorId inner_id,
                                     std::size_t chunk_size)
    : inner_(inner), inner_id_(inner_id), chunk_size_(chunk_size) {
  // Validates the (inner_id, chunk_size) combination up front.
  (void)chunked_id(inner_id, chunk_size);
}

std::string ChunkedCompressor::name() const {
  std::string size_tok;
  if (chunk_size_ >= (std::size_t{1} << 20) &&
      chunk_size_ % (std::size_t{1} << 20) == 0) {
    size_tok = std::to_string(chunk_size_ >> 20) + "m";
  } else {
    size_tok = std::to_string(chunk_size_ >> 10) + "k";
  }
  return "chunked-" + size_tok + "+" + inner_->name();
}

Bytes ChunkedCompressor::compress(ByteView src) const {
  return compress_with(src, 1);
}

Bytes ChunkedCompressor::compress_with(ByteView src, std::size_t threads) const {
  const std::size_t n = chunk_count_for(src.size(), chunk_size_);
  std::vector<Bytes> chunks(n);
  parallel_for(n, threads, [&](std::size_t i) {
    const std::size_t begin = i * chunk_size_;
    const std::size_t len = std::min(chunk_size_, src.size() - begin);
    chunks[i] = inner_->compress(src.subspan(begin, len));
  });

  Bytes out;
  out.reserve(kChunkedHeaderSize + n * kChunkTableEntrySize);
  append_le<std::uint32_t>(out, kChunkedMagic);
  out.push_back(kVersion);
  append_le<std::uint16_t>(out, inner_id_);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(chunk_size_));
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(n));
  std::uint64_t off = 0;
  for (const Bytes& c : chunks) {
    append_le<std::uint64_t>(out, off);
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(c.size()));
    append_le<std::uint32_t>(out, crc32(as_view(c)));
    off += c.size();
  }
  for (const Bytes& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

Bytes ChunkedCompressor::decompress(ByteView src,
                                    std::size_t original_size) const {
  return decompress_with(src, original_size, 1);
}

Bytes ChunkedCompressor::decompress_with(ByteView src,
                                         std::size_t original_size,
                                         std::size_t threads) const {
  const ChunkedFrame f = ChunkedFrame::parse(src, original_size);
  if (f.inner_id() != inner_id_ || f.chunk_size() != chunk_size_) {
    corrupt("frame parameters do not match codec configuration");
  }
  Bytes out(original_size);
  parallel_for(f.chunk_count(), threads, [&](std::size_t i) {
    f.decode_chunk_into(
        i, MutByteView(out.data() + f.chunk_begin(i), f.chunk_plain_size(i)));
  });
  return out;
}

}  // namespace fanstore::compress
