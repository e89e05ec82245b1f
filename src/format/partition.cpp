#include "format/partition.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "util/crc32.hpp"

namespace fanstore::format {

namespace {
constexpr std::size_t kRecordHeader = kPathBytes + 2 + kStatBytes + 8;
}

void PartitionWriter::add(FileRecord record) {
  if (record.path.empty() || record.path.size() >= kPathBytes) {
    throw std::invalid_argument("partition: path empty or longer than 255 bytes: " +
                                record.path);
  }
  if (record.stat.compressed_size != record.data.size()) {
    throw std::invalid_argument("partition: stat.compressed_size mismatch for " +
                                record.path);
  }
  records_.push_back(std::move(record));
}

std::size_t PartitionWriter::byte_size() const {
  std::size_t total = 4;
  for (const auto& r : records_) total += kRecordHeader + r.data.size();
  return total;
}

Bytes PartitionWriter::serialize() const {
  Bytes out;
  out.reserve(byte_size());
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(records_.size()));
  for (const auto& r : records_) {
    const std::size_t rec_start = out.size();
    out.resize(out.size() + kPathBytes, 0);
    std::memcpy(out.data() + rec_start, r.path.data(), r.path.size());
    append_le<std::uint16_t>(out, r.compressor);
    FileStat stat = r.stat;
    stat.partition_offset = rec_start;  // self-locating record
    out.resize(out.size() + kStatBytes);
    stat.serialize(out.data() + out.size() - kStatBytes);
    append_le<std::uint64_t>(out, r.data.size());
    out.insert(out.end(), r.data.begin(), r.data.end());
  }
  return out;
}

std::vector<FileRecordView> scan_partition(ByteView blob) {
  if (blob.size() < 4) throw PartitionFormatError("partition: too small for header");
  const std::uint32_t num_files = load_le<std::uint32_t>(blob.data());
  std::vector<FileRecordView> views;
  views.reserve(num_files);
  std::size_t pos = 4;
  for (std::uint32_t i = 0; i < num_files; ++i) {
    if (pos + kRecordHeader > blob.size()) {
      throw PartitionFormatError("partition: truncated record header at file " +
                                 std::to_string(i));
    }
    const char* path_field = reinterpret_cast<const char*>(blob.data() + pos);
    const std::size_t path_len = strnlen(path_field, kPathBytes);
    if (path_len == 0 || path_len >= kPathBytes) {
      throw PartitionFormatError("partition: bad path in record " + std::to_string(i));
    }
    FileRecordView v;
    v.path = std::string_view(path_field, path_len);
    pos += kPathBytes;
    v.compressor = load_le<std::uint16_t>(blob.data() + pos);
    pos += 2;
    v.stat = FileStat::deserialize(blob.data() + pos);
    pos += kStatBytes;
    const std::uint64_t dsize = load_le<std::uint64_t>(blob.data() + pos);
    pos += 8;
    if (pos + dsize > blob.size()) {
      throw PartitionFormatError("partition: truncated data for " + std::string(v.path));
    }
    if (v.stat.compressed_size != dsize) {
      throw PartitionFormatError("partition: size field mismatch for " +
                                 std::string(v.path));
    }
    v.data = blob.subspan(pos, dsize);
    pos += dsize;
    views.push_back(v);
  }
  if (pos != blob.size()) {
    throw PartitionFormatError("partition: trailing bytes after last record");
  }
  return views;
}

FileRecord make_record(std::string path, const compress::Compressor& codec,
                       compress::CompressorId codec_id, ByteView raw,
                       std::size_t chunk_size, std::size_t threads) {
  FileRecord r;
  r.path = std::move(path);
  const auto* chunked = dynamic_cast<const compress::ChunkedCompressor*>(&codec);
  if (codec_id == 0) {
    r.data = codec.compress(raw);  // stored blobs stay plain bytes
  } else if (chunked != nullptr) {
    r.data = chunked->compress_with(raw, threads);  // the id passes through
  } else {
    if (chunk_size == 0) {
      chunk_size = std::clamp(std::bit_ceil(raw.size()), compress::kMinChunkSize,
                              compress::kMaxChunkSize);
    }
    const compress::ChunkedCompressor framed(&codec, codec_id, chunk_size);
    codec_id = compress::chunked_id(codec_id, chunk_size);
    r.data = framed.compress_with(raw, threads);
  }
  r.compressor = codec_id;
  r.stat.size = raw.size();
  r.stat.compressed_size = r.data.size();
  r.stat.crc = crc32(raw);
  return r;
}

Bytes extract_record(const FileRecordView& view) {
  const compress::Compressor* codec =
      compress::Registry::instance().by_id(view.compressor);
  if (codec == nullptr) {
    throw PartitionFormatError("partition: unknown compressor id " +
                               std::to_string(view.compressor) + " for " +
                               std::string(view.path));
  }
  Bytes raw = codec->decompress(view.data, view.stat.size);
  if (crc32(as_view(raw)) != view.stat.crc) {
    throw PartitionFormatError("partition: CRC mismatch for " + std::string(view.path));
  }
  return raw;
}

}  // namespace fanstore::format
