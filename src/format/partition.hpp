// The compressed partition format of Table I:
//
//   [u32 num_files]
//   per file: [256 B path][2 B compressor id][144 B stat][8 B size][data…]
//
// A partition is self-describing: scanning it yields every file's path,
// codec, metadata, and the compressed payload without touching any other
// state. Partitions are produced once by the data-preparation tool and
// loaded by every FanStore daemon at startup (§IV-B, §IV-C1).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compressor.hpp"
#include "format/file_stat.hpp"
#include "util/bytes.hpp"

namespace fanstore::format {

/// Thrown when a partition blob fails structural validation.
class PartitionFormatError : public std::runtime_error {
 public:
  explicit PartitionFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// One file inside a partition (owning form, used when writing).
struct FileRecord {
  std::string path;  // dataset-relative, e.g. "dir/cate1/file1"
  compress::CompressorId compressor = 0;
  FileStat stat;
  Bytes data;  // compressed payload; stat.compressed_size == data.size()
};

/// Non-owning view of a file inside a scanned partition blob.
struct FileRecordView {
  std::string_view path;
  compress::CompressorId compressor = 0;
  FileStat stat;
  ByteView data;
};

/// Serializes file records into a partition blob.
class PartitionWriter {
 public:
  /// Appends a record. Throws std::invalid_argument if the path exceeds
  /// 255 bytes or sizes are inconsistent.
  void add(FileRecord record);

  std::size_t file_count() const { return records_.size(); }

  /// Total serialized size so far (header + records).
  std::size_t byte_size() const;

  /// Produces the partition blob; the writer remains reusable.
  Bytes serialize() const;

 private:
  std::vector<FileRecord> records_;
};

/// Parses and validates a partition blob into record views (zero-copy:
/// views alias the input buffer, which must outlive them).
std::vector<FileRecordView> scan_partition(ByteView blob);

/// Compresses `raw` and builds the full record; this is the one place that
/// decides the object form. Codec id 0 (store) keeps the plain bytes. A
/// chunked id is encoded as given. Any other codec is framed as
/// chunked(codec_id, chunk_size), where chunk_size 0 means one chunk per
/// file: the smallest power of two >= raw.size(), clamped to
/// [4 KiB, 2 GiB]. Chunks compress on up to `threads` threads.
FileRecord make_record(std::string path, const compress::Compressor& codec,
                       compress::CompressorId codec_id, ByteView raw,
                       std::size_t chunk_size = 0, std::size_t threads = 1);

/// Decompresses a scanned record and verifies its CRC.
Bytes extract_record(const FileRecordView& view);

}  // namespace fanstore::format
