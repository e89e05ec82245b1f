// Tests for the Table I partition format: stat record layout, writer/
// scanner round-trips, validation, and corruption rejection.
#include <gtest/gtest.h>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "format/partition.hpp"
#include "tests/test_data.hpp"
#include "util/crc32.hpp"

namespace fanstore::format {
namespace {

FileStat sample_stat() {
  FileStat s;
  s.size = 12345;
  s.compressed_size = 999;
  s.mode = 0600;
  s.type = FileType::kRegular;
  s.uid = 1001;
  s.gid = 2002;
  s.mtime_ns = 1234567890123ull;
  s.crc = 0xDEADBEEF;
  s.owner_rank = 7;
  s.partition_id = 3;
  s.partition_offset = 4096;
  return s;
}

TEST(FileStatTest, SerializesToExactly144Bytes) {
  // Table I specifies a 144-byte stat field.
  EXPECT_EQ(kStatBytes, 144u);
  std::uint8_t buf[kStatBytes + 8];
  std::fill(std::begin(buf), std::end(buf), 0xCC);
  sample_stat().serialize(buf);
  // Guard bytes after the record must be untouched.
  for (std::size_t i = kStatBytes; i < sizeof(buf); ++i) EXPECT_EQ(buf[i], 0xCC);
}

TEST(FileStatTest, RoundTripsAllFields) {
  std::uint8_t buf[kStatBytes];
  const FileStat s = sample_stat();
  s.serialize(buf);
  EXPECT_EQ(FileStat::deserialize(buf), s);
}

TEST(PartitionTest, WriteScanRoundTrip) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("lz4hc");
  PartitionWriter writer;
  std::vector<Bytes> raws;
  for (int i = 0; i < 5; ++i) {
    raws.push_back(testdata::text_like(1000 + static_cast<std::size_t>(i) * 333,
                                       static_cast<std::uint64_t>(i)));
    writer.add(make_record("dir/cate" + std::to_string(i) + "/file" + std::to_string(i),
                           *codec, reg.id_of(*codec), as_view(raws.back())));
  }
  EXPECT_EQ(writer.file_count(), 5u);
  const Bytes blob = writer.serialize();
  EXPECT_EQ(blob.size(), writer.byte_size());

  const auto views = scan_partition(as_view(blob));
  ASSERT_EQ(views.size(), 5u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].path, "dir/cate" + std::to_string(i) + "/file" + std::to_string(i));
    // A compressed record is always a chunked frame around the chosen codec.
    EXPECT_TRUE(compress::is_chunked_id(views[i].compressor));
    EXPECT_EQ(compress::chunked_inner_id(views[i].compressor), reg.id_by_name("lz4hc"));
    EXPECT_EQ(views[i].stat.size, raws[i].size());
    EXPECT_EQ(extract_record(views[i]), raws[i]);
  }

  // A one-chunk frame (chunk size 0) costs exactly its header and one
  // table entry over the codec's own output, for every codec; store (id 0)
  // stays plain bytes. The 3000-byte file gets the smallest chunk, 4 KiB.
  const Bytes raw = testdata::text_like(3000, 99);
  for (const auto& e : reg.all()) {
    const FileRecord rec = make_record("f", *e.codec, e.id, as_view(raw));
    const std::size_t framing = e.id == 0 ? 0 : 31;  // 15 B header + 16 B table
    EXPECT_EQ(rec.data.size(), e.codec->compress(as_view(raw)).size() + framing)
        << e.codec->name();
    EXPECT_EQ(rec.compressor,
              e.id == 0 ? e.id : compress::chunked_id(e.id, std::size_t{4} << 10))
        << e.codec->name();
    PartitionWriter one;
    one.add(FileRecord(rec));
    const Bytes one_blob = one.serialize();
    EXPECT_EQ(extract_record(scan_partition(as_view(one_blob))[0]), raw)
        << e.codec->name();
  }
}

TEST(PartitionTest, RecordLayoutMatchesTableOne) {
  // Header is 4 bytes (num_files); each record is 256 + 2 + 144 + 8 + data.
  const auto* store = compress::Registry::instance().by_name("store");
  PartitionWriter writer;
  const Bytes raw = testdata::random_bytes(100, 9);
  writer.add(make_record("f", *store, 0, as_view(raw)));
  const Bytes blob = writer.serialize();
  EXPECT_EQ(blob.size(), 4u + 256u + 2u + 144u + 8u + 100u);
  EXPECT_EQ(load_le<std::uint32_t>(blob.data()), 1u);
  EXPECT_EQ(blob[4], 'f');
  EXPECT_EQ(blob[5], 0);  // NUL padding after the path
}

TEST(PartitionTest, EmptyPartition) {
  PartitionWriter writer;
  const Bytes blob = writer.serialize();
  EXPECT_TRUE(scan_partition(as_view(blob)).empty());
}

TEST(PartitionTest, RejectsOverlongPath) {
  PartitionWriter writer;
  FileRecord r;
  r.path = std::string(256, 'x');
  EXPECT_THROW(writer.add(std::move(r)), std::invalid_argument);
}

TEST(PartitionTest, RejectsEmptyPath) {
  PartitionWriter writer;
  EXPECT_THROW(writer.add(FileRecord{}), std::invalid_argument);
}

TEST(PartitionTest, RejectsSizeMismatch) {
  PartitionWriter writer;
  FileRecord r;
  r.path = "a";
  r.data = {1, 2, 3};
  r.stat.compressed_size = 99;
  EXPECT_THROW(writer.add(std::move(r)), std::invalid_argument);
}

TEST(PartitionTest, ScanRejectsTruncation) {
  const auto* store = compress::Registry::instance().by_name("store");
  PartitionWriter writer;
  writer.add(make_record("file", *store, 0, as_view(testdata::random_bytes(500, 3))));
  Bytes blob = writer.serialize();
  for (const std::size_t cut : {3u, 100u, 420u}) {
    const ByteView truncated = as_view(blob).subspan(0, cut);
    EXPECT_THROW(scan_partition(truncated), PartitionFormatError) << "cut=" << cut;
  }
}

TEST(PartitionTest, ScanRejectsTrailingGarbage) {
  PartitionWriter writer;
  Bytes blob = writer.serialize();
  blob.push_back(0xFF);
  EXPECT_THROW(scan_partition(as_view(blob)), PartitionFormatError);
}

TEST(PartitionTest, ExtractDetectsCorruptPayload) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name("deflate");
  PartitionWriter writer;
  const Bytes raw = testdata::text_like(5000, 17);
  writer.add(make_record("file", *codec, reg.id_of(*codec), as_view(raw)));
  Bytes blob = writer.serialize();
  // Flip one bit inside the compressed payload (after the 414-byte header).
  blob[blob.size() - 10] ^= 0x40;
  const auto views = scan_partition(as_view(blob));
  ASSERT_EQ(views.size(), 1u);
  EXPECT_THROW(
      {
        try {
          (void)extract_record(views[0]);
        } catch (const compress::CorruptDataError&) {
          throw PartitionFormatError("decoder detected");  // either error is fine
        }
      },
      PartitionFormatError);
}

TEST(PartitionTest, ExtractRejectsUnknownCompressor) {
  PartitionWriter writer;
  const auto* store = compress::Registry::instance().by_name("store");
  writer.add(make_record("file", *store, 0, as_view(testdata::random_bytes(10, 1))));
  Bytes blob = writer.serialize();
  store_le<std::uint16_t>(blob.data() + 4 + 256, 0xFFFF);  // bogus codec id
  const auto views = scan_partition(as_view(blob));
  EXPECT_THROW((void)extract_record(views[0]), PartitionFormatError);
}

TEST(PartitionTest, SelfLocatingOffsets) {
  const auto* store = compress::Registry::instance().by_name("store");
  PartitionWriter writer;
  writer.add(make_record("a", *store, 0, as_view(testdata::random_bytes(10, 1))));
  writer.add(make_record("b", *store, 0, as_view(testdata::random_bytes(20, 2))));
  const Bytes blob = writer.serialize();
  const auto views = scan_partition(as_view(blob));
  EXPECT_EQ(views[0].stat.partition_offset, 4u);
  EXPECT_EQ(views[1].stat.partition_offset, 4u + 256 + 2 + 144 + 8 + 10);
}

}  // namespace
}  // namespace fanstore::format
