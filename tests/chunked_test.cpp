// Chunked container tests: id scheme, registry synthesis, frame round-trips
// for every registered inner codec, partial (range) decode through
// CachedFile, and the end-to-end prepare -> partition -> FanStoreFs path in
// both eager and lazy modes (with the "chunked.*" metrics asserting that a
// small pread of a large object decodes at most the overlapping chunks).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/cached_file.hpp"
#include "core/instance.hpp"
#include "posixfs/mem_vfs.hpp"
#include "prep/prepare.hpp"
#include "tests/test_data.hpp"
#include "util/crc32.hpp"

namespace fanstore::compress {
namespace {

TEST(ChunkedIdTest, EncodesAndDecodesFields) {
  const CompressorId inner = 42;
  const CompressorId id = chunked_id(inner, std::size_t{64} << 10);
  EXPECT_TRUE(is_chunked_id(id));
  EXPECT_EQ(chunked_inner_id(id), inner);
  EXPECT_EQ(chunked_chunk_size(id), std::size_t{64} << 10);
  // Smallest and a large chunk size round-trip too.
  EXPECT_EQ(chunked_chunk_size(chunked_id(1, std::size_t{4} << 10)),
            std::size_t{4} << 10);
  EXPECT_EQ(chunked_chunk_size(chunked_id(1, std::size_t{16} << 20)),
            std::size_t{16} << 20);
}

TEST(ChunkedIdTest, RejectsInvalidCombinations) {
  EXPECT_THROW(chunked_id(1, 2048), std::invalid_argument);       // too small
  EXPECT_THROW(chunked_id(1, 3 * 4096), std::invalid_argument);   // not pow2
  EXPECT_THROW(chunked_id(1024, 4096), std::invalid_argument);    // inner too big
  // Nesting: a chunked id is not a valid inner.
  const CompressorId outer = chunked_id(1, 4096);
  EXPECT_THROW(chunked_id(outer, 4096), std::invalid_argument);
  // The frame header stores the chunk size as a u32: 2 GiB is the largest.
  EXPECT_EQ(chunked_chunk_size(chunked_id(1, std::size_t{2} << 30)),
            std::size_t{2} << 30);
  EXPECT_THROW(chunked_id(1, std::size_t{4} << 30), std::invalid_argument);
  const auto& reg = Registry::instance();
  EXPECT_EQ(reg.by_name("chunked-4096m+lz4"), nullptr);
  // A size token that overflows must not wrap into a small valid size.
  EXPECT_EQ(reg.by_name("chunked-17592186044420m+lz4"), nullptr);
  EXPECT_EQ(reg.by_id(static_cast<CompressorId>(kChunkedFlag | (20u << 10) | 1u)),
            nullptr);  // size bits beyond 2 GiB
}

TEST(ChunkedRegistryTest, SynthesizesByIdAndName) {
  const auto& reg = Registry::instance();
  const auto* lz4hc = reg.by_name("lz4hc");
  ASSERT_NE(lz4hc, nullptr);
  const CompressorId id = chunked_id(reg.id_of(*lz4hc), std::size_t{256} << 10);

  const Compressor* by_id = reg.by_id(id);
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(reg.id_of(*by_id), id);  // structural id round-trips
  // Same id resolves to the same cached instance.
  EXPECT_EQ(by_id, reg.by_id(id));

  const Compressor* by_name = reg.by_name("chunked-256k+lz4hc");
  ASSERT_NE(by_name, nullptr);
  EXPECT_EQ(by_name, by_id);  // alias resolution meets the structural id
  EXPECT_EQ(by_name->name(), "chunked-256k+" + std::string(lz4hc->name()));

  // Bad spellings resolve to nothing rather than throwing.
  EXPECT_EQ(reg.by_name("chunked-256k+nosuch"), nullptr);
  EXPECT_EQ(reg.by_name("chunked-3000k+lz4hc"), nullptr);
  EXPECT_EQ(reg.by_name("chunked-256+lz4hc"), nullptr);  // missing k/m
  EXPECT_EQ(reg.by_name("chunked-+lz4hc"), nullptr);

  // Synthesized codecs stay out of the flat enumeration.
  for (const auto& e : reg.all()) EXPECT_FALSE(is_chunked_id(e.id));
}

TEST(ChunkedFrameTest, RoundTripsEveryInnerCodec) {
  const auto& reg = Registry::instance();
  const Bytes original = testdata::runs_and_noise(70000, 42);
  for (const auto& e : reg.all()) {
    const CompressorId id = chunked_id(e.id, std::size_t{16} << 10);
    const Compressor* chunked = reg.by_id(id);
    ASSERT_NE(chunked, nullptr) << e.codec->name();

    const Bytes packed = chunked->compress(as_view(original));
    const ChunkedFrame frame = ChunkedFrame::parse(as_view(packed), original.size());
    EXPECT_EQ(frame.chunk_count(), 5u) << e.codec->name();  // ceil(70000/16384)
    EXPECT_EQ(frame.inner_id(), e.id);

    EXPECT_EQ(chunked->decompress(as_view(packed), original.size()), original)
        << e.codec->name();
    // Parallel decode is byte-identical to serial.
    const auto* cc = dynamic_cast<const ChunkedCompressor*>(chunked);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(cc->decompress_with(as_view(packed), original.size(), 4), original)
        << e.codec->name();
  }
}

TEST(ChunkedFrameTest, ParallelCompressMatchesSerial) {
  const auto& reg = Registry::instance();
  const auto* cc = dynamic_cast<const ChunkedCompressor*>(
      reg.by_name("chunked-16k+lz4hc"));
  ASSERT_NE(cc, nullptr);
  const Bytes original = testdata::text_like(90000, 7);
  EXPECT_EQ(cc->compress_with(as_view(original), 4), cc->compress(as_view(original)));
}

TEST(ChunkedFrameTest, DecodesSingleChunks) {
  const auto& reg = Registry::instance();
  const Compressor* chunked = reg.by_name("chunked-16k+lz4");
  ASSERT_NE(chunked, nullptr);
  const Bytes original = testdata::gradient_floats(50000, 3);
  const Bytes packed = chunked->compress(as_view(original));
  const ChunkedFrame frame = ChunkedFrame::parse(as_view(packed), original.size());
  ASSERT_EQ(frame.chunk_count(), 4u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < frame.chunk_count(); ++i) {
    Bytes chunk(frame.chunk_plain_size(i));
    frame.decode_chunk_into(i, MutByteView(chunk.data(), chunk.size()));
    EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(),
                           original.begin() +
                               static_cast<std::ptrdiff_t>(frame.chunk_begin(i))))
        << "chunk " << i;
    total += chunk.size();
  }
  EXPECT_EQ(total, original.size());
  // The output span must be exactly the chunk's plain size.
  Bytes short_out(frame.chunk_plain_size(0) - 1);
  EXPECT_THROW(frame.decode_chunk_into(
                   0, MutByteView(short_out.data(), short_out.size())),
               CorruptDataError);
}

TEST(ChunkedFrameTest, EmptyInputProducesZeroChunks) {
  const auto& reg = Registry::instance();
  const Compressor* chunked = reg.by_name("chunked-16k+lz4");
  ASSERT_NE(chunked, nullptr);
  const Bytes packed = chunked->compress(ByteView{});
  const ChunkedFrame frame = ChunkedFrame::parse(as_view(packed), 0);
  EXPECT_EQ(frame.chunk_count(), 0u);
  EXPECT_EQ(chunked->decompress(as_view(packed), 0), Bytes{});
}

}  // namespace
}  // namespace fanstore::compress

namespace fanstore::core {
namespace {

Bytes pack_chunked(const Bytes& original, const char* name,
                   compress::CompressorId* id_out) {
  const auto& reg = compress::Registry::instance();
  const compress::Compressor* codec = reg.by_name(name);
  EXPECT_NE(codec, nullptr);
  *id_out = reg.id_of(*codec);
  return codec->compress(as_view(original));
}

TEST(CachedFileTest, PartialReadDecodesOnlyOverlappingChunks) {
  const Bytes original = testdata::runs_and_noise(1 << 20, 99);  // 1 MiB
  compress::CompressorId id = 0;
  Bytes packed = pack_chunked(original, "chunked-64k+lz4", &id);
  CachedFile file(std::move(packed), id, original.size());
  ASSERT_TRUE(file.is_chunked());
  ASSERT_EQ(file.chunk_count(), 16u);
  EXPECT_FALSE(file.fully_materialized());

  // A 64 KiB window straddling one chunk boundary: exactly two chunks.
  Bytes got(64 << 10);
  CachedFile::DecodeStats ds;
  file.read_range((192 << 10) + 100, MutByteView(got.data(), got.size()), &ds);
  EXPECT_EQ(ds.chunks_decoded, 2u);
  EXPECT_EQ(ds.bytes_decoded, std::size_t{128} << 10);
  EXPECT_EQ(file.chunks_materialized(), 2u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         original.begin() + (192 << 10) + 100));

  // Re-reading the same window decodes nothing further.
  CachedFile::DecodeStats ds2;
  file.read_range((192 << 10) + 100, MutByteView(got.data(), got.size()), &ds2);
  EXPECT_EQ(ds2.chunks_decoded, 0u);

  // materialize_all picks up exactly the remaining 14 chunks.
  CachedFile::DecodeStats ds3;
  file.materialize_all(4, &ds3);
  EXPECT_EQ(ds3.chunks_decoded, 14u);
  EXPECT_TRUE(file.fully_materialized());
  EXPECT_EQ(file.plain(), original);
  EXPECT_GE(file.charge_bytes(), original.size());
}

// Chunks decode in place into one shared buffer, so a decoder that wrote
// past its chunk would clobber a neighbour. Reverse order makes every
// decode run with its right-hand neighbour already ready; 4 threads make
// neighbours decode concurrently. 4 KiB lz4 chunks of text-like data hold
// many short sequences, so the decoder's 16-byte literal and 18-byte match
// moves run in every chunk, up to its last 32 bytes.
TEST(CachedFileTest, InPlaceDecodeNeverTouchesNeighbouringChunks) {
  const Bytes original = testdata::text_like(300000, 17);
  compress::CompressorId id = 0;
  const Bytes packed = pack_chunked(original, "chunked-4k+lz4", &id);
  auto expect_chunk = [&](const CachedFile& file, std::size_t i,
                          const Bytes& got) {
    const std::size_t begin = i * file.chunk_size();
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           original.begin() + static_cast<std::ptrdiff_t>(begin)))
        << "chunk " << i;
  };
  auto read_chunk = [&](CachedFile& file, std::size_t i,
                        CachedFile::DecodeStats* ds) {
    const std::size_t begin = i * file.chunk_size();
    Bytes got(std::min(file.chunk_size(), original.size() - begin));
    file.read_range(begin, MutByteView(got.data(), got.size()), ds);
    return got;
  };

  {
    CachedFile file(Bytes(packed), id, original.size());
    ASSERT_EQ(file.chunk_count(), 74u);  // ceil(300000 / 4096)
    for (std::size_t i = file.chunk_count(); i-- > 0;) {
      CachedFile::DecodeStats ds;
      expect_chunk(file, i, read_chunk(file, i, &ds));
      EXPECT_EQ(ds.chunks_decoded, 1u) << "chunk " << i;
      // Every chunk decoded so far is unchanged, and stays ready.
      for (std::size_t j = i; j < file.chunk_count(); ++j) {
        CachedFile::DecodeStats again;
        expect_chunk(file, j, read_chunk(file, j, &again));
        EXPECT_EQ(again.chunks_decoded, 0u) << "chunk " << j;
      }
    }
    EXPECT_TRUE(file.fully_materialized());
    EXPECT_EQ(file.plain(), original);
  }

  {
    CachedFile file(Bytes(packed), id, original.size());
    const std::size_t chunks = file.chunk_count();
    std::vector<std::thread> workers;
    std::vector<Bytes> seen(chunks);
    std::atomic<int> errors{0};
    for (std::size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        try {
          for (std::size_t i = chunks; i-- > 0;) {
            if (i % 4 == t) seen[i] = read_chunk(file, i, nullptr);
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(errors.load(), 0);
    EXPECT_TRUE(file.fully_materialized());
    for (std::size_t i = 0; i < chunks; ++i) expect_chunk(file, i, seen[i]);
    EXPECT_EQ(file.plain(), original);
  }
}

TEST(CachedFileTest, NonChunkedIsFullyMaterializedAtConstruction) {
  const Bytes original = testdata::text_like(5000, 1);
  CachedFile file{Bytes(original)};
  EXPECT_FALSE(file.is_chunked());
  EXPECT_TRUE(file.fully_materialized());
  EXPECT_EQ(file.plain(), original);
  EXPECT_EQ(file.charge_bytes(), original.size());
  Bytes got(1000);
  CachedFile::DecodeStats ds;
  file.read_range(2000, MutByteView(got.data(), got.size()), &ds);
  EXPECT_EQ(ds.chunks_decoded, 0u);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), original.begin() + 2000));
}

TEST(CachedFileTest, RejectsFrameDisagreeingWithRecordedId) {
  const Bytes original = testdata::text_like(30000, 5);
  compress::CompressorId id = 0;
  Bytes packed = pack_chunked(original, "chunked-16k+lz4", &id);
  // Recorded id says 64 KiB chunks; the frame says 16 KiB.
  const compress::CompressorId wrong =
      compress::chunked_id(compress::chunked_inner_id(id), std::size_t{64} << 10);
  EXPECT_THROW(CachedFile(std::move(packed), wrong, original.size()),
               compress::CorruptDataError);
}

// End-to-end: prepare a dataset with --chunk-size, serve it through a
// one-rank FanStore, and verify both the eager and lazy read paths.
class ChunkedEndToEndTest : public ::testing::Test {
 protected:
  void prepare(std::size_t chunk_size) {
    big_ = testdata::runs_and_noise(1 << 20, 11);  // 16 chunks at 64k
    small_ = testdata::text_like(3000, 12);        // 1 short chunk
    ASSERT_EQ(posixfs::write_file(src_, "ds/big.bin", as_view(big_)), 0);
    ASSERT_EQ(posixfs::write_file(src_, "ds/small.txt", as_view(small_)), 0);
    prep::PrepOptions opt;
    opt.num_partitions = 1;
    opt.compressor = "lz4hc";
    opt.threads = 2;
    opt.chunk_size = chunk_size;
    manifest_ = prep::prepare_dataset(src_, "ds", dst_, "out", opt);
  }

  void load_into(Instance& inst) {
    const auto parts = manifest_.partition_paths();
    ASSERT_EQ(parts.size(), 1u);
    const auto blob = dst_.slurp(parts[0]);
    ASSERT_TRUE(blob.has_value());
    inst.load_partition_blob(as_view(*blob), 0);
    inst.exchange_metadata();
  }

  posixfs::MemVfs src_, dst_;
  prep::Manifest manifest_;
  Bytes big_, small_;
};

TEST_F(ChunkedEndToEndTest, EagerOpenRoundTripsAndDecodesInParallel) {
  prepare(std::size_t{64} << 10);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.decode_threads = 4;
    Instance inst(comm, opt);
    load_into(inst);

    const auto got_big = posixfs::read_file(inst.fs(), "ds/big.bin");
    const auto got_small = posixfs::read_file(inst.fs(), "ds/small.txt");
    ASSERT_TRUE(got_big.has_value());
    ASSERT_TRUE(got_small.has_value());
    EXPECT_EQ(*got_big, big_);
    EXPECT_EQ(*got_small, small_);

    const auto snap = inst.metrics().snapshot();
    EXPECT_EQ(snap.counter("chunked.chunks_decoded"), 17u);  // 16 + 1
    EXPECT_EQ(snap.counter("chunked.bytes_decoded"),
              big_.size() + small_.size());
    // The 16-chunk file went through the multi-threaded decode path.
    EXPECT_EQ(snap.counter("chunked.parallel_decodes"), 1u);
    EXPECT_EQ(snap.counter("chunked.partial_reads"), 0u);
  });
}

TEST_F(ChunkedEndToEndTest, LazyPreadDecodesAtMostTwoChunks) {
  prepare(std::size_t{64} << 10);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    Instance inst(comm, opt);
    load_into(inst);

    auto& fs = inst.fs();
    const int fd = fs.open("ds/big.bin", posixfs::OpenMode::kRead);
    ASSERT_GE(fd, 0);

    // 64 KiB window deliberately straddling a chunk boundary.
    const std::size_t off = (512 << 10) - 4096;
    Bytes got(64 << 10);
    ASSERT_EQ(fs.pread(fd, MutByteView(got.data(), got.size()), off),
              static_cast<std::int64_t>(got.size()));
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           big_.begin() + static_cast<std::ptrdiff_t>(off)));

    const auto snap = inst.metrics().snapshot();
    // The acceptance bar: a 64 KiB pread of a 1 MiB object decodes at most
    // two chunks' worth, and the other 14 chunks were never touched.
    EXPECT_LE(snap.counter("chunked.chunks_decoded"), 2u);
    EXPECT_LE(snap.counter("chunked.bytes_decoded"), std::size_t{2} * (64 << 10));
    EXPECT_EQ(snap.counter("chunked.partial_reads"), 1u);
    EXPECT_EQ(snap.counter("chunked.chunks_avoided"), 14u);

    // materialize() finishes the job exactly once.
    ASSERT_EQ(fs.materialize(fd), 0);
    const auto snap2 = inst.metrics().snapshot();
    EXPECT_EQ(snap2.counter("chunked.chunks_decoded"), 16u);
    EXPECT_EQ(snap2.counter("chunked.bytes_decoded"), big_.size());

    // Fully materialized now: sequential read sees the whole file.
    Bytes all(big_.size());
    ASSERT_EQ(fs.read(fd, MutByteView(all.data(), all.size())),
              static_cast<std::int64_t>(all.size()));
    EXPECT_EQ(all, big_);
    fs.close(fd);
  });
}

TEST_F(ChunkedEndToEndTest, WarmFileMaterializesLazyEntries) {
  prepare(std::size_t{64} << 10);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance::Options opt;
    opt.fs.lazy_chunked_open = true;
    opt.fs.decode_threads = 2;
    Instance inst(comm, opt);
    load_into(inst);

    ASSERT_TRUE(inst.fs().warm_file("ds/big.bin"));
    const auto snap = inst.metrics().snapshot();
    EXPECT_EQ(snap.counter("chunked.chunks_decoded"), 16u);

    // The warmed entry serves a later open without any further decode.
    const auto got = posixfs::read_file(inst.fs(), "ds/big.bin");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, big_);
    EXPECT_EQ(inst.metrics().snapshot().counter("chunked.chunks_decoded"), 16u);
  });
}

TEST_F(ChunkedEndToEndTest, StatCarriesChunkedCompressorTransparently) {
  prepare(std::size_t{16} << 10);
  mpi::run_world(1, [&](mpi::Comm& comm) {
    Instance inst(comm, {});
    load_into(inst);
    format::FileStat st;
    ASSERT_EQ(inst.fs().stat("ds/big.bin", &st), 0);
    EXPECT_EQ(st.size, big_.size());
    EXPECT_EQ(st.crc, crc32(as_view(big_)));
  });
}

}  // namespace
}  // namespace fanstore::core
