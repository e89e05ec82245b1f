// Failure-injection fuzzing: for every registered codec configuration,
// randomly corrupt compressed streams (bit flips, truncations, prefix
// garbage) and assert the decoder never crashes or over-allocates — it
// either throws CorruptDataError or returns (possibly wrong) bytes of the
// requested size. decompress_into() must, in addition, never write outside
// its span. This is the robustness FanStore needs when a partition arrives
// damaged from the shared FS or the interconnect.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "compress/chunked.hpp"
#include "compress/registry.hpp"
#include "core/tiered_cache.hpp"
#include "posixfs/mem_vfs.hpp"
#include "tests/test_data.hpp"
#include "util/rng.hpp"

namespace fanstore::compress {
namespace {

// One of three damage classes, chosen by `trial`: random bit flips, a
// truncation, or a run of overwritten bytes.
Bytes mutate(const Bytes& packed, int trial, Rng& rng) {
  Bytes mutated = packed;
  switch (trial % 3) {
    case 0: {  // random bit flips
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      break;
    }
    case 1: {  // truncation
      mutated.resize(rng.next_below(mutated.size()));
      break;
    }
    default: {  // byte overwrite runs
      const std::size_t start = rng.next_below(mutated.size());
      const std::size_t len =
          std::min<std::size_t>(mutated.size() - start, 1 + rng.next_below(64));
      for (std::size_t i = 0; i < len; ++i) {
        mutated[start + i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
  }
  return mutated;
}

class CorruptionFuzzTest : public ::testing::TestWithParam<CompressorId> {};

TEST_P(CorruptionFuzzTest, SurvivesRandomCorruption) {
  const Compressor* codec = Registry::instance().by_id(GetParam());
  ASSERT_NE(codec, nullptr);
  const Bytes original = testdata::runs_and_noise(30000, 1234);
  const Bytes packed = codec->compress(as_view(original));
  ASSERT_FALSE(packed.empty());

  Rng rng(GetParam() * 7919u + 13);
  for (int trial = 0; trial < 30; ++trial) {
    const Bytes mutated = mutate(packed, trial, rng);
    try {
      const Bytes out = codec->decompress(as_view(mutated), original.size());
      // Wrong output is acceptable; wrong *size* is not.
      ASSERT_EQ(out.size(), original.size());
    } catch (const CorruptDataError&) {
      // Expected for most mutations.
    } catch (const std::exception& e) {
      FAIL() << codec->name() << ": unexpected exception type: " << e.what();
    }
  }
}

// decompress_into() must write only inside its span: the chunks of a
// CachedFile share one buffer, and a byte written past a chunk lands in its
// neighbour, where ASan cannot see it. The span sits between canary bytes
// of one buffer; valid input must decode byte-exact, damaged input must
// throw CorruptDataError or fill the whole span, and the canaries must
// survive both. A span counts as filled when decoding over two different
// fill patterns gives the same bytes.
TEST_P(CorruptionFuzzTest, DecompressIntoStaysInsideItsSpan) {
  const Compressor* codec = Registry::instance().by_id(GetParam());
  ASSERT_NE(codec, nullptr);
  const Bytes original = testdata::runs_and_noise(30000, 1234);
  const Bytes packed = codec->compress(as_view(original));
  ASSERT_FALSE(packed.empty());

  constexpr std::size_t kGuard = 64;
  Bytes buf(kGuard + original.size() + kGuard);
  const MutByteView span(buf.data() + kGuard, original.size());
  // Decodes `input` over a buffer filled with `fill`; returns the span, or
  // nullopt on CorruptDataError. Fails the test if a guard byte changed.
  auto decode_over = [&](const Bytes& input,
                         std::uint8_t fill) -> std::optional<Bytes> {
    std::fill(buf.begin(), buf.end(), fill);
    std::optional<Bytes> got;
    try {
      codec->decompress_into(as_view(input), span);
      got.emplace(span.begin(), span.end());
    } catch (const CorruptDataError&) {
      // Expected for most mutations.
    }
    for (std::size_t k = 0; k < kGuard; ++k) {
      EXPECT_EQ(buf[k], fill) << codec->name() << ": wrote " << kGuard - k
                              << " bytes before the span";
      EXPECT_EQ(buf[buf.size() - 1 - k], fill)
          << codec->name() << ": wrote " << kGuard - k << " bytes past the span";
      if (buf[k] != fill || buf[buf.size() - 1 - k] != fill) break;
    }
    return got;
  };

  const std::optional<Bytes> valid = decode_over(packed, 0xA5);
  ASSERT_TRUE(valid.has_value()) << codec->name();
  EXPECT_EQ(*valid, original) << codec->name();

  Rng rng(GetParam() * 7919u + 13);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const Bytes mutated = mutate(packed, trial, rng);
    const std::optional<Bytes> first = decode_over(mutated, 0xA5);
    if (!first.has_value()) continue;
    const std::optional<Bytes> second = decode_over(mutated, 0x5A);
    ASSERT_TRUE(second.has_value()) << codec->name();
    EXPECT_EQ(*first, *second) << codec->name() << ": span not fully written";
  }
}

// --- Chunked container corruption classes --------------------------------
//
// The container adds its own header + chunk table, so beyond the generic
// random fuzzing above (which the parametrized suite also runs on chunked
// ids), each structured field gets a targeted mutation that must surface as
// CorruptDataError — never a crash, hang, or silent wrong-size output.

class ChunkedCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& reg = Registry::instance();
    codec_ = reg.by_name("chunked-16k+lz4hc");
    ASSERT_NE(codec_, nullptr);
    original_ = testdata::runs_and_noise(50000, 77);  // 4 chunks
    packed_ = codec_->compress(as_view(original_));
    ASSERT_GT(packed_.size(), kChunkedHeaderSize + 4 * kChunkTableEntrySize);
  }

  void expect_corrupt(const Bytes& mutated) {
    EXPECT_THROW((void)codec_->decompress(as_view(mutated), original_.size()),
                 CorruptDataError);
  }

  const Compressor* codec_ = nullptr;
  Bytes original_;
  Bytes packed_;
};

TEST_F(ChunkedCorruptionTest, TruncatedHeaderThrows) {
  for (std::size_t n = 0; n < kChunkedHeaderSize; ++n) {
    Bytes mutated(packed_.begin(), packed_.begin() + static_cast<std::ptrdiff_t>(n));
    expect_corrupt(mutated);
  }
}

TEST_F(ChunkedCorruptionTest, CorruptedTableEntryThrows) {
  // Break chunk 1's offset field: offsets must be exact prefix sums.
  Bytes mutated = packed_;
  mutated[kChunkedHeaderSize + kChunkTableEntrySize] ^= 0x01;
  expect_corrupt(mutated);
  // Break a csize field the same way.
  mutated = packed_;
  mutated[kChunkedHeaderSize + kChunkTableEntrySize + 8] ^= 0x01;
  expect_corrupt(mutated);
}

TEST_F(ChunkedCorruptionTest, FlippedPayloadByteThrows) {
  // A single bit anywhere in the payload breaks that chunk's crc32.
  const std::size_t payload_begin = kChunkedHeaderSize + 4 * kChunkTableEntrySize;
  Bytes mutated = packed_;
  mutated[payload_begin + (mutated.size() - payload_begin) / 2] ^= 0x40;
  expect_corrupt(mutated);
}

TEST_F(ChunkedCorruptionTest, WrongChunkCrcThrows) {
  // Flip a bit in chunk 2's stored crc32 (table entry bytes 12..15).
  Bytes mutated = packed_;
  mutated[kChunkedHeaderSize + 2 * kChunkTableEntrySize + 12] ^= 0x80;
  expect_corrupt(mutated);
}

TEST_F(ChunkedCorruptionTest, ChunkCountInconsistentWithSizeThrows) {
  // chunk_count lives at header bytes 11..14; 50000 bytes at 16 KiB must be
  // exactly 4 chunks.
  for (const std::uint8_t count : {0, 3, 5, 255}) {
    Bytes mutated = packed_;
    mutated[11] = count;
    expect_corrupt(mutated);
  }
}

// --- SSD-spill record corruption classes ---------------------------------
//
// The tiered cache's spill tier frames every record with a leading crc32
// that covers all later bytes (DESIGN.md §12), so any torn write or media
// bit-flip must surface as CorruptDataError before a single field is
// interpreted — and, end to end, a damaged spill file must never be served
// as a cache hit.

class SpillRecordCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    payload_ = testdata::runs_and_noise(300, 42);
    record_ = core::encode_spill_record(/*compressor=*/7,
                                        /*original_size=*/12345,
                                        /*plain_crc=*/0xdeadbeef,
                                        as_view(payload_));
    // Sanity: the intact record round-trips.
    const core::SpillRecord r = core::decode_spill_record(as_view(record_));
    ASSERT_EQ(r.compressor, 7u);
    ASSERT_EQ(r.original_size, 12345u);
    ASSERT_EQ(r.plain_crc, 0xdeadbeefu);
    ASSERT_EQ(r.payload, payload_);
  }

  Bytes payload_;
  Bytes record_;
};

TEST_F(SpillRecordCorruptionTest, EveryTruncationThrows) {
  // Any prefix — mid-header or mid-payload — breaks the frame crc (or the
  // minimum-length check) and must throw, never return partial bytes.
  for (std::size_t n = 0; n < record_.size(); ++n) {
    Bytes mutated(record_.begin(),
                  record_.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)core::decode_spill_record(as_view(mutated)),
                 CorruptDataError)
        << "prefix length " << n;
  }
}

TEST_F(SpillRecordCorruptionTest, EverySingleBitFlipThrows) {
  // The crc covers everything after itself and the crc field itself is
  // compared verbatim, so no single-bit flip anywhere can decode.
  Rng rng(99);
  for (std::size_t i = 0; i < record_.size(); ++i) {
    Bytes mutated = record_;
    mutated[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_THROW((void)core::decode_spill_record(as_view(mutated)),
                 CorruptDataError)
        << "byte " << i;
  }
}

TEST_F(SpillRecordCorruptionTest, OverwriteRunsThrow) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes mutated = record_;
    const std::size_t start = rng.next_below(mutated.size());
    const std::size_t len =
        std::min<std::size_t>(mutated.size() - start, 1 + rng.next_below(64));
    bool changed = false;
    for (std::size_t i = 0; i < len; ++i) {
      const auto b = static_cast<std::uint8_t>(rng.next_u64());
      changed |= mutated[start + i] != b;
      mutated[start + i] = b;
    }
    if (!changed) continue;  // overwrite happened to be a no-op
    EXPECT_THROW((void)core::decode_spill_record(as_view(mutated)),
                 CorruptDataError);
  }
}

// End to end: a corrupt spill file is treated as a device failure — the
// slot is reclaimed, the read falls through to the cold loader, and the
// damaged bytes are never served as a hit.
class SpillTierCorruptionTest : public ::testing::Test {
 protected:
  void corrupt_and_reload(const std::function<void(Bytes&)>& mutate) {
    posixfs::MemVfs spill_fs;
    core::TieredCache::Options opt;
    opt.plain_bytes = 150;  // holds exactly one 100-byte entry
    opt.spill_bytes = 10000;
    opt.promote_after_hits = 1;
    opt.spill_fs = &spill_fs;
    opt.spill_root = "spill";
    core::TieredCache tc(opt);
    const Bytes x_bytes = testdata::random_bytes(100, 1);
    int cold_x = 0;
    auto cold = [&] {
      ++cold_x;
      core::ColdResult r;
      r.file = std::make_shared<core::CachedFile>(Bytes(x_bytes));
      return r;
    };
    tc.acquire_file("x", cold);
    tc.release("x");
    tc.acquire_file("y", [&] {
      core::ColdResult r;
      r.file = std::make_shared<core::CachedFile>(Bytes(100, 9));
      return r;
    });  // evicts "x" → spill
    ASSERT_TRUE(tc.spill_contains("x"));
    ASSERT_EQ(cold_x, 1);

    // Damage the one spill record on the device, in place.
    const int h = spill_fs.opendir("spill");
    ASSERT_GE(h, 0);
    std::vector<std::string> names;
    while (auto e = spill_fs.readdir(h)) names.push_back(e->name);
    spill_fs.closedir(h);
    ASSERT_EQ(names.size(), 1u);
    const std::string rec_path = "spill/" + names[0];
    auto raw = posixfs::read_file(spill_fs, rec_path);
    ASSERT_TRUE(raw.has_value());
    mutate(*raw);
    ASSERT_EQ(posixfs::write_file(spill_fs, rec_path, as_view(*raw)), 0);

    // The re-acquire must detect the damage, fall through to cold, and
    // never surface the corrupt payload.
    auto f = tc.acquire_file("x", cold);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->plain(), x_bytes);
    EXPECT_EQ(cold_x, 2);  // served cold, not from the damaged record
    EXPECT_EQ(tc.metrics().counter("tier.spill.corrupt").value(), 1u);
    EXPECT_EQ(tc.metrics().counter("tier.spill.hits").value(), 0u);
    tc.release("x");
  }
};

TEST_F(SpillTierCorruptionTest, BitFlippedSpillFileFallsToCold) {
  corrupt_and_reload([](Bytes& raw) { raw[raw.size() / 2] ^= 0x10; });
}

TEST_F(SpillTierCorruptionTest, TruncatedSpillFileFallsToCold) {
  corrupt_and_reload([](Bytes& raw) { raw.resize(raw.size() / 3); });
}

TEST_F(SpillTierCorruptionTest, EmptySpillFileFallsToCold) {
  corrupt_and_reload([](Bytes& raw) { raw.clear(); });
}

std::vector<CompressorId> all_ids() {
  std::vector<CompressorId> ids;
  for (const auto& e : Registry::instance().all()) ids.push_back(e.id);
  // A few chunked wrappings ride along so the container's parse/decode path
  // gets the same random bit-flip/truncate/overwrite treatment.
  ids.push_back(Registry::instance().id_by_name("chunked-16k+lz4hc"));
  ids.push_back(Registry::instance().id_by_name("chunked-4k+huff-64k"));
  ids.push_back(Registry::instance().id_by_name("chunked-16k+deflate-6"));
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CorruptionFuzzTest, ::testing::ValuesIn(all_ids()),
    [](const ::testing::TestParamInfo<CompressorId>& info) {
      std::string n = Registry::instance().by_id(info.param)->name();
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n + "_id" + std::to_string(info.param);
    });

}  // namespace
}  // namespace fanstore::compress
