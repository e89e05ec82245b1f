// Unit tests for the util module: CRC, RNG determinism, thread pool,
// CLI parsing, byte helpers, and the retry backoff policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>
#include <vector>

#include "ipc/uds_client.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fanstore {
namespace {

using CrcFn = std::uint32_t (*)(ByteView, std::uint32_t);

// Every CRC entry point the tests check: the dispatcher plus each path
// directly, so slice-by-8 stays covered on CPUs that run the fold kernel.
std::vector<std::pair<const char*, CrcFn>> crc_paths() {
  std::vector<std::pair<const char*, CrcFn>> paths = {
      {"crc32", &crc32}, {"portable", &detail::crc32_portable}};
#if defined(__x86_64__)
  if (detail::crc32_clmul_supported()) {
    paths.emplace_back("clmul", &detail::crc32_clmul);
  }
#endif
  return paths;
}

// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition every
// fast path must reproduce.
std::uint32_t crc32_bitwise(ByteView data, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const auto data = to_bytes("123456789");
  for (const auto& [name, fn] : crc_paths()) {
    EXPECT_EQ(fn(as_view(data), 0), 0xCBF43926u) << name;
  }
}

TEST(Crc32Test, EmptyIsZero) {
  for (const auto& [name, fn] : crc_paths()) {
    EXPECT_EQ(fn(ByteView{}, 0), 0u) << name;
  }
}

TEST(Crc32Test, MatchesBitwiseReference) {
  Rng rng(0xC4C32);
  // Every length through the fold threshold and well past it, at each of
  // the 16 misalignments a 128-bit load can see.
  const Bytes buf = random_bytes(rng, 1024 + 16);
  for (std::size_t len = 0; len <= 1024; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      const ByteView v(buf.data() + off, len);
      for (const std::uint32_t seed :
           {0u, static_cast<std::uint32_t>(rng.next_u64())}) {
        const std::uint32_t want = crc32_bitwise(v, seed);
        for (const auto& [name, fn] : crc_paths()) {
          ASSERT_EQ(fn(v, seed), want)
              << name << " len " << len << " off " << off << " seed " << seed;
        }
      }
    }
  }
  // Large buffers of random length (64 KiB - 1 MiB) and offset.
  for (int i = 0; i < 6; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.next_range(std::int64_t{64} << 10, std::int64_t{1} << 20));
    const auto off = static_cast<std::size_t>(rng.next_below(16));
    const Bytes big = random_bytes(rng, len + off);
    const ByteView v(big.data() + off, len);
    const std::uint32_t seed =
        i % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t want = crc32_bitwise(v, seed);
    for (const auto& [name, fn] : crc_paths()) {
      EXPECT_EQ(fn(v, seed), want) << name << " len " << len << " off " << off;
    }
  }
}

TEST(Crc32Test, SeedChaining) {
  const auto all = to_bytes("hello world");
  const auto a = to_bytes("hello ");
  const auto b = to_bytes("world");
  // Chaining via seed must equal one-shot CRC.
  EXPECT_EQ(crc32(as_view(b), crc32(as_view(a))), crc32(as_view(all)));

  // Split at every offset of a buffer long enough that both halves cross
  // the 16- and 64-byte boundaries where the fold path hands over.
  Rng rng(77);
  const Bytes buf = random_bytes(rng, 1000);
  const ByteView whole = as_view(buf);
  for (const auto& [name, fn] : crc_paths()) {
    const std::uint32_t one_shot = fn(whole, 0);
    for (std::size_t k = 0; k <= buf.size(); ++k) {
      const std::uint32_t head = fn(whole.subspan(0, k), 0);
      ASSERT_EQ(fn(whole.subspan(k), head), one_shot) << name << " split " << k;
    }
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  auto data = to_bytes("some payload to protect");
  const auto before = crc32(as_view(data));
  data[5] ^= 0x10;
  EXPECT_NE(crc32(as_view(data)), before);

  // A 4 KiB body the kernel folds plus a 9-byte tail slice-by-8 finishes:
  // flip each bit of bytes in both.
  Rng rng(4096);
  Bytes buf = random_bytes(rng, 4096 + 9);
  const std::uint32_t clean = crc32_bitwise(as_view(buf), 0);
  for (const std::size_t pos : {0, 1, 15, 16, 63, 64, 2047, 4095, 4096, 4104}) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[pos] ^= static_cast<std::uint8_t>(1u << bit);
      const std::uint32_t want = crc32_bitwise(as_view(buf), 0);
      ASSERT_NE(want, clean);
      for (const auto& [name, fn] : crc_paths()) {
        EXPECT_EQ(fn(as_view(buf), 0), want)
            << name << " byte " << pos << " bit " << bit;
      }
      buf[pos] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count++; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(500, 8, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadFallback) {
  int sum = 0;
  parallel_for(10, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(CliArgsTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--nodes=4",  "--backend=ram",
                        "--verbose", "positional", "--ratio=2.5"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("nodes", 0), 4);
  EXPECT_EQ(args.get("backend", ""), "ram");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_FALSE(args.has("missing"));
}

TEST(BytesTest, LittleEndianHelpers) {
  Bytes b;
  append_le<std::uint32_t>(b, 0x01020304u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
  EXPECT_EQ(load_le<std::uint32_t>(b.data()), 0x01020304u);
  store_le<std::uint16_t>(b.data(), 0xBEEF);
  EXPECT_EQ(load_le<std::uint16_t>(b.data()), 0xBEEF);
}

TEST(BytesTest, StringConversions) {
  const std::string s = "fanstore";
  EXPECT_EQ(to_string(as_view(s)), s);
  EXPECT_EQ(to_string(as_view(to_bytes(s))), s);
}

TEST(RetryPolicyTest, ValidateRejectsBadConfigs) {
  RetryPolicy p;
  EXPECT_NO_THROW(p.validate());
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.base_delay_ms = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.base_delay_ms = 10;
  p.max_delay_ms = 5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RetryPolicy{};
  p.jitter = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.jitter = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // The socket client validates its policy too: no silent clamp of a
  // non-positive attempt count.
  ipc::ClientOptions copt;
  EXPECT_NO_THROW(copt.retry.validate());  // one attempt: no retries
  copt.retry.max_attempts = 0;
  EXPECT_THROW(ipc::UdsClientVfs("unix:/nonexistent.sock", copt),
               std::invalid_argument);
}

TEST(RetryPolicyTest, ExponentialGrowthCapsWithoutJitter) {
  RetryPolicy p;
  p.jitter = 0.0;
  p.base_delay_ms = 2;
  p.max_delay_ms = 16;
  EXPECT_EQ(p.delay_ms(1, 0), 2);
  EXPECT_EQ(p.delay_ms(2, 0), 4);
  EXPECT_EQ(p.delay_ms(3, 0), 8);
  EXPECT_EQ(p.delay_ms(4, 0), 16);
  EXPECT_EQ(p.delay_ms(5, 0), 16);   // hard cap
  EXPECT_EQ(p.delay_ms(40, 0), 16);  // no overflow past the cap
  p.base_delay_ms = 0;
  EXPECT_EQ(p.delay_ms(3, 0), 0);  // backoff disabled
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.jitter = 0.5;
  p.base_delay_ms = 8;
  p.max_delay_ms = 64;
  bool salt_matters = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const int full = std::min(p.max_delay_ms, p.base_delay_ms << (attempt - 1));
    for (const std::uint64_t salt : {0ull, 1ull, 0xFEEDull}) {
      const int d = p.delay_ms(attempt, salt);
      // Same (seed, salt, attempt) -> same delay, always within
      // [delay * (1 - jitter), delay].
      EXPECT_EQ(d, p.delay_ms(attempt, salt));
      EXPECT_GE(d, full / 2) << attempt;
      EXPECT_LE(d, full) << attempt;
    }
    if (p.delay_ms(attempt, 1) != p.delay_ms(attempt, 2)) salt_matters = true;
  }
  EXPECT_TRUE(salt_matters);
}

}  // namespace
}  // namespace fanstore
