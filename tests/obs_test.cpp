// Observability-layer tests: histogram bucket math and quantile bounds
// (including a randomized property check against exact sorted-sample
// quantiles), counter/gauge/registry semantics, Chrome-trace span capture
// (nesting, ring wrap, virtual-clock stamps, JSON well-formedness via a
// purpose-built parser), and a golden 2-rank trainer run whose metric
// invariants pin the cross-subsystem accounting down.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "core/instance.hpp"
#include "dlsim/prefetcher.hpp"
#include "dlsim/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simnet/virtual_clock.hpp"
#include "tests/test_data.hpp"
#include "util/rng.hpp"

namespace fanstore::obs {
namespace {

// --- Counter / Gauge -------------------------------------------------------

TEST(CounterTest, IncrementAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.set(100);
  g.add(-150);
  EXPECT_EQ(g.value(), -50);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
}

// --- Histogram bucket math -------------------------------------------------

TEST(HistogramTest, SmallValuesGetSingletonBuckets) {
  for (std::uint64_t v = 0; v < static_cast<std::uint64_t>(Histogram::kSub); ++v) {
    const int b = Histogram::bucket_of(v);
    const auto bounds = Histogram::bucket_bounds(b);
    EXPECT_EQ(bounds.lo, v);
    EXPECT_EQ(bounds.hi, v);
  }
}

TEST(HistogramTest, BucketsPartitionTheValueLine) {
  // Consecutive buckets tile [0, ...] with no gaps or overlaps, bucket_of
  // agrees with bucket_bounds at both edges, and every non-singleton
  // bucket's width is at most 25% of its lower bound (the advertised
  // worst-case quantile error).
  std::uint64_t expected_lo = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const auto bounds = Histogram::bucket_bounds(i);
    EXPECT_EQ(bounds.lo, expected_lo) << "gap/overlap at bucket " << i;
    EXPECT_GE(bounds.hi, bounds.lo);
    EXPECT_EQ(Histogram::bucket_of(bounds.lo), i);
    EXPECT_EQ(Histogram::bucket_of(bounds.hi), i);
    if (i >= Histogram::kSub) {
      // width - 1 <= lo/4, phrased to avoid overflow in the top octave.
      EXPECT_LE(bounds.hi - bounds.lo, bounds.lo / 4)
          << "bucket " << i << " wider than 25% relative";
    }
    if (bounds.hi == ~std::uint64_t{0}) break;  // top of the line reached
    expected_lo = bounds.hi + 1;
  }
}

TEST(HistogramTest, PowerOfTwoEdgesLandInTheirBuckets) {
  for (int e = 1; e < 64; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    for (const std::uint64_t v : {p - 1, p, p + 1}) {
      const auto bounds = Histogram::bucket_bounds(Histogram::bucket_of(v));
      EXPECT_LE(bounds.lo, v);
      EXPECT_GE(bounds.hi, v);
    }
  }
  const std::uint64_t top = ~std::uint64_t{0};
  const auto bounds = Histogram::bucket_bounds(Histogram::bucket_of(top));
  EXPECT_LE(bounds.lo, top);
  EXPECT_EQ(bounds.hi, top);
}

TEST(HistogramTest, CountSumMeanExact) {
  Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v : {0ull, 1ull, 17ull, 1000ull, 123456789ull}) {
    h.record(v);
    sum += v;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_DOUBLE_EQ(snap.mean(), static_cast<double>(sum) / 5.0);
}

// The deterministic property at the heart of the harness: for any sample
// set, quantile_bounds(p) must bracket the *exact* quantile of the sorted
// samples (rank ceil(p/100 * N), 1-based).
void check_quantiles_bracket_exact(const std::vector<std::uint64_t>& samples,
                                   const Histogram& h) {
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(sorted.size()))));
    const std::uint64_t exact = sorted[rank - 1];
    const auto bounds = snap.quantile_bounds(p);
    EXPECT_LE(bounds.lo, exact) << "p=" << p;
    EXPECT_GE(bounds.hi, exact) << "p=" << p;
    // The point estimate is inside its own bucket, so within 25% relative
    // of the exact quantile (plus the sub-4 singleton exactness).
    const double est = snap.quantile(p);
    EXPECT_GE(est, static_cast<double>(bounds.lo));
    EXPECT_LE(est, static_cast<double>(bounds.hi));
  }
}

TEST(HistogramTest, RandomizedQuantilesBracketExactQuantiles) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    Rng rng(seed);
    // Uniform latencies.
    {
      Histogram h;
      std::vector<std::uint64_t> samples;
      for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next_below(1000000);
        samples.push_back(v);
        h.record(v);
      }
      check_quantiles_bracket_exact(samples, h);
    }
    // Log-uniform (heavy-tailed, the shape real latency histograms have).
    {
      Histogram h;
      std::vector<std::uint64_t> samples;
      for (int i = 0; i < 1000; ++i) {
        const int shift = static_cast<int>(rng.next_below(40));
        const std::uint64_t v =
            (std::uint64_t{1} << shift) + rng.next_below(1 + (std::uint64_t{1} << shift));
        samples.push_back(v);
        h.record(v);
      }
      check_quantiles_bracket_exact(samples, h);
    }
  }
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 97));
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a1 = reg.counter("a");
  Counter& a2 = reg.counter("a");
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(&a1, &reg.counter("b"));
  Histogram& h1 = reg.histogram("h");
  EXPECT_EQ(&h1, &reg.histogram("h"));
}

TEST(MetricsRegistryTest, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), std::logic_error);
}

TEST(MetricsRegistryTest, SnapshotSortedCompleteAndZeroForAbsent) {
  MetricsRegistry reg;
  reg.counter("z.count").inc(3);
  reg.gauge("a.depth").set(-4);
  reg.histogram("m.lat_us").record(10);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.entries.begin(), snap.entries.end(),
      [](const auto& l, const auto& r) { return l.name < r.name; }));
  EXPECT_EQ(snap.counter("z.count"), 3u);
  EXPECT_EQ(snap.gauge("a.depth"), -4);
  EXPECT_EQ(snap.counter("not.there"), 0u);
  const auto* h = snap.find("m.lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricsSnapshot::Kind::kHistogram);
  EXPECT_EQ(h->hist.count, 1u);
}

TEST(MetricsRegistryTest, SnapshotDuringConcurrentRegistration) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      reg.counter("reg.dyn" + std::to_string(i % 64)).inc();
      ++i;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    // Every snapshot is internally consistent: sorted, duplicate-free.
    EXPECT_TRUE(std::is_sorted(
        snap.entries.begin(), snap.entries.end(),
        [](const auto& l, const auto& r) { return l.name < r.name; }));
  }
  stop.store(true);
  writer.join();
}

TEST(MetricsDumpTest, TextAndJsonCoverRegisteredMetrics) {
  MetricsRegistry reg;
  reg.counter("dump.counter").inc(5);
  reg.histogram("dump.lat_us").record(123);
  const std::string text = metrics_dump(reg, /*json=*/false);
  EXPECT_NE(text.find("dump.counter"), std::string::npos);
  EXPECT_NE(text.find("dump.lat_us"), std::string::npos);
  const std::string json = metrics_dump(reg, /*json=*/true);
  EXPECT_NE(json.find("\"dump.counter\""), std::string::npos);
  // Global export path compiles and contains at least valid JSON braces.
  const std::string global_json = fanstore_metrics_dump(/*json=*/true);
  ASSERT_FALSE(global_json.empty());
  EXPECT_EQ(global_json.front(), '{');
}

// --- Minimal JSON parser (for validating emitted traces) -------------------
//
// Just enough JSON to strictly parse what TraceRecorder emits: objects,
// arrays, strings with escapes, numbers, booleans. Throws std::runtime_error
// on any malformed input, so a broken serializer fails the test loudly.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace(key.str, value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u escape");
            v.str += s_.substr(pos_ - 2, 6);  // keep verbatim; fine for names
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

struct ParsedEvent {
  std::string name;
  double tid = 0;
  double ts = 0;   // µs
  double dur = 0;  // µs
  bool has_vts = false;
  double vts = 0;
  double vdur = 0;
};

// Parses and structurally validates a Chrome trace; throws / fails on any
// malformed field.
std::vector<ParsedEvent> parse_trace(const std::string& json) {
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  EXPECT_EQ(root.type, JsonValue::Type::kObject);
  const JsonValue& events = root.at("traceEvents");
  EXPECT_EQ(events.type, JsonValue::Type::kArray);
  std::vector<ParsedEvent> out;
  for (const JsonValue& e : events.array) {
    EXPECT_EQ(e.type, JsonValue::Type::kObject);
    EXPECT_EQ(e.at("ph").str, "X");  // complete events only
    EXPECT_EQ(e.at("pid").number, 0);
    ParsedEvent p;
    p.name = e.at("name").str;
    p.tid = e.at("tid").number;
    p.ts = e.at("ts").number;
    p.dur = e.at("dur").number;
    EXPECT_GE(p.ts, 0);
    EXPECT_GE(p.dur, 0);
    if (e.has("args")) {
      const JsonValue& args = e.at("args");
      p.has_vts = args.has("vts_us");
      if (p.has_vts) {
        p.vts = args.at("vts_us").number;
        p.vdur = args.at("vdur_us").number;
      }
    }
    out.push_back(p);
  }
  return out;
}

// --- TraceRecorder / TraceSpan ---------------------------------------------

TEST(TraceTest, DisabledRecorderCostsNothingAndRecordsNothing) {
  TraceRecorder rec;
  { TraceSpan span("ignored", nullptr, rec); }
  EXPECT_EQ(rec.event_count(), 0u);
  const auto events = parse_trace(rec.to_chrome_json());
  EXPECT_TRUE(events.empty());
}

TEST(TraceTest, SpansNestPerThreadInEmittedJson) {
  TraceRecorder rec;
  rec.enable(true);
  auto work = [&rec] {
    TraceSpan outer("outer", nullptr, rec);
    for (int i = 0; i < 3; ++i) {
      TraceSpan inner("inner", nullptr, rec);
    }
  };
  std::thread t1(work);
  std::thread t2(work);
  t1.join();
  t2.join();
  const auto events = parse_trace(rec.to_chrome_json());
  ASSERT_EQ(events.size(), 8u);  // 2 threads x (1 outer + 3 inner)

  // Sorted by ts across threads (the serializer's contract).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }

  // Per tid: exactly one outer containing three inner; any two intervals
  // are either nested or disjoint.
  std::map<double, std::vector<ParsedEvent>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(e);
  ASSERT_EQ(by_tid.size(), 2u);
  for (const auto& [tid, evs] : by_tid) {
    int outers = 0;
    const ParsedEvent* outer = nullptr;
    for (const auto& e : evs) {
      if (e.name == "outer") {
        ++outers;
        outer = &e;
      }
    }
    ASSERT_EQ(outers, 1) << "tid " << tid;
    for (const auto& e : evs) {
      if (e.name != "inner") continue;
      EXPECT_GE(e.ts, outer->ts);
      EXPECT_LE(e.ts + e.dur, outer->ts + outer->dur);
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      for (std::size_t j = i + 1; j < evs.size(); ++j) {
        const auto& a = evs[i];
        const auto& b = evs[j];
        const bool disjoint =
            a.ts + a.dur <= b.ts || b.ts + b.dur <= a.ts;
        const bool a_in_b = a.ts >= b.ts && a.ts + a.dur <= b.ts + b.dur;
        const bool b_in_a = b.ts >= a.ts && b.ts + b.dur <= a.ts + a.dur;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << a.name << " and " << b.name << " partially overlap";
      }
    }
  }
}

TEST(TraceTest, RingKeepsOnlyTheNewestEvents) {
  TraceRecorder rec(/*ring_capacity=*/4);
  rec.enable(true);
  static const char* const kNames[] = {"e0", "e1", "e2", "e3", "e4",
                                       "e5", "e6", "e7", "e8", "e9"};
  for (int i = 0; i < 10; ++i) {
    rec.record(kNames[i], static_cast<std::uint64_t>(i) * 1000, 100);
  }
  EXPECT_EQ(rec.event_count(), 4u);
  const auto events = parse_trace(rec.to_chrome_json());
  ASSERT_EQ(events.size(), 4u);
  // Oldest six were overwritten; survivors come out in timestamp order.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[1].name, "e7");
  EXPECT_EQ(events[2].name, "e8");
  EXPECT_EQ(events[3].name, "e9");

  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(TraceTest, VirtualClockStampsTravelInArgs) {
  TraceRecorder rec;
  rec.enable(true);
  simnet::VirtualClock clock;
  clock.advance_sec(1.0);  // non-zero start: vts must reflect it
  {
    TraceSpan span("charged", &clock, rec);
    clock.advance_sec(0.5);
  }
  { TraceSpan span("uncharged", nullptr, rec); }
  const auto events = parse_trace(rec.to_chrome_json());
  ASSERT_EQ(events.size(), 2u);
  const auto& charged = events[0].name == "charged" ? events[0] : events[1];
  const auto& uncharged = events[0].name == "charged" ? events[1] : events[0];
  ASSERT_TRUE(charged.has_vts);
  EXPECT_NEAR(charged.vts, 1.0e6, 1.0);   // µs
  EXPECT_NEAR(charged.vdur, 0.5e6, 1.0);  // µs
  EXPECT_FALSE(uncharged.has_vts);
}

TEST(TraceTest, JsonEscapesAreWellFormed) {
  TraceRecorder rec;
  rec.enable(true);
  rec.record("quote\"back\\slash", 0, 1);
  const auto events = parse_trace(rec.to_chrome_json());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "quote\"back\\slash");
}

// --- Golden 2-rank integration ---------------------------------------------

Bytes make_partition(const std::vector<std::pair<std::string, Bytes>>& files,
                     const char* codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

// One epoch of the 2-rank trainer, then assert the accounting identities
// that tie the subsystems together. Any double count, dropped count, or
// counter wired to the wrong event breaks an equality here.
TEST(ObsGoldenTest, TwoRankTrainerMetricInvariants) {
  constexpr int kRanks = 2;
  constexpr std::size_t kFilesPerRank = 8;
  constexpr std::size_t kBatch = 4;
  std::vector<MetricsSnapshot> snaps(kRanks);
  std::vector<std::uint64_t> expected_remote_bytes(kRanks, 0);
  std::vector<dlsim::TrainerResult> results(kRanks);

  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    core::Instance inst(comm, {});  // default 64 MiB cache: no evictions
    std::vector<std::pair<std::string, Bytes>> mine;
    for (std::size_t i = 0; i < kFilesPerRank; ++i) {
      mine.emplace_back(
          "ds/r" + std::to_string(rank) + "/f" + std::to_string(i),
          testdata::text_like(4096 + 512 * i, 100 * rank + i));
    }
    inst.load_partition_blob(as_view(make_partition(mine, "zstd")),
                             static_cast<std::uint32_t>(rank));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    // Every rank trains over the full global namespace.
    std::vector<std::string> all_files;
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < kFilesPerRank; ++i) {
        all_files.push_back("ds/r" + std::to_string(r) + "/f" +
                            std::to_string(i));
      }
    }
    // Expected wire traffic: the compressed size of every peer-owned file
    // (metadata is fully replicated, so stat() answers locally).
    for (const auto& path : all_files) {
      format::FileStat st;
      ASSERT_EQ(inst.fs().stat(path, &st), 0);
      if (st.owner_rank != rank) {
        expected_remote_bytes[rank] += st.compressed_size;
      }
    }

    simnet::VirtualClock clock;
    dlsim::TrainerOptions topt;
    topt.t_iter_s = 1e-4;
    topt.batch_per_rank = kBatch;
    topt.epochs = 1;
    topt.io_clock = &clock;
    topt.comm = &comm;
    topt.metrics = &inst.metrics();
    topt.seed = 7;
    results[rank] = dlsim::run_training(inst.fs(), all_files, topt);

    comm.barrier();  // both ranks done before either daemon stops
    inst.stop();     // joins the daemon: its counters are final below
    snaps[rank] = inst.metrics().snapshot();
  });

  const std::size_t total_files = kRanks * kFilesPerRank;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto& snap = snaps[r];
    // One epoch, batch 4 over 16 files = 4 iterations reading every file
    // exactly once.
    EXPECT_EQ(results[r].iterations, total_files / kBatch);
    EXPECT_EQ(results[r].files_read, total_files);
    EXPECT_EQ(snap.counter("trainer.iterations"), total_files / kBatch);
    EXPECT_EQ(snap.counter("trainer.files_read"), total_files);

    // Every open is exactly one cache acquire.
    EXPECT_EQ(snap.counter("fs.opens"), total_files);
    EXPECT_EQ(snap.counter("fs.opens"),
              snap.counter("cache.hits") + snap.counter("cache.misses"));

    // Each file is opened once -> all misses, split local/remote by owner.
    EXPECT_EQ(snap.counter("cache.misses"), total_files);
    EXPECT_EQ(snap.counter("fs.local_misses"), kFilesPerRank);
    EXPECT_EQ(snap.counter("fs.remote_fetches"), kFilesPerRank);
    EXPECT_EQ(snap.counter("fs.failovers"), 0u);

    // Wire bytes match the peer partition's compressed sizes, on both ends
    // of each transfer: my fetch accounting and the peer daemon's serve
    // accounting.
    EXPECT_EQ(snap.counter("fs.remote_bytes"), expected_remote_bytes[r]);
    EXPECT_EQ(snap.counter("daemon.fetches_served"), kFilesPerRank);
    EXPECT_EQ(snap.counter("daemon.fetch_bytes"),
              expected_remote_bytes[(r + 1) % kRanks]);

    // The trainer's byte accounting agrees with the fs's.
    EXPECT_EQ(snap.counter("trainer.bytes_read"), results[r].bytes_read);
    EXPECT_EQ(snap.counter("fs.bytes_read"), results[r].bytes_read);

    // Latency histograms saw every operation.
    const auto* open_us = snap.find("fs.open_us");
    ASSERT_NE(open_us, nullptr);
    EXPECT_EQ(open_us->hist.count, total_files);
    const auto* serve_us = snap.find("daemon.serve_us");
    ASSERT_NE(serve_us, nullptr);
    EXPECT_EQ(serve_us->hist.count, kFilesPerRank);
  }
}

// Prefetch-then-train: warming the whole epoch up front must turn every
// training open into a hit, warm each file at most once, and leave no pins.
TEST(ObsGoldenTest, PrefetcherMetricInvariants) {
  constexpr int kRanks = 2;
  constexpr std::size_t kFilesPerRank = 6;
  std::vector<MetricsSnapshot> snaps(kRanks);
  mpi::run_world(kRanks, [&](mpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    core::Instance inst(comm, {});
    std::vector<std::pair<std::string, Bytes>> mine;
    for (std::size_t i = 0; i < kFilesPerRank; ++i) {
      mine.emplace_back("pf/r" + std::to_string(rank) + "/f" + std::to_string(i),
                        testdata::runs_and_noise(8192, 7 * rank + i));
    }
    inst.load_partition_blob(as_view(make_partition(mine, "lz4hc")),
                             static_cast<std::uint32_t>(rank));
    inst.exchange_metadata();
    inst.start_daemon();
    comm.barrier();

    std::vector<std::string> all_files;
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < kFilesPerRank; ++i) {
        all_files.push_back("pf/r" + std::to_string(r) + "/f" +
                            std::to_string(i));
      }
    }
    dlsim::Prefetcher pf(inst.fs(), /*threads=*/2, /*fetch_threads=*/2);
    pf.prefetch(all_files);
    pf.wait();

    // Warmed epoch: every subsequent open is a hit.
    for (const auto& path : all_files) {
      const int fd = inst.fs().open(path, posixfs::OpenMode::kRead);
      ASSERT_GE(fd, 0);
      inst.fs().close(fd);
    }
    // Prefetching leaves nothing pinned.
    for (const auto& path : all_files) {
      EXPECT_EQ(inst.fs().tiers().plain().open_count(path), 0) << path;
    }
    comm.barrier();
    inst.stop();
    snaps[rank] = inst.metrics().snapshot();
  });

  const std::size_t total_files = kRanks * kFilesPerRank;
  for (std::size_t r = 0; r < kRanks; ++r) {
    const auto& snap = snaps[r];
    EXPECT_EQ(snap.counter("prefetch.warmed"), total_files);
    EXPECT_EQ(snap.counter("prefetch.failures"), 0u);
    // The fetch stage stages each file at most once.
    EXPECT_LE(snap.counter("prefetch.fetch_staged"), total_files);
    // The prefetcher never loads more than the file count (the golden
    // "loads <= files" bound), and the post-warm sweep is all hits.
    EXPECT_EQ(snap.counter("cache.misses"), total_files);
    EXPECT_EQ(snap.counter("cache.hits"), total_files);
    EXPECT_EQ(snap.counter("fs.opens"), 2 * total_files);
    EXPECT_EQ(snap.counter("cache.evictions"), 0u);
  }
}

}  // namespace
}  // namespace fanstore::obs
