// Measuring Vfs decorator for fsbench: the benchmark's own timing around
// every call a reader makes into FanStore's POSIX face (in-process
// core::FanStoreFs or ipc::UdsClientVfs), plus the correctness oracle that
// checks every byte read and every stat() against the dataset generator.
//
// One BenchVfs belongs to exactly one reader thread, so nothing here locks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "posixfs/vfs.hpp"
#include "prep/prepare.hpp"
#include "util/bytes.hpp"

namespace fsbench {

using fanstore::Bytes;
using fanstore::ByteView;
using fanstore::MutByteView;
namespace posixfs = fanstore::posixfs;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Fixed-capacity uniform sample of one latency series (Algorithm R), so
/// the benchmark's own memory does not grow with run length or throughput
/// and peak_rss_mib reflects FanStore.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 8192;

  void add(double v) {
    ++count_;
    if (values_.size() < kCapacity) {
      values_.push_back(v);
      return;
    }
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t j = (state_ >> 11) % count_;
    if (j < kCapacity) values_[j] = v;
  }
  /// Pools another reader's sample (used only when aggregating).
  void merge(const Reservoir& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
    count_ += o.count_;
  }
  const std::vector<double>& values() const { return values_; }
  /// Every value ever added, not just the ones kept.
  std::uint64_t count() const { return count_; }

 private:
  std::vector<double> values_;
  std::uint64_t count_ = 0;
  std::uint64_t state_ = 0x853c49e6748fea9bull;
};

inline double percentile(const Reservoir& r, double p) { return percentile(r.values(), p); }

/// Position-sensitive 64-bit checksum of a byte stream: 8-byte words go
/// round-robin to four Fletcher lanes (s1 += w; s2 += s1). The result does
/// not depend on how the stream is split into chunks. Every byte a reader
/// gets is folded while it is still hot in cache; comparing with a stored
/// copy instead would stream that copy from memory beside every read and
/// double the warm path's memory traffic.
class Fold {
 public:
  void add(const std::uint8_t* p, std::size_t n) {
    for (; n > 0 && fill_ != 0; --n) byte(*p++);
    for (; n >= 8 && lane_ != 0; p += 8, n -= 8) word(load(p));
    // The lanes live in locals here: `p` may alias the members, which
    // would force a store and reload per word.
    std::uint64_t s1[4], s2[4];
    for (int l = 0; l < 4; ++l) {
      s1[l] = s1_[l];
      s2[l] = s2_[l];
    }
    const std::size_t blocks = n / 32;
    for (std::size_t b = 0; b < blocks; ++b, p += 32) {
      for (int l = 0; l < 4; ++l) {
        s1[l] += load(p + 8 * l);
        s2[l] += s1[l];
      }
    }
    for (int l = 0; l < 4; ++l) {
      s1_[l] = s1[l];
      s2_[l] = s2[l];
    }
    words_ += 4 * blocks;
    n -= 32 * blocks;
    for (; n >= 8; p += 8, n -= 8) word(load(p));
    for (; n > 0; --n) byte(*p++);
  }
  void add(ByteView v) { add(v.data(), v.size()); }

  /// The lane sums go through a bijective mixer one by one: combining them
  /// linearly mod 2^64 would let a flip in a word's top bits cancel out.
  std::uint64_t value() const {
    std::uint64_t h = mix(words_ * 8 + fill_);
    for (int l = 0; l < 4; ++l) {
      h = mix(h ^ s1_[l]);
      h = mix(h ^ s2_[l]);
    }
    return mix(h ^ partial_);
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {  // murmur3's 64-bit finalizer
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
  }
  static std::uint64_t load(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  }
  void word(std::uint64_t w) {
    s1_[lane_] += w;
    s2_[lane_] += s1_[lane_];
    lane_ = (lane_ + 1) & 3;
    ++words_;
  }
  void byte(std::uint8_t b) {
    partial_ |= static_cast<std::uint64_t>(b) << (8 * fill_);
    if (++fill_ == 8) {
      word(partial_);
      partial_ = 0;
      fill_ = 0;
    }
  }

  std::uint64_t s1_[4] = {}, s2_[4] = {};
  unsigned lane_ = 0;  // lane of the next word
  std::uint64_t words_ = 0;
  std::uint64_t partial_ = 0;  // bytes of an unfinished word
  unsigned fill_ = 0;
};

/// Generator-side truth for every dataset file: its bytes, crc32 and fold.
struct Oracle {
  struct Entry {
    Bytes data;
    std::uint32_t crc = 0;
    std::uint64_t fold = 0;
  };
  std::unordered_map<std::string, Entry> files;
  std::vector<std::string> paths;  // sorted
};

/// The span names the benchmark records (index into kSpanNames).
enum SpanName : std::uint8_t {
  kSpanSample, kSpanOpen, kSpanRead, kSpanVerify, kSpanClose, kSpanStat, kSpanList,
  kSpanWrite, kSpanWriteOpen, kSpanWriteData, kSpanWriteClose,
};
inline constexpr const char* kSpanNames[] = {
    "sample", "open", "read", "verify", "close", "stat", "list",
    "write", "write.open", "write.data", "write.close"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the same reader's span vector
  std::uint64_t sample = 0;  // per-sample id shared by a sample's spans
  SpanName name = kSpanSample;
};

/// Everything one reader measured in one phase. Latencies are in µs.
struct ReaderStats {
  Reservoir sample_us;     // open -> read all -> close
  Reservoir stat_us;       // stat() in the enumeration storm
  Reservoir write_us;      // open -> write -> close of an output
  Reservoir open_us, read_us, close_us, write_close_us;  // read_us: reads returning data
  Reservoir call_us;       // socket round trips (open/stat/opendir)
  Reservoir step_wait_us;  // trainer step wall minus its Vfs and verify time
  double active_ns = 0;  // time the reader spent in this phase or round
  double step_wall_ns = 0;  // verification excluded
  double step_vfs_ns = 0;
  double sample_ns = 0;        // Σ sample time (verification excluded)
  double sample_calls_ns = 0;  // Σ open/read/close time inside samples
  std::uint64_t samples = 0;
  std::uint64_t opens = 0;        // read-mode opens issued
  std::uint64_t round_trips = 0;  // socket requests issued (client readers)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Span> spans;          // traced phases only

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }

  void merge(const ReaderStats& o) {
    sample_us.merge(o.sample_us);
    stat_us.merge(o.stat_us);
    write_us.merge(o.write_us);
    open_us.merge(o.open_us);
    read_us.merge(o.read_us);
    close_us.merge(o.close_us);
    write_close_us.merge(o.write_close_us);
    call_us.merge(o.call_us);
    step_wait_us.merge(o.step_wait_us);
    active_ns += o.active_ns;
    step_wall_ns += o.step_wall_ns;
    step_vfs_ns += o.step_vfs_ns;
    sample_ns += o.sample_ns;
    sample_calls_ns += o.sample_calls_ns;
    samples += o.samples;
    opens += o.opens;
    round_trips += o.round_trips;
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

class BenchVfs final : public posixfs::Vfs {
 public:
  /// `round_trips`: every open/stat/opendir on `inner` is one socket request.
  /// Sample ids carry `reader` in their top bits, so they are unique
  /// across readers.
  BenchVfs(posixfs::Vfs& inner, const Oracle& oracle, int reader, bool round_trips)
      : inner_(inner),
        oracle_(oracle),
        round_trips_(round_trips),
        next_sample_((static_cast<std::uint64_t>(reader) << 48) | 1) {}

  /// Where measurements go from now on; `traced` also records spans. Call
  /// only between samples: a sample's spans live in one stats object.
  void set_phase(ReaderStats* stats, bool traced) {
    close_phase();
    stats_ = stats;
    traced_ = traced;
  }

  /// Charges the time since the last set_phase/close_phase to the current
  /// stats' active time.
  void close_phase() {
    const std::int64_t t = now_ns();
    if (stats_ != nullptr) stats_->active_ns += static_cast<double>(t - phase_start_);
    phase_start_ = t;
  }

  /// Trainer step tracking: every `batch` sample closes end a step, after
  /// which `hook` runs (checkpoint writes). 0 disables step tracking.
  void set_steps(std::size_t batch, std::function<void()> hook) {
    batch_ = batch;
    step_hook_ = std::move(hook);
  }

  /// Called before each epoch: a step never spans two trainer calls.
  void begin_epoch() {
    opens_in_epoch_ = 0;
    closes_in_epoch_ = 0;
    step_start_ = -1;
  }

  /// The data loader's listing plus one stat() per file (§II-B1 storm);
  /// checks the listing and every stat against the oracle. Returns the
  /// listing.
  std::vector<std::string> storm(const std::string& root) {
    const std::int64_t t0 = now_ns();
    std::vector<std::string> files = fanstore::prep::list_files_recursive(*this, root);
    span(kSpanList, t0, now_ns(), -1, 0);
    ++stats_->attempted;
    if (files != oracle_.paths) {
      stats_->fail("listing of " + root + " has " + std::to_string(files.size()) +
                   " files, expected " + std::to_string(oracle_.paths.size()));
    }
    for (const auto& path : files) {
      fanstore::format::FileStat st;
      ++stats_->attempted;
      const int rc = stat(path, &st);
      const auto it = oracle_.files.find(path);
      if (rc != 0 || it == oracle_.files.end() ||
          st.size != it->second.data.size() || st.crc != it->second.crc) {
        stats_->fail("stat mismatch for " + path + " rc=" + std::to_string(rc));
      }
    }
    return files;
  }

  /// Writes one output file through `target` (open -> write -> close),
  /// timed as one write op.
  void write_output(posixfs::Vfs& target, const std::string& path, ByteView data) {
    ++stats_->attempted;
    const std::int64_t t0 = now_ns();
    const int fd = target.open(path, posixfs::OpenMode::kWrite);
    const std::int64_t t1 = now_ns();
    if (fd < 0) {
      stats_->fail("write open " + path + " rc=" + std::to_string(fd));
      return;
    }
    const std::int64_t n = target.write(fd, data);
    const std::int64_t t2 = now_ns();
    const int rc = target.close(fd);
    const std::int64_t t3 = now_ns();
    if (n != static_cast<std::int64_t>(data.size()) || rc != 0) {
      stats_->fail("write " + path + " n=" + std::to_string(n) + " rc=" + std::to_string(rc));
      return;
    }
    stats_->write_us.add(us(t3 - t0));
    stats_->write_close_us.add(us(t3 - t2));
    step_vfs_ns_ += static_cast<double>(t3 - t0);
    if (traced_) {
      const auto parent = static_cast<std::int64_t>(stats_->spans.size());
      span(kSpanWrite, t0, t3, -1, 0);
      span(kSpanWriteOpen, t0, t1, parent, 0);
      span(kSpanWriteData, t1, t2, parent, 0);
      span(kSpanWriteClose, t2, t3, parent, 0);
    }
  }

  // --- posixfs::Vfs ------------------------------------------------------
  int open(std::string_view path, posixfs::OpenMode mode) override {
    const std::int64_t t0 = now_ns();
    if (batch_ > 0 && opens_in_epoch_ % batch_ == 0) {
      if (step_start_ >= 0) {
        const double wall = static_cast<double>(t0 - step_start_) - step_verify_ns_;
        stats_->step_wall_ns += wall;
        stats_->step_vfs_ns += step_vfs_ns_;
        stats_->step_wait_us.add(std::max(0.0, wall - step_vfs_ns_) / 1e3);
      }
      step_start_ = t0;
      step_vfs_ns_ = 0;
      step_verify_ns_ = 0;
    }
    ++opens_in_epoch_;
    const int fd = inner_.open(path, mode);
    const std::int64_t t1 = now_ns();
    step_vfs_ns_ += static_cast<double>(t1 - t0);
    ++stats_->opens;
    ++stats_->attempted;
    if (round_trips_) {
      ++stats_->round_trips;
      stats_->call_us.add(us(t1 - t0));
    }
    stats_->open_us.add(us(t1 - t0));
    const std::string key(path);
    const auto it = oracle_.files.find(key);
    if (fd < 0 || it == oracle_.files.end()) {
      stats_->fail("open " + key + " rc=" + std::to_string(fd));
      if (fd < 0) return fd;
      inner_.close(fd);
      return -ENOENT;
    }
    Open& o = open_[fd];
    o = Open{&it->second, key, Fold{}, 0, t0, 0, next_sample_++, -1, t1 - t0};
    if (traced_) {
      o.span = static_cast<std::int64_t>(stats_->spans.size());
      span(kSpanSample, t0, t0, -1, o.sample);
      span(kSpanOpen, t0, t1, o.span, o.sample);
    }
    return fd;
  }

  std::int64_t read(int fd, MutByteView buf) override {
    const std::int64_t t0 = now_ns();
    const std::int64_t n = inner_.read(fd, buf);
    const std::int64_t t1 = now_ns();
    step_vfs_ns_ += static_cast<double>(t1 - t0);
    if (n > 0) stats_->read_us.add(us(t1 - t0));  // not the trivial EOF read
    const auto it = open_.find(fd);
    if (it == open_.end()) return n;
    Open& o = it->second;
    o.calls_ns += t1 - t0;
    if (traced_) span(kSpanRead, t0, t1, o.span, o.sample);
    if (n < 0) {
      o.bad = true;
      return n;
    }
    // Every byte goes into the checksum checked against the generator's at
    // close; the time it takes (the "verify" span) is excluded from the
    // sample's latency.
    const auto len = static_cast<std::size_t>(n);
    o.fold.add(buf.data(), len);
    o.offset += len;
    const std::int64_t t2 = now_ns();
    o.verify_ns += t2 - t1;
    step_verify_ns_ += static_cast<double>(t2 - t1);
    if (traced_) span(kSpanVerify, t1, t2, o.span, o.sample);
    return n;
  }

  int close(int fd) override {
    const std::int64_t t0 = now_ns();
    const int rc = inner_.close(fd);
    const std::int64_t t1 = now_ns();
    step_vfs_ns_ += static_cast<double>(t1 - t0);
    stats_->close_us.add(us(t1 - t0));
    const auto it = open_.find(fd);
    if (it == open_.end()) return rc;
    Open& o = it->second;
    o.calls_ns += t1 - t0;
    if (traced_) {
      span(kSpanClose, t0, t1, o.span, o.sample);
      stats_->spans[static_cast<std::size_t>(o.span)].end_ns = t1;
    }
    if (rc != 0 || o.bad || o.offset != o.expect->data.size() ||
        o.fold.value() != o.expect->fold) {
      stats_->fail("sample " + o.path + " read " + std::to_string(o.offset) + " of " +
                   std::to_string(o.expect->data.size()) + " bytes" +
                   (o.bad ? " (read error)" : "") +
                   (o.fold.value() != o.expect->fold ? " (wrong bytes)" : ""));
    }
    const auto sample_ns = static_cast<double>(t1 - o.start_ns - o.verify_ns);
    stats_->sample_us.add(sample_ns / 1e3);
    stats_->sample_ns += sample_ns;
    stats_->sample_calls_ns += static_cast<double>(o.calls_ns);
    ++stats_->samples;
    open_.erase(it);
    ++closes_in_epoch_;
    if (batch_ > 0 && closes_in_epoch_ % batch_ == 0 && step_hook_) step_hook_();
    return rc;
  }

  int stat(std::string_view path, fanstore::format::FileStat* out) override {
    const std::int64_t t0 = now_ns();
    const int rc = inner_.stat(path, out);
    const std::int64_t t1 = now_ns();
    stats_->stat_us.add(us(t1 - t0));
    if (round_trips_) {
      ++stats_->round_trips;
      stats_->call_us.add(us(t1 - t0));
    }
    span(kSpanStat, t0, t1, -1, 0);
    return rc;
  }

  int opendir(std::string_view path) override {
    const std::int64_t t0 = now_ns();
    const int h = inner_.opendir(path);
    if (round_trips_) {
      ++stats_->round_trips;
      stats_->call_us.add(us(now_ns() - t0));
    }
    return h;
  }
  std::optional<posixfs::Dirent> readdir(int h) override { return inner_.readdir(h); }
  int closedir(int h) override { return inner_.closedir(h); }
  std::int64_t write(int fd, ByteView buf) override { return inner_.write(fd, buf); }
  std::int64_t lseek(int fd, std::int64_t off, posixfs::Whence w) override {
    return inner_.lseek(fd, off, w);
  }

 private:
  struct Open {
    const Oracle::Entry* expect = nullptr;
    std::string path;
    Fold fold;
    std::size_t offset = 0;
    std::int64_t start_ns = 0;
    std::int64_t verify_ns = 0;
    std::uint64_t sample = 0;
    std::int64_t span = -1;
    std::int64_t calls_ns = 0;
    bool bad = false;
  };

  static double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

  void span(SpanName name, std::int64_t start, std::int64_t end, std::int64_t parent,
            std::uint64_t sample) {
    if (traced_) stats_->spans.push_back(Span{start, end, parent, sample, name});
  }

  posixfs::Vfs& inner_;
  const Oracle& oracle_;
  bool round_trips_;
  ReaderStats* stats_ = nullptr;
  bool traced_ = false;
  std::int64_t phase_start_ = 0;
  std::unordered_map<int, Open> open_;
  std::uint64_t next_sample_;

  std::size_t batch_ = 0;
  std::function<void()> step_hook_;
  std::size_t opens_in_epoch_ = 0;
  std::size_t closes_in_epoch_ = 0;
  std::int64_t step_start_ = -1;
  double step_vfs_ns_ = 0;
  double step_verify_ns_ = 0;
};

}  // namespace fsbench
