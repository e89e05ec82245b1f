// Shared helpers for the per-table/figure benchmark binaries: aligned table
// printing and common setup (datasets, partitions, instances).
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "compress/registry.hpp"
#include "format/partition.hpp"
#include "util/bytes.hpp"

namespace fanstore::bench {

/// Prints a header + rows with columns padded to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths;
    for (const auto& r : rows_) {
      if (widths.size() < r.size()) widths.resize(r.size(), 0);
      for (std::size_t c = 0; c < r.size(); ++c) {
        widths[c] = std::max(widths[c], r[c].size());
      }
    }
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::string line;
      for (std::size_t c = 0; c < rows_[i].size(); ++c) {
        std::string cell = rows_[i][c];
        cell.resize(widths[c], ' ');
        line += cell;
        if (c + 1 < rows_[i].size()) line += "  ";
      }
      std::printf("%s\n", line.c_str());
      if (i == 0) {
        std::string rule(line.size(), '-');
        std::printf("%s\n", rule.c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline std::string fmt_int(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// The checkout's `git describe --always --dirty` (run from the working
/// directory), or "unknown" outside a git checkout.
inline std::string git_rev() {
  std::string rev;
  if (FILE* p = ::popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) rev += buf;
    ::pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

/// The header fields every BENCH_*.json opens with (indented, no trailing
/// comma): which bench, whether `--quick`, the host's hardware threads,
/// the clock its times are on ("wall" or "virtual") and the source rev.
/// Call it before opening the output file: truncating a tracked BENCH
/// file first would make the rev read "-dirty".
inline std::string json_header(const std::string& bench, bool quick,
                               const std::string& clock) {
  return "  \"bench\": \"" + bench + "\",\n  \"quick\": " +
         (quick ? "true" : "false") + ",\n  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\n  \"clock\": \"" + clock + "\",\n  \"git_rev\": \"" + git_rev() +
         "\"";
}

/// Builds one partition from (path, bytes) pairs with the named codec.
inline Bytes make_partition(const std::vector<std::pair<std::string, Bytes>>& files,
                            const std::string& codec_name) {
  const auto& reg = compress::Registry::instance();
  const auto* codec = reg.by_name(codec_name);
  format::PartitionWriter w;
  for (const auto& [path, data] : files) {
    w.add(format::make_record(path, *codec, reg.id_of(*codec), as_view(data)));
  }
  return w.serialize();
}

}  // namespace fanstore::bench
