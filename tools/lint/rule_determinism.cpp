// determinism: the simulator, fault injector, simulated MPI layer, and core
// runtime must be replayable from a seed. Any ambient wall-clock or RNG use
// in those subsystems breaks byte-identical replay, so time goes through
// util::TimeSource and randomness through seeded generators owned by the
// caller. This rule bans the ambient identifiers outright. The virtual
// world (simnet/, plan/) also may not hold a WallTimer: core/ keeps one for
// its wall-time latency histograms, but a cost model or a planner that
// times itself makes every virtual-clock result depend on the host.
#include "rules.hpp"

#include <set>

namespace fanstore::lint {

namespace {

const std::set<std::string> kScopedDirs = {"simnet/", "fault/", "mpi/",
                                           "core/", "plan/", "cluster/"};

// Files inside the scoped dirs that are allowed ambient time/RNG. Currently
// empty: timeouts were routed through util::TimeSource (mpi/comm.cpp) and
// nothing else in scope touches a clock. Grow deliberately, with a comment
// here per entry.
const std::set<std::string> kAllowlist = {};

// Type-ish identifiers banned anywhere in scope.
const std::set<std::string> kBannedTypes = {
    "steady_clock",   "system_clock",         "high_resolution_clock",
    "random_device",  "mt19937",              "mt19937_64",
    "default_random_engine", "minstd_rand",   "minstd_rand0",
    "ranlux24",       "ranlux48",             "knuth_b",
};

// C-style functions banned when used as a call (identifier followed by '(').
const std::set<std::string> kBannedCalls = {
    "rand",    "srand",    "rand_r",      "random",       "srandom",
    "drand48", "lrand48",  "mrand48",     "time",         "clock",
    "gettimeofday",        "clock_gettime", "timespec_get",
};

// Directories where util/timer.hpp's WallTimer is banned too.
const std::set<std::string> kVirtualDirs = {"simnet/", "plan/"};

bool has_prefix(const std::string& rel, const std::set<std::string>& dirs) {
  for (const auto& dir : dirs) {
    if (rel.rfind(dir, 0) == 0) return true;
  }
  return false;
}

bool in_scope(const std::string& rel) {
  return kAllowlist.count(rel) == 0 && has_prefix(rel, kScopedDirs);
}

}  // namespace

void rule_determinism(const FileCtx& ctx, std::vector<Finding>* out) {
  if (!in_scope(ctx.rel)) return;
  const auto& toks = *ctx.tokens;
  const auto& m = *ctx.model;
  const bool virtual_world = has_prefix(ctx.rel, kVirtualDirs);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (virtual_world && t.text == "WallTimer") {
      out->push_back(Finding{
          "determinism", ctx.rel, t.line, t.col,
          "'" + t.text + "' in the virtual world; charge and read the " +
              "injected simnet::VirtualClock, and take measured constants " +
              "from a committed table (simnet/codec_speeds.inc)",
          {}});
      continue;
    }
    if (kBannedTypes.count(t.text) != 0) {
      out->push_back(Finding{
          "determinism", ctx.rel, t.line, t.col,
          "'" + t.text + "' in a deterministic subsystem; route time " +
              "through util::TimeSource and randomness through a seeded " +
              "generator owned by the caller",
          {}});
      continue;
    }
    if (kBannedCalls.count(t.text) == 0) continue;
    const std::size_t next = m.next_code(i);
    if (next == TuModel::npos || !(toks[next].kind == Tok::kPunct &&
                                   toks[next].text == "(")) {
      continue;  // not a call — e.g. a member named `time`
    }
    const std::size_t prev = m.prev_code(i);
    if (prev != TuModel::npos && toks[prev].kind == Tok::kPunct) {
      const std::string& p = toks[prev].text;
      if (p == "." || p == "->") continue;  // obj.time(...) is fine
      if (p == "::") {
        // Only std::rand(...) / ::time(...) are the libc functions; any
        // other qualification is a different symbol.
        const std::size_t qual = m.prev_code(prev);
        if (qual != TuModel::npos && toks[qual].kind == Tok::kIdent &&
            toks[qual].text != "std") {
          continue;
        }
      }
    }
    out->push_back(Finding{
        "determinism", ctx.rel, t.line, t.col,
        "call to '" + t.text + "' in a deterministic subsystem; replay " +
            "requires injected time (util::TimeSource) and seeded RNG",
        {}});
  }
}

}  // namespace fanstore::lint
