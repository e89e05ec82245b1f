// fanstore-lint engine tests: one seeded violation per rule in fixture
// snippets, plus suppression and baseline behaviour. Each assertion pins
// the rule id, file, and line so a rule regression is localized instantly.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "tools/lint/baseline.hpp"
#include "tools/lint/engine.hpp"
#include "tools/lint/model.hpp"
#include "tools/lint/token.hpp"

namespace fanstore::lint {
namespace {

namespace fs = std::filesystem;

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("fanstore_lint_test_" + std::to_string(getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << text;
  }

  LintResult lint(std::vector<std::string> rules = {}) {
    LintOptions opts;
    opts.root = root_.string();
    opts.inventory_path = inventory_.empty() ? "" : (root_ / inventory_).string();
    opts.design_path = design_.empty() ? "" : (root_ / design_).string();
    opts.baseline_path = baseline_.empty() ? "" : (root_ / baseline_).string();
    opts.rules = std::move(rules);
    return run_lint(opts);
  }

  static const Finding* find_rule(const LintResult& r, const std::string& id) {
    for (const Finding& f : r.findings) {
      if (f.rule == id) return &f;
    }
    return nullptr;
  }

  fs::path root_;
  std::string inventory_;  // rel path under root_, "" = off
  std::string design_;
  std::string baseline_;
};

TEST_F(LintTest, DeterminismFlagsClockAndRandInScopedDirs) {
  write("mpi/bad.cpp",
        "namespace fanstore::mpi {\n"            // line 1
        "void f() {\n"                           // line 2
        "  auto t = std::chrono::steady_clock::now();\n"  // line 3
        "  int r = rand();\n"                    // line 4
        "}\n"
        "}\n");
  const LintResult r = lint({"determinism"});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].rule, "determinism");
  EXPECT_EQ(r.findings[0].file, "mpi/bad.cpp");
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_EQ(r.findings[1].line, 4);
}

TEST_F(LintTest, DeterminismIgnoresOutOfScopeAndMemberCalls) {
  // util/ is out of scope; obj.time() is a member call, not libc time().
  write("util/timer_impl.cpp",
        "namespace fanstore::util { void f() { auto t = "
        "std::chrono::steady_clock::now(); (void)t; } }\n");
  write("core/member.cpp",
        "namespace fanstore::core { void f(Clock& c) { auto t = c.time(); "
        "(void)t; } }\n");
  const LintResult r = lint({"determinism"});
  EXPECT_TRUE(r.findings.empty()) << r.findings[0].message;
}

TEST_F(LintTest, DeterminismFlagsWallTimerInTheVirtualWorldOnly) {
  // WallTimer wraps steady_clock inside util/, so only its own name shows
  // in simnet/ and plan/; core/ keeps it for wall-time latency histograms.
  const std::string body =
      "#include \"util/timer.hpp\"\n"
      "double f() {\n"
      "  WallTimer t;\n"                      // line 3 — violation in scope
      "  return t.elapsed_sec();\n"
      "}\n";
  write("simnet/speed.cpp", body);
  write("plan/depth.cpp", body);
  write("core/latency.cpp", body);
  const LintResult r = lint({"determinism"});
  ASSERT_EQ(r.findings.size(), 2u);
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.rule, "determinism");
    EXPECT_EQ(f.line, 3);
    EXPECT_NE(f.message.find("WallTimer"), std::string::npos) << f.message;
  }
  EXPECT_EQ(r.findings[0].file, "plan/depth.cpp");
  EXPECT_EQ(r.findings[1].file, "simnet/speed.cpp");
}

TEST_F(LintTest, RawSyncFlagsStdMutexOutsideUtilSync) {
  write("core/locks.cpp",
        "namespace fanstore::core {\n"
        "std::mutex g_mu;\n"                     // line 2 — violation
        "}\n");
  write("util/sync.hpp", "namespace s { std::mutex exempt_mu; }\n");
  const LintResult r = lint({"raw-sync"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "raw-sync");
  EXPECT_EQ(r.findings[0].file, "core/locks.cpp");
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST_F(LintTest, GuardedByFlagsUnreferencedMutexMember) {
  write("core/widget.hpp",
        "namespace fanstore::core {\n"           // 1
        "class Widget {\n"                       // 2
        " public:\n"                             // 3
        "  void poke();\n"                       // 4
        " private:\n"                            // 5
        "  sync::Mutex mu_{\"widget.mu\"};\n"    // 6 — referenced below
        "  int n_ GUARDED_BY(mu_) = 0;\n"        // 7
        "  sync::Mutex orphan_mu_{\"widget.orphan\"};\n"  // 8 — violation
        "};\n"
        "}\n");
  const LintResult r = lint({"guarded-by"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "guarded-by");
  EXPECT_EQ(r.findings[0].file, "core/widget.hpp");
  EXPECT_EQ(r.findings[0].line, 8);
  EXPECT_NE(r.findings[0].message.find("orphan_mu_"), std::string::npos);
}

TEST_F(LintTest, MetricInventoryChecksNamesKindsAndStaleness) {
  write("obs/metric_names.inc",
        "FANSTORE_METRIC(\"fs.opens\", counter)\n"
        "FANSTORE_METRIC(\"fs.read_us\", histogram)\n"
        "FANSTORE_METRIC(\"cache.unused\", counter)\n");  // stale — line 3
  inventory_ = "obs/metric_names.inc";
  write("core/wire.cpp",
        "namespace fanstore::core {\n"
        "void wire(obs::MetricsRegistry& m) {\n"
        "  m.counter(\"fs.opens\").inc();\n"          // ok
        "  m.gauge(\"fs.read_us\").set(1);\n"         // line 4: kind mismatch
        "  m.counter(\"fs.rogue\").inc();\n"          // line 5: not inventoried
        "}\n"
        "}\n");
  const LintResult r = lint({"metric-inventory"});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].file, "core/wire.cpp");
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_NE(r.findings[0].message.find("histogram"), std::string::npos);
  EXPECT_EQ(r.findings[1].line, 5);
  EXPECT_NE(r.findings[1].message.find("fs.rogue"), std::string::npos);
  EXPECT_EQ(r.findings[2].file, "metric_names.inc");
  EXPECT_EQ(r.findings[2].line, 3);
  EXPECT_NE(r.findings[2].message.find("never registered"), std::string::npos);
}

TEST_F(LintTest, MetricInventoryCrossChecksDesignDoc) {
  write("obs/metric_names.inc", "FANSTORE_METRIC(\"fs.opens\", counter)\n");
  inventory_ = "obs/metric_names.inc";
  write("core/wire.cpp",
        "namespace fanstore::core { void w(obs::MetricsRegistry& m) { "
        "m.counter(\"fs.opens\").inc(); } }\n");
  write("design.md", "nothing about metrics here\n");
  design_ = "design.md";
  LintResult r = lint({"metric-inventory"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_NE(r.findings[0].message.find("design doc"), std::string::npos);
  // Prefix-row style (`fs.` + bare suffix) satisfies the check.
  write("design.md", "| `fs.` | `opens` |\n");
  r = lint({"metric-inventory"});
  EXPECT_TRUE(r.findings.empty());
}

TEST_F(LintTest, CodecIdFlagsDuplicatesAndReservedRange) {
  write("compress/registry.cpp",
        "namespace fanstore::compress {\n"       // 1
        "void build(Registry& r) {\n"            // 2
        "  r.add(7, \"a\", make_a());\n"         // 3
        "  r.add(7, \"b\", make_b());\n"         // 4 — duplicate
        "  r.add(1024, \"c\", make_c());\n"      // 5 — reserved range
        "}\n"
        "}\n");
  const LintResult r = lint({"codec-id"});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].rule, "codec-id");
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_EQ(r.findings[1].line, 5);
  EXPECT_NE(r.findings[1].message.find("reserved"), std::string::npos);
}

TEST_F(LintTest, CodecIdIgnoresOtherFiles) {
  write("core/adder.cpp",
        "namespace fanstore::core { void f(T& t) { t.add(7, x); t.add(7, y); } }\n");
  const LintResult r = lint({"codec-id"});
  EXPECT_TRUE(r.findings.empty());
}

TEST_F(LintTest, CrcBeforeInterpretFlagsEarlyStatusRead) {
  write("core/fetch.cpp",
        "namespace fanstore::core {\n"                            // 1
        "int peek(const mpi::Message& reply) {\n"                 // 2
        "  if (reply.payload[0] == kFetchNotFound) return 1;\n"   // 3
        "  if (!mpi::unseal(as_view(reply.payload))) return -1;\n"
        "  return 0;\n"
        "}\n"
        "int good(const mpi::Message& reply) {\n"
        "  const auto sealed = mpi::unseal(as_view(reply.payload));\n"
        "  if (!sealed) return -1;\n"
        "  if (sealed->body[0] == kFetchNotFound) return 1;\n"
        "  return 0;\n"
        "}\n"
        "}\n");
  const LintResult r = lint({"crc-before-interpret"});
  ASSERT_EQ(r.findings.size(), 2u);  // status compare + payload access, line 3
  EXPECT_EQ(r.findings[0].rule, "crc-before-interpret");
  EXPECT_EQ(r.findings[0].file, "core/fetch.cpp");
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_EQ(r.findings[1].line, 3);
}

TEST_F(LintTest, CrcBeforeInterpretCoversClusterHandlersAndReplies) {
  write("cluster/node.cpp",
        "namespace fanstore::cluster {\n"                          // 1
        "void Node::handle_push(const mpi::Message& msg) {\n"      // 2
        "  merge_push_body(as_view(msg.payload));\n"               // 3
        "}\n"                                                     // 4
        "void Node::exchange() {\n"                                // 5
        "  const mpi::Message msg = comm_.recv(0, kTagMetaPush);\n"
        "  const auto push = mpi::unseal(as_view(msg.payload));\n"
        "  if (push) merge_push_body(push->body);\n"
        "}\n"
        "bool Node::peek(const Bytes& body) {\n"                   // 10
        "  return body[0] == kMetaOk;\n"                           // 11
        "}\n"
        "bool Node::ask() {\n"
        "  const mpi::Reply r = call(1, kTagMetaLookup, {});\n"
        "  return !r.body().empty() && r.body()[0] == kMetaOk;\n"
        "}\n"
        "void Node::spill(Entry& e) { keep(std::move(e.payload)); }\n"
        "}\n");
  const LintResult r = lint({"crc-before-interpret"});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].file, "cluster/node.cpp");
  EXPECT_EQ(r.findings[0].line, 3);   // payload merged unverified
  EXPECT_EQ(r.findings[1].line, 11);  // status read with no call()/unseal()
}

TEST_F(LintTest, CrcRuleSkipsEncodersAndOutOfScope) {
  write("core/encoder.cpp",
        "namespace fanstore::core {\n"
        "Bytes encode_fetch_reply(int s) { Bytes m = mpi::envelope(7); "
        "m.push_back(kFetchOk); return mpi::seal(std::move(m)); }\n"
        "}\n");
  write("mpi/other.cpp",
        "namespace fanstore::mpi { int f(const Message& r) { "
        "return r.payload[0] == kFetchOk; } }\n");
  const LintResult r = lint({"crc-before-interpret"});
  EXPECT_TRUE(r.findings.empty());
}

TEST_F(LintTest, EventfdWakeupFlagsStoreAndAssignmentOnArmFlag) {
  write("ipc/loop.cpp",
        "namespace fanstore::ipc {\n"                               // line 1
        "void f() {\n"                                              // line 2
        "  wake_armed_.store(true);\n"                              // line 3
        "  wake_armed_ = false;\n"                                  // line 4
        "  if (armed_ == other) {}\n"       // comparison: fine     // line 5
        "  bool was_armed = armed_.exchange(false);\n"  // fine     // line 6
        "  (void)was_armed;\n"
        "}\n"
        "}\n");
  const LintResult r = lint({"eventfd-wakeup"});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].rule, "eventfd-wakeup");
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_EQ(r.findings[1].line, 4);
}

TEST_F(LintTest, EventfdWakeupRequiresExchangeWhereEventfdIsCreated) {
  // Creating an eventfd with no exchange() anywhere in the TU means the
  // arm/disarm protocol is gone wholesale.
  write("ipc/bare.cpp",
        "namespace fanstore::ipc {\n"
        "int f() { return eventfd(0, 0); }\n"
        "}\n");
  // Out of scope: the same pattern elsewhere is some other subsystem's
  // business.
  write("util/other.cpp",
        "namespace fanstore::util {\n"
        "int f() { return eventfd(0, 0); }\n"
        "void g() { armed_.store(true); }\n"
        "}\n");
  const LintResult r = lint({"eventfd-wakeup"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].file, "ipc/bare.cpp");
}

TEST_F(LintTest, InlineSuppressionSilencesNamedRuleOnly) {
  write("mpi/supp.cpp",
        "namespace fanstore::mpi {\n"
        "void f() {\n"
        "  int a = rand();  // fanstore-lint: allow(determinism)\n"  // hidden
        "  // fanstore-lint: allow(determinism)\n"
        "  int b = rand();\n"                                        // hidden
        "  int c = rand();  // fanstore-lint: allow(raw-sync)\n"     // line 6
        "}\n"
        "}\n");
  const LintResult r = lint({"determinism"});
  ASSERT_EQ(r.findings.size(), 1u);  // wrong-rule suppression doesn't apply
  EXPECT_EQ(r.findings[0].line, 6);
}

TEST_F(LintTest, BaselineSwallowsListedFindingsAndWarnsOnStale) {
  write("mpi/legacy.cpp",
        "namespace fanstore::mpi {\n"
        "void f() { int a = rand(); (void)a; }\n"
        "}\n");
  write("baseline.txt",
        "# comment\n"
        "determinism|mpi/legacy.cpp|void f() { int a = rand(); (void)a; }|"
        "legacy fixture, removal tracked\n"
        "determinism|mpi/gone.cpp|int b = rand();|file was deleted\n");
  baseline_ = "baseline.txt";
  const LintResult r = lint({"determinism"});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.baselined, 1u);
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_NE(r.warnings[0].find("mpi/gone.cpp"), std::string::npos);
}

TEST_F(LintTest, BaselineRejectsMissingJustification) {
  write("mpi/legacy.cpp", "namespace m { void f() { rand(); } }\n");
  write("baseline.txt", "determinism|mpi/legacy.cpp|rand();|TODO\n");
  baseline_ = "baseline.txt";
  const LintResult r = lint({"determinism"});
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("justification"), std::string::npos);
}

TEST_F(LintTest, WriteBaselineRoundTrips) {
  write("mpi/legacy.cpp",
        "namespace fanstore::mpi { void f() { int a = rand(); (void)a; } }\n");
  LintResult r = lint({"determinism"});
  ASSERT_EQ(r.findings.size(), 1u);
  std::string text = format_baseline(r.findings);
  // The writer emits TODO justifications; a real one must replace them.
  const std::size_t at = text.find("TODO justify or fix");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 19, "accepted legacy use");
  write("baseline.txt", text);
  baseline_ = "baseline.txt";
  r = lint({"determinism"});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.baselined, 1u);
  EXPECT_TRUE(r.warnings.empty());
}

TEST_F(LintTest, UnknownRuleIsAnError) {
  write("core/a.cpp", "namespace n {}\n");
  const LintResult r = lint({"no-such-rule"});
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("no-such-rule"), std::string::npos);
}

// Lexer/model spot checks: the bits rules depend on.
TEST(LintLexerTest, TokenizesRawStringsAndNumbers) {
  const auto toks = tokenize("auto s = R\"x(a \"b\" c)x\"; int n = 0x3FF;");
  std::string raw;
  long long n = 0;
  for (const auto& t : toks) {
    if (t.kind == Tok::kString) raw = string_value(t);
    if (t.kind == Tok::kNumber) EXPECT_TRUE(number_value(t, &n));
  }
  EXPECT_EQ(raw, "a \"b\" c");
  EXPECT_EQ(n, 1023);
}

TEST(LintModelTest, FindsClassesFunctionsAndGuardedRefs) {
  const auto toks = tokenize(
      "class Foo {\n"
      "  void bar() { if (x) {} }\n"
      "  sync::Mutex mu_{\"foo.mu\"};\n"
      "  int v_ GUARDED_BY(mu_);\n"
      "};\n"
      "void baz(int a) REQUIRES(mu) { for (;;) {} }\n");
  const TuModel m = build_model(toks);
  ASSERT_EQ(m.classes.size(), 1u);
  EXPECT_EQ(m.classes[0].name, "Foo");
  ASSERT_EQ(m.classes[0].mutex_members.size(), 1u);
  EXPECT_EQ(m.classes[0].mutex_members[0].name, "mu_");
  EXPECT_EQ(m.classes[0].guarded_refs.count("mu_"), 1u);
  bool saw_baz = false;
  for (const auto& f : m.functions) saw_baz = saw_baz || f.name == "baz";
  EXPECT_TRUE(saw_baz);
}

}  // namespace
}  // namespace fanstore::lint
