// Tests for the bprom invariant linter (tools/lint_core.hpp).
//
// The fixture files under tests/lint_fixtures/ are known-bad snippets that
// are never compiled; each line that must produce a finding carries an
// `expect(<rule>)` marker in its trailing comment, and the suite derives
// the expected (line, rule) set from those markers.  That proves both
// directions at once: every rule fires exactly where intended, and nowhere
// else — including on the escape-hatch (`bprom-lint: allow(...)`) and
// justified (`relaxed:` / `ordered:`) variants sitting in the same file.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint_core.hpp"

#ifndef BPROM_LINT_FIXTURE_DIR
#error "build must define BPROM_LINT_FIXTURE_DIR"
#endif
#ifndef BPROM_LINT_RULES_FILE
#error "build must define BPROM_LINT_RULES_FILE"
#endif

namespace {

using bprom::lint::Finding;
using bprom::lint::Rules;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Rule set the fixtures are linted under: everything on, no exemptions,
/// and the hot-path tag pointed at the one fixture exercising it.
Rules fixture_rules() {
  std::istringstream config(
      "rule raw-thread on\n"
      "rule raw-rand on\n"
      "rule unordered-container on\n"
      "rule hot-path-alloc on\n"
      "rule relaxed-comment on\n"
      "rule float-accum on\n"
      "rule pool-size on\n"
      "hot-path lint_fixtures/hot_alloc.cpp\n");
  std::string error;
  Rules rules = Rules::parse(config, &error);
  EXPECT_TRUE(error.empty()) << error;
  return rules;
}

/// (line, rule) pairs declared by `expect(<rule>)` markers in the fixture.
std::set<std::pair<std::size_t, std::string>> expected_findings(
    const std::string& text) {
  std::set<std::pair<std::size_t, std::string>> expected;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    std::size_t pos = 0;
    while ((pos = line.find("expect(", pos)) != std::string::npos) {
      const std::size_t start = pos + 7;
      const std::size_t close = line.find(')', start);
      if (close == std::string::npos) {
        ADD_FAILURE() << "unclosed expect() marker on line " << lineno;
        break;
      }
      expected.emplace(lineno, line.substr(start, close - start));
      pos = close;
    }
  }
  return expected;
}

std::set<std::pair<std::size_t, std::string>> actual_findings(
    const std::vector<Finding>& findings) {
  std::set<std::pair<std::size_t, std::string>> actual;
  for (const Finding& f : findings) actual.emplace(f.line, f.rule);
  return actual;
}

/// Lint one fixture and require findings == its expect() markers, exactly.
void check_fixture(const std::string& name) {
  const std::string path =
      std::string(BPROM_LINT_FIXTURE_DIR) + "/" + name;
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  const auto expected = expected_findings(text);
  const auto actual =
      actual_findings(bprom::lint::lint_file(path, text, fixture_rules()));
  for (const auto& [line, rule] : expected) {
    EXPECT_TRUE(actual.count({line, rule}) > 0)
        << name << ":" << line << " should fire [" << rule << "]";
  }
  for (const auto& [line, rule] : actual) {
    EXPECT_TRUE(expected.count({line, rule}) > 0)
        << name << ":" << line << " fired [" << rule
        << "] with no expect() marker";
  }
}

TEST(LintFixtures, RawThread) { check_fixture("raw_thread.cpp"); }
TEST(LintFixtures, RawRand) { check_fixture("raw_rand.cpp"); }
TEST(LintFixtures, UnorderedContainer) { check_fixture("unordered.cpp"); }
TEST(LintFixtures, HotPathAlloc) { check_fixture("hot_alloc.cpp"); }
TEST(LintFixtures, RelaxedComment) { check_fixture("relaxed.cpp"); }
TEST(LintFixtures, FloatAccum) { check_fixture("float_accum.cpp"); }
TEST(LintFixtures, PoolSize) { check_fixture("pool_size.cpp"); }

// Each fixture must actually exercise its rule (no silently-empty files),
// and the escape hatch must be exercised somewhere.
TEST(LintFixtures, EveryRuleHasTeeth) {
  const char* fixtures[] = {"raw_thread.cpp",  "raw_rand.cpp",
                            "unordered.cpp",   "hot_alloc.cpp",
                            "relaxed.cpp",     "float_accum.cpp",
                            "pool_size.cpp"};
  bool any_allow = false;
  for (const char* name : fixtures) {
    const std::string text =
        read_file(std::string(BPROM_LINT_FIXTURE_DIR) + "/" + name);
    EXPECT_FALSE(expected_findings(text).empty())
        << name << " declares no expected findings";
    any_allow = any_allow ||
                text.find("bprom-lint: allow(") != std::string::npos;
  }
  EXPECT_TRUE(any_allow);
}

// Tokens inside comments and string literals never match.
TEST(LintScanner, CommentsAndStringsAreInert) {
  const Rules rules = fixture_rules();
  const std::string text =
      "// std::thread rand() unordered_map memory_order_relaxed\n"
      "/* std::async srand(1) */\n"
      "const char* doc = \"std::thread rand() memory_order_relaxed\";\n";
  EXPECT_TRUE(bprom::lint::lint_file("inert.cpp", text, rules).empty());
}

// Identifier boundaries: embedding tokens inside longer names is fine.
TEST(LintScanner, TokenBoundaries) {
  const Rules rules = fixture_rules();
  const std::string text =
      "int operand = 1;\n"
      "int my_rand_like = operand;\n"        // rand bounded by '_'
      "void f() { std::this_thread::yield(); }\n";
  EXPECT_TRUE(bprom::lint::lint_file("bounds.cpp", text, rules).empty());
}

// The escape only reaches one line: an allow() two lines up does nothing.
TEST(LintScanner, AllowEscapeIsNarrow) {
  const Rules rules = fixture_rules();
  const std::string text =
      "#include <thread>\n"
      "// bprom-lint: allow(raw-thread)\n"
      "// some unrelated line of commentary\n"
      "std::thread t;\n";
  const auto findings = bprom::lint::lint_file("narrow.cpp", text, rules);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-thread");
  EXPECT_EQ(findings[0].line, 4u);
}

// Exemptions scope rules by path substring.
TEST(LintRules, ExemptionsScopeByPath) {
  std::istringstream config(
      "rule raw-thread on\n"
      "exempt raw-thread src/util/\n");
  std::string error;
  const Rules rules = Rules::parse(config, &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::string text = "std::thread t;\n";
  EXPECT_TRUE(
      bprom::lint::lint_file("src/util/pool.cpp", text, rules).empty());
  EXPECT_EQ(bprom::lint::lint_file("src/nn/net.cpp", text, rules).size(),
            1u);
}

TEST(LintRules, UnknownDirectiveIsAnError) {
  std::istringstream config("rulez raw-thread on\n");
  std::string error;
  (void)Rules::parse(config, &error);
  EXPECT_FALSE(error.empty());
}

TEST(LintRules, MalformedRuleLineIsAnError) {
  std::istringstream config("rule raw-thread maybe\n");
  std::string error;
  (void)Rules::parse(config, &error);
  EXPECT_FALSE(error.empty());
}

// The checked-in configuration must parse and keep every rule on — a typo
// in lint_rules.txt must fail here, not silently drop a rule from CI.
TEST(LintRules, RepoConfigKeepsEveryRuleOn) {
  std::ifstream in(BPROM_LINT_RULES_FILE);
  ASSERT_TRUE(in.good()) << "missing " << BPROM_LINT_RULES_FILE;
  std::string error;
  const Rules rules = Rules::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  for (const char* rule :
       {"raw-thread", "raw-rand", "unordered-container", "hot-path-alloc",
        "relaxed-comment", "float-accum", "pool-size", "failpoint-name"}) {
    EXPECT_TRUE(rules.rule_on(rule)) << rule << " is off in lint_rules.txt";
  }
  // The hot-path discipline must keep covering the GEMM kernel layer.
  EXPECT_TRUE(rules.hot_path("src/tensor/gemm.cpp"));
  // Only util may size work by, or choose, a pool.
  EXPECT_TRUE(rules.exempted("pool-size", "src/util/thread_pool.cpp"));
  EXPECT_FALSE(rules.exempted("pool-size", "src/nn/model.cpp"));
}

// ---- failpoint-name: the cross-file registry/site pass ----

namespace fp {

/// A minimal registry block like the one in src/util/failpoint.cpp.
const char* kRegistryText =
    "namespace {\n"
    "const char* const kRegistry[] = {\n"
    "    // failpoint-registry-begin\n"
    "    \"io.read.open\",\n"
    "    \"net.send\",\n"
    "    // failpoint-registry-end\n"
    "};\n"
    "}\n";

Rules fp_rules() {
  std::istringstream config("rule failpoint-name on\n");
  std::string error;
  Rules rules = Rules::parse(config, &error);
  EXPECT_TRUE(error.empty()) << error;
  return rules;
}

}  // namespace fp

TEST(LintFailpoints, SitesAreExtractedFromRawLines) {
  // split_lines blanks string literals out of .code, so the name must come
  // from the raw text; comment-only mentions must NOT count as sites.
  const std::string text =
      "// BPROM_FAILPOINT(\"doc.only.mention\") in a comment\n"
      "if (auto hit = BPROM_FAILPOINT(\"io.read.open\")) throw 1;\n"
      "#define BPROM_FAILPOINT(name) forwarded(name)\n";
  const auto sites = bprom::lint::failpoint_sites("a.cpp", text);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].name, "io.read.open");
  EXPECT_EQ(sites[0].line, 2u);
}

TEST(LintFailpoints, RegistryParsesMarkerBlock) {
  const auto registry = bprom::lint::failpoint_registry(fp::kRegistryText);
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry[0].name, "io.read.open");
  EXPECT_EQ(registry[1].name, "net.send");
  // Quoted strings outside the marker block never register.
  EXPECT_TRUE(bprom::lint::failpoint_registry("const char* s = \"x\";\n")
                  .empty());
}

TEST(LintFailpoints, CleanWhenEverySiteIsRegisteredAndUnique) {
  const auto registry = bprom::lint::failpoint_registry(fp::kRegistryText);
  std::vector<bprom::lint::FailpointSite> sites = {
      {"src/io/binary.cpp", 10, "io.read.open"},
      {"src/net/socket.cpp", 20, "net.send"},
  };
  EXPECT_TRUE(bprom::lint::lint_failpoints(sites, registry, "reg.cpp",
                                           fp::fp_rules())
                  .empty());
}

TEST(LintFailpoints, UnregisteredDuplicateAndUnusedAllFire) {
  const auto registry = bprom::lint::failpoint_registry(fp::kRegistryText);
  std::vector<bprom::lint::FailpointSite> sites = {
      {"a.cpp", 1, "io.read.open"},
      {"b.cpp", 2, "io.read.open"},   // duplicate of a.cpp:1
      {"c.cpp", 3, "not.registered"}, // not in the registry
      // "net.send" registered but never used
  };
  const auto findings =
      bprom::lint::lint_failpoints(sites, registry, "reg.cpp", fp::fp_rules());
  ASSERT_EQ(findings.size(), 3u);
  bool dup = false, unreg = false, unused = false;
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "failpoint-name");
    if (f.file == "b.cpp") dup = true;
    if (f.file == "c.cpp") unreg = true;
    if (f.file == "reg.cpp") unused = true;
  }
  EXPECT_TRUE(dup);
  EXPECT_TRUE(unreg);
  EXPECT_TRUE(unused);
}

TEST(LintFailpoints, RuleOffSuppressesEverything) {
  std::istringstream config("rule raw-thread on\n");
  std::string error;
  const Rules rules = Rules::parse(config, &error);
  ASSERT_TRUE(error.empty()) << error;
  std::vector<bprom::lint::FailpointSite> sites = {
      {"c.cpp", 3, "not.registered"}};
  EXPECT_TRUE(bprom::lint::lint_failpoints(sites, {}, "", rules).empty());
}

// src/net owns real IO threads (the epoll loops) but is deliberately NOT
// path-exempted from raw-thread: each owned thread is a per-site, justified
// `bprom-lint: allow(raw-thread)`, so under the checked-in configuration a
// NEW raw thread anywhere in src/net still fires while the sanctioned
// spawn-site pattern passes.
TEST(LintRules, NetOwnsThreadsOnlyThroughSanctionedAllowSites) {
  std::ifstream in(BPROM_LINT_RULES_FILE);
  ASSERT_TRUE(in.good()) << "missing " << BPROM_LINT_RULES_FILE;
  std::string error;
  const Rules rules = Rules::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;

  const std::string bare = "std::thread pump([] {});\n";
  EXPECT_EQ(bprom::lint::lint_file("src/net/server.cpp", bare, rules).size(),
            1u)
      << "an unsanctioned raw thread in src/net must fire raw-thread";
  EXPECT_EQ(bprom::lint::lint_file("src/net/new_file.cpp", bare, rules).size(),
            1u);

  const std::string sanctioned =
      "// bprom-lint: allow(raw-thread) — epoll pump owned by net::Server\n"
      "std::thread pump([] {});\n";
  EXPECT_TRUE(
      bprom::lint::lint_file("src/net/server.cpp", sanctioned, rules).empty());

  // The exemption that sanctions src/util does not leak to src/net-adjacent
  // paths by substring accident.
  EXPECT_EQ(
      bprom::lint::lint_file("src/netutil/helper.cpp", bare, rules).size(),
      1u);
}

}  // namespace
