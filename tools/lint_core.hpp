// bprom_lint — repo-specific invariant linter (token-level, no libclang).
//
// Enforces the determinism / hot-path / relaxed-atomic conventions that
// generic tools (clang-tidy, -Wthread-safety, sanitizers) cannot express,
// because they are contracts of THIS codebase:
//
//   raw-thread        std::thread / std::jthread / std::async outside
//                     src/util — all concurrency must flow through
//                     util::ThreadPool / parallel_for so results stay
//                     bit-identical for any BPROM_THREADS.
//   raw-rand          rand / srand / drand48 / std::random_device anywhere —
//                     util::Rng with explicitly split streams is the only
//                     sanctioned randomness (seeded, deterministic).
//   unordered-container  std::unordered_{map,set,...} outside src/util —
//                     iteration order is unspecified, and results that feed
//                     through an unordered walk are not reproducible.
//   hot-path-alloc    new / malloc-family / make_unique / make_shared /
//                     container growth (.push_back/.emplace/.resize/...)
//                     in files tagged `hot-path` — those files must stage
//                     through util::Scratch or persistent members (the
//                     PR 5/6 allocation-free steady-state discipline).
//   relaxed-comment   every memory_order_relaxed must carry a `relaxed:`
//                     justification comment on the same line or within the
//                     three lines above it.
//   float-accum       `f += ...` into a float-declared scalar inside a
//                     loop needs an `ordered:` comment nearby — float
//                     summation is order-sensitive, and the repo's
//                     determinism contract requires every reduction order
//                     to be fixed (never thread-count-dependent).
//   pool-size         hardware_concurrency / default_pool / ThreadPool
//                     outside src/util — no chunk, shard or tile count may
//                     be derived from the thread count (results must not
//                     depend on it), and no code outside util picks its own
//                     pool: every parallel_for runs on util::default_pool(),
//                     which util::ScopedPoolOverride alone redirects.
//   failpoint-name    cross-file pass: every BPROM_FAILPOINT("name") site
//                     must use a name listed in the registry block of
//                     src/util/failpoint.cpp (between the
//                     `failpoint-registry-begin/end` markers), each name
//                     may appear at exactly ONE site (so an armed spec
//                     targets one code path, deterministically), and every
//                     registered name must have a site (no dead registry
//                     rows that tests could arm in vain).
//
// Escape hatch: `// bprom-lint: allow(<rule>)` on the offending line or the
// line directly above suppresses that one finding (use sparingly, justify
// in the same comment).  Configuration lives in tools/lint_rules.txt.
//
// The scanner is deliberately token-level: it strips comments and string
// literals, then matches identifier-boundary tokens.  That keeps the tool
// dependency-free and fast enough to run as a tier-1 CTest over all of
// src/ (and as the fail-early CI gate) in well under a second.
#pragma once

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace bprom::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Parsed tools/lint_rules.txt.
struct Rules {
  /// rule ids toggled on (order-independent).
  std::set<std::string> enabled;
  /// rule id -> path substrings where it does not apply.
  std::map<std::string, std::vector<std::string>> exempt;
  /// Path substrings of files under the hot-path allocation discipline.
  std::vector<std::string> hot_paths;

  [[nodiscard]] bool rule_on(const std::string& id) const {
    return enabled.count(id) > 0;
  }

  [[nodiscard]] bool exempted(const std::string& id,
                              const std::string& path) const {
    auto it = exempt.find(id);
    if (it == exempt.end()) return false;
    for (const auto& prefix : it->second) {
      if (path.find(prefix) != std::string::npos) return true;
    }
    return false;
  }

  [[nodiscard]] bool hot_path(const std::string& path) const {
    for (const auto& tag : hot_paths) {
      if (path.find(tag) != std::string::npos) return true;
    }
    return false;
  }

  /// Format: `rule <id> on|off`, `exempt <id> <path-substring>`,
  /// `hot-path <path-substring>`; `#` starts a comment.  Unknown
  /// directives are errors (a typo must not silently disable a rule).
  static Rules parse(std::istream& in, std::string* error) {
    Rules rules;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream fields(line);
      std::string directive;
      if (!(fields >> directive)) continue;  // blank / comment-only
      if (directive == "rule") {
        std::string id, state;
        if (!(fields >> id >> state) || (state != "on" && state != "off")) {
          if (error != nullptr) {
            *error = "line " + std::to_string(lineno) +
                     ": expected `rule <id> on|off`";
          }
          return rules;
        }
        if (state == "on") rules.enabled.insert(id);
      } else if (directive == "exempt") {
        std::string id, prefix;
        if (!(fields >> id >> prefix)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(lineno) +
                     ": expected `exempt <id> <path-substring>`";
          }
          return rules;
        }
        rules.exempt[id].push_back(prefix);
      } else if (directive == "hot-path") {
        std::string prefix;
        if (!(fields >> prefix)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(lineno) +
                     ": expected `hot-path <path-substring>`";
          }
          return rules;
        }
        rules.hot_paths.push_back(prefix);
      } else {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) +
                   ": unknown directive `" + directive + "`";
        }
        return rules;
      }
    }
    if (error != nullptr) error->clear();
    return rules;
  }
};

namespace detail {

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `code` with identifier boundaries on both
/// sides.  Bare tokens intentionally match their qualified forms too:
/// `rand` must catch `std::rand`, `unordered_map` must catch
/// `std::unordered_map`.  (`std::this_thread` is safe from the
/// `std::thread` token — the substring simply never occurs in it.)
inline bool has_token(const std::string& code, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// One physical line, split into executable code and comment text.
struct Line {
  std::string code;     // literals and comments blanked out
  std::string comment;  // concatenated comment contents
};

/// Strip comments and string/char literals, line by line.  Handles `//`,
/// `/* ... */` (multi-line), "..." and '...' with escapes.  Raw strings
/// are not handled (the codebase has none; the linter errs on the side of
/// treating their contents as code, which can only over-report).
inline std::vector<Line> split_lines(const std::string& text) {
  std::vector<Line> lines;
  Line current;
  bool in_block_comment = false;
  bool in_line_comment = false;
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      lines.push_back(std::move(current));
      current = Line{};
      in_line_comment = false;
      // Unterminated literals cannot span lines (except raw strings,
      // unhandled by design); reset so one bad line cannot poison a file.
      in_string = in_char = false;
      continue;
    }
    if (in_line_comment) {
      current.comment.push_back(c);
      continue;
    }
    if (in_block_comment) {
      if (c == '*' && next == '/') {
        in_block_comment = false;
        ++i;
      } else {
        current.comment.push_back(c);
      }
      continue;
    }
    if (in_string || in_char) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if ((in_string && c == '"') || (in_char && c == '\'')) {
        in_string = in_char = false;
      }
      current.code.push_back(' ');
      continue;
    }
    if (c == '/' && next == '/') {
      in_line_comment = true;
      ++i;
      continue;
    }
    if (c == '/' && next == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      current.code.push_back(' ');
      continue;
    }
    if (c == '\'') {
      // Digit separators (1'000'000) are not character literals.
      const bool digit_sep = i > 0 &&
          std::isdigit(static_cast<unsigned char>(text[i - 1])) != 0 &&
          std::isdigit(static_cast<unsigned char>(next)) != 0;
      if (!digit_sep) in_char = true;
      current.code.push_back(' ');
      continue;
    }
    current.code.push_back(c);
  }
  lines.push_back(std::move(current));
  return lines;
}

/// `// bprom-lint: allow(<rule>)` on this line or the line directly above.
inline bool allowed(const std::vector<Line>& lines, std::size_t idx,
                    const std::string& rule) {
  const std::string needle = "bprom-lint: allow(" + rule + ")";
  if (lines[idx].comment.find(needle) != std::string::npos) return true;
  return idx > 0 &&
         lines[idx - 1].comment.find(needle) != std::string::npos;
}

/// A comment containing `marker` on the same line or within `window`
/// lines above it.
inline bool comment_near(const std::vector<Line>& lines, std::size_t idx,
                         const std::string& marker, std::size_t window) {
  const std::size_t lo = idx >= window ? idx - window : 0;
  for (std::size_t i = idx + 1; i-- > lo;) {
    if (lines[i].comment.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// Identifiers declared as scalar `float` in this file (crude per-file
/// scope, which over-approximates: a float name anywhere in the file makes
/// later `+=` loops on that name suspicious — exactly the caution wanted).
inline std::set<std::string> float_scalars(const std::vector<Line>& lines) {
  std::set<std::string> names;
  for (const auto& line : lines) {
    const std::string& code = line.code;
    std::size_t pos = 0;
    while ((pos = code.find("float", pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
      std::size_t p = pos + 5;
      if (!left_ok || (p < code.size() && ident_char(code[p]))) {
        pos = p;
        continue;
      }
      while (p < code.size() && code[p] == ' ') ++p;
      std::size_t start = p;
      while (p < code.size() && ident_char(code[p])) ++p;
      if (p > start) {
        // Scalar declarations only: `float x = ...`, `float x;`, `float
        // x{...}` — skip pointers/references/arrays/function returns.
        std::size_t q = p;
        while (q < code.size() && code[q] == ' ') ++q;
        if (q < code.size() &&
            (code[q] == '=' || code[q] == ';' || code[q] == '{')) {
          names.insert(code.substr(start, p - start));
        }
      }
      pos = p;
    }
  }
  return names;
}

}  // namespace detail

/// Lint one file's contents.  `path` is used for reporting and for the
/// per-path rule scoping (exemptions, hot-path tags).
inline std::vector<Finding> lint_file(const std::string& path,
                                      const std::string& text,
                                      const Rules& rules) {
  using detail::allowed;
  using detail::comment_near;
  using detail::has_token;
  std::vector<Finding> findings;
  const std::vector<detail::Line> lines = detail::split_lines(text);
  const auto report = [&](std::size_t idx, const std::string& rule,
                          const std::string& message) {
    if (!rules.rule_on(rule) || rules.exempted(rule, path)) return;
    if (allowed(lines, idx, rule)) return;
    findings.push_back(Finding{path, idx + 1, rule, message});
  };

  const bool hot = rules.hot_path(path);
  const std::set<std::string> floats =
      rules.rule_on("float-accum") ? detail::float_scalars(lines)
                                   : std::set<std::string>{};

  // Loop tracking for float-accum: brace scopes flagged as loop bodies.
  std::vector<bool> scopes;
  bool pending_loop = false;
  std::size_t loop_scopes = 0;
  int paren_depth = 0;  // so `;` inside a for-header doesn't end the loop

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;

    for (const char* token : {"std::thread", "std::jthread", "std::async"}) {
      if (has_token(code, token)) {
        report(i, "raw-thread",
               std::string(token) +
                   " — route concurrency through util::ThreadPool / "
                   "parallel_for so results stay BPROM_THREADS-invariant");
      }
    }

    for (const char* token :
         {"rand", "srand", "rand_r", "drand48", "random_device"}) {
      if (has_token(code, token)) {
        report(i, "raw-rand",
               std::string(token) +
                   " — util::Rng with split streams is the only sanctioned "
                   "randomness (seeded, deterministic)");
      }
    }

    for (const char* token :
         {"hardware_concurrency", "default_pool", "ThreadPool"}) {
      if (has_token(code, token)) {
        report(i, "pool-size",
               std::string(token) +
                   " outside util — size work by a constant, never by the "
                   "thread count, and let parallel_for pick the pool");
      }
    }

    for (const char* token : {"unordered_map", "unordered_set",
                              "unordered_multimap", "unordered_multiset"}) {
      if (has_token(code, token)) {
        report(i, "unordered-container",
               std::string(token) +
                   " — unspecified iteration order; use std::map / sorted "
                   "vectors so results are reproducible");
      }
    }

    if (hot) {
      for (const char* token : {"new", "malloc", "calloc", "realloc",
                                "make_unique", "make_shared"}) {
        if (has_token(code, token)) {
          report(i, "hot-path-alloc",
                 std::string(token) +
                     " in a hot-path file — stage through util::Scratch or "
                     "persistent members (allocation-free steady state)");
        }
      }
      for (const char* grower : {"push_back", "emplace_back", "emplace",
                                 "resize", "reserve", "insert"}) {
        std::size_t pos = 0;
        while ((pos = code.find(grower, pos)) != std::string::npos) {
          const bool member_call =
              (pos >= 1 && code[pos - 1] == '.') ||
              (pos >= 2 && code[pos - 2] == '-' && code[pos - 1] == '>');
          const std::size_t end = pos + std::string(grower).size();
          const bool call = end < code.size() && code[end] == '(';
          if (member_call && call) {
            report(i, "hot-path-alloc",
                   std::string(grower) +
                       "() grows a container in a hot-path file — "
                       "preallocate or stage through util::Scratch");
            break;
          }
          pos = end;
        }
      }
    }

    if (has_token(code, "memory_order_relaxed") &&
        !comment_near(lines, i, "relaxed:", 3)) {
      report(i, "relaxed-comment",
             "memory_order_relaxed without a `relaxed:` justification "
             "comment on the line or within 3 lines above");
    }

    // ---- float-accum loop tracking (cheap brace-scope machine) ----
    if (rules.rule_on("float-accum")) {
      // Flag `x +=` before updating scopes so a same-line `for (...) {`
      // prefix still counts as loop context.
      const bool in_loop_now =
          loop_scopes > 0 ||
          (code.find("for (") != std::string::npos ||
           code.find("for(") != std::string::npos ||
           code.find("while (") != std::string::npos ||
           code.find("while(") != std::string::npos);
      if (in_loop_now) {
        std::size_t pos = 0;
        while ((pos = code.find("+=", pos)) != std::string::npos) {
          std::size_t p = pos;
          while (p > 0 && code[p - 1] == ' ') --p;
          std::size_t end = p;
          while (p > 0 && detail::ident_char(code[p - 1])) --p;
          const std::string lhs = code.substr(p, end - p);
          if (!lhs.empty() && floats.count(lhs) > 0 &&
              !comment_near(lines, i, "ordered", 3)) {
            report(i, "float-accum",
                   "`" + lhs +
                       " +=` accumulates a float in a loop without an "
                       "`ordered:` marker — document the fixed summation "
                       "order the determinism contract relies on");
          }
          pos += 2;
        }
      }
      if (code.find("for (") != std::string::npos ||
          code.find("for(") != std::string::npos ||
          code.find("while (") != std::string::npos ||
          code.find("while(") != std::string::npos) {
        pending_loop = true;
      }
      for (char c : code) {
        if (c == '(') {
          ++paren_depth;
        } else if (c == ')') {
          if (paren_depth > 0) --paren_depth;
        } else if (c == '{') {
          scopes.push_back(pending_loop);
          if (pending_loop) ++loop_scopes;
          pending_loop = false;
        } else if (c == '}') {
          if (!scopes.empty()) {
            if (scopes.back()) --loop_scopes;
            scopes.pop_back();
          }
        } else if (c == ';' && paren_depth == 0) {
          pending_loop = false;  // braceless single-statement loop ended
        }
      }
    }
  }
  return findings;
}

/// Convenience: lint a file from disk.  Returns false when unreadable.
inline bool lint_path(const std::string& path, const Rules& rules,
                      std::vector<Finding>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<Finding> findings = lint_file(path, buffer.str(), rules);
  out->insert(out->end(), findings.begin(), findings.end());
  return true;
}

// ---- failpoint-name: cross-file registry/site consistency ----

/// One BPROM_FAILPOINT("name") macro invocation.
struct FailpointSite {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string name;
};

/// One row of the failpoint.cpp registry block.
struct FailpointRegistryEntry {
  std::size_t line = 0;  // 1-based
  std::string name;
};

namespace detail {

/// First "..." literal on a raw line, or empty.  Failpoint names are plain
/// dotted identifiers, never escaped, so naive quote matching is exact.
inline std::string first_quoted(const std::string& raw) {
  const auto open = raw.find('"');
  if (open == std::string::npos) return {};
  const auto close = raw.find('"', open + 1);
  if (close == std::string::npos) return {};
  return raw.substr(open + 1, close - open - 1);
}

}  // namespace detail

/// Every BPROM_FAILPOINT("name") site in `text`.  Token detection runs on
/// comment/literal-stripped code (so a doc-comment mention does not count),
/// but the name itself must come from the RAW line — split_lines blanks
/// string literals out of .code.  The macro's own `#define` line carries no
/// quoted literal and is skipped naturally.
inline std::vector<FailpointSite> failpoint_sites(const std::string& path,
                                                  const std::string& text) {
  std::vector<FailpointSite> sites;
  const std::vector<detail::Line> lines = detail::split_lines(text);
  std::vector<std::string> raw;
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) raw.push_back(line);
  }
  for (std::size_t i = 0; i < lines.size() && i < raw.size(); ++i) {
    if (!detail::has_token(lines[i].code, "BPROM_FAILPOINT")) continue;
    const auto macro = raw[i].find("BPROM_FAILPOINT");
    if (macro == std::string::npos) continue;
    const std::string name = detail::first_quoted(raw[i].substr(macro));
    if (name.empty()) continue;  // the #define itself, or a forwarded arg
    sites.push_back(FailpointSite{path, i + 1, name});
  }
  return sites;
}

/// Names listed between the `failpoint-registry-begin` and
/// `failpoint-registry-end` marker comments (one quoted name per line).
/// Empty when `text` has no registry block.
inline std::vector<FailpointRegistryEntry> failpoint_registry(
    const std::string& text) {
  std::vector<FailpointRegistryEntry> entries;
  // Markers are assembled at runtime so THIS file's needle literals cannot
  // match themselves when the linter walks tools/.
  const std::string begin_marker =
      std::string("failpoint-registry-") + "begin";
  const std::string end_marker = std::string("failpoint-registry-") + "end";
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  bool inside = false;
  while (std::getline(in, raw)) {
    ++lineno;
    if (raw.find(begin_marker) != std::string::npos) {
      inside = true;
      continue;
    }
    if (raw.find(end_marker) != std::string::npos) break;
    if (!inside) continue;
    const std::string name = detail::first_quoted(raw);
    if (!name.empty()) entries.push_back(FailpointRegistryEntry{lineno, name});
  }
  return entries;
}

/// The cross-file pass: sites must use registered names, each name at
/// exactly one site, and every registered name must be used somewhere.
/// `registry_file` anchors unused-name findings (pass the path the registry
/// was read from; empty reports them at the first site's file).
inline std::vector<Finding> lint_failpoints(
    const std::vector<FailpointSite>& sites,
    const std::vector<FailpointRegistryEntry>& registry,
    const std::string& registry_file, const Rules& rules) {
  std::vector<Finding> findings;
  if (!rules.rule_on("failpoint-name")) return findings;
  std::set<std::string> registered;
  for (const auto& entry : registry) registered.insert(entry.name);
  std::map<std::string, const FailpointSite*> first_site;
  for (const auto& site : sites) {
    if (rules.exempted("failpoint-name", site.file)) continue;
    if (registered.count(site.name) == 0) {
      findings.push_back(Finding{
          site.file, site.line, "failpoint-name",
          "BPROM_FAILPOINT(\"" + site.name +
              "\") is not in the src/util/failpoint.cpp registry — add it "
              "between the failpoint-registry markers"});
      continue;
    }
    const auto [it, inserted] = first_site.emplace(site.name, &site);
    if (!inserted) {
      findings.push_back(Finding{
          site.file, site.line, "failpoint-name",
          "BPROM_FAILPOINT(\"" + site.name + "\") is also used at " +
              it->second->file + ":" + std::to_string(it->second->line) +
              " — each failpoint name targets exactly one site"});
    }
  }
  for (const auto& entry : registry) {
    if (first_site.count(entry.name) > 0) continue;
    findings.push_back(Finding{
        registry_file.empty() ? std::string("<registry>") : registry_file,
        entry.line, "failpoint-name",
        "registered failpoint \"" + entry.name +
            "\" has no BPROM_FAILPOINT site — remove the row or wire the "
            "site"});
  }
  return findings;
}

}  // namespace bprom::lint
