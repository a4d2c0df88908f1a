#include "util/failpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace bprom::util {

namespace detail {
// relaxed: justified in failpoint.hpp — arm/disarm visibility only.
std::atomic<std::uint32_t> g_armed_count{0};
}  // namespace detail

namespace {

/// Every failpoint site name compiled into the tree.  tools/bprom_lint
/// cross-checks BPROM_FAILPOINT(...) call sites against this table (and
/// vice versa), keyed on the marker comments — keep one name per line.
const char* const kRegistry[] = {
    // failpoint-registry-begin
    "io.read.open",           // Reader::from_file: fail the open
    "io.read.short",          // Reader::from_file: truncate the read
    "io.save.open",           // Writer::save_file: fail opening the temp file
    "io.save.write",          // Writer::save_file: fail/shorten the write
    "io.save.fsync.file",     // Writer::save_file: fail fsync of the temp file
    "io.save.rename",         // Writer::save_file: fail/crash at rename
    "io.save.fsync.dir",      // Writer::save_file: fail fsync of the parent dir
    "store.lock.crash",       // StoreLock: crash while holding the lock
    "net.connect",            // net::connect_to (every client connect)
    "net.send",               // net::send_all (every client send)
    "net.recv",               // net::recv_some (every client recv)
    "net.recv.stall",         // net::recv_some: delay before reading
    // failpoint-registry-end
};

enum class TriggerKind : std::uint8_t { kAlways, kNth, kEveryK, kProb };

struct PointState {
  TriggerKind trigger = TriggerKind::kAlways;
  std::uint64_t n = 0;          // kNth: 1-based hit index; kEveryK: period
  double prob = 0.0;            // kProb
  Rng rng{0};                   // kProb: seeded, deterministic
  FailpointAction action = FailpointAction::kNone;
  std::uint64_t arg = 0;
  std::uint64_t hits = 0;       // evaluations while armed
  bool fired_once = false;      // kNth: already fired
};

Mutex g_mu;
// Arming happens a handful of times per process, never on a hot path, so a
// node-based ordered map is fine here.
std::map<std::string, PointState>& points() BPROM_REQUIRES(g_mu) {
  static std::map<std::string, PointState> m;
  return m;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool parse_action(const std::string& text, PointState* st,
                  std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (text == "err") {
    st->action = FailpointAction::kError;
    return true;
  }
  if (text.rfind("short:", 0) == 0) {
    st->action = FailpointAction::kShort;
    if (!parse_u64(text.substr(6), &st->arg))
      return fail("bad short: byte count in '" + text + "'");
    return true;
  }
  if (text.rfind("delay:", 0) == 0) {
    st->action = FailpointAction::kDelay;
    if (!parse_u64(text.substr(6), &st->arg))
      return fail("bad delay: millisecond count in '" + text + "'");
    return true;
  }
  if (text.rfind("exit:", 0) == 0) {
    st->action = FailpointAction::kExit;
    if (!parse_u64(text.substr(5), &st->arg))
      return fail("bad exit: code in '" + text + "'");
    return true;
  }
  return fail("unknown action '" + text + "'");
}

bool parse_trigger(const std::string& text, PointState* st,
                   std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  if (text.rfind("every:", 0) == 0) {
    st->trigger = TriggerKind::kEveryK;
    if (!parse_u64(text.substr(6), &st->n) || st->n == 0)
      return fail("bad every: period in '" + text + "'");
    return true;
  }
  if (text.rfind("p:", 0) == 0) {
    const std::size_t colon = text.find(':', 2);
    if (colon == std::string::npos)
      return fail("p: trigger needs p:PROB:SEED in '" + text + "'");
    const std::string prob = text.substr(2, colon - 2);
    std::uint64_t seed = 0;
    if (!parse_u64(text.substr(colon + 1), &seed))
      return fail("bad p: seed in '" + text + "'");
    char* end = nullptr;
    st->prob = std::strtod(prob.c_str(), &end);
    if (end == prob.c_str() || *end != '\0' || st->prob < 0.0 ||
        st->prob > 1.0)
      return fail("bad p: probability in '" + text + "'");
    st->trigger = TriggerKind::kProb;
    st->rng = Rng(seed);
    return true;
  }
  st->trigger = TriggerKind::kNth;
  if (!parse_u64(text, &st->n) || st->n == 0)
    return fail("bad trigger '" + text + "' (want N, every:K, or p:P:S)");
  return true;
}

/// One `name=...` entry.
bool parse_entry(const std::string& entry,
                 std::map<std::string, PointState>* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0)
    return fail("entry '" + entry + "' is not name=action");
  const std::string name = entry.substr(0, eq);
  if (!failpoint_registered(name))
    return fail("unknown failpoint '" + name + "'");
  PointState st;
  std::string rhs = entry.substr(eq + 1);
  const std::size_t arrow = rhs.find("->");
  if (arrow != std::string::npos) {
    if (!parse_trigger(rhs.substr(0, arrow), &st, error)) return false;
    rhs = rhs.substr(arrow + 2);
  }
  if (!parse_action(rhs, &st, error)) return false;
  (*out)[name] = st;
  return true;
}

}  // namespace

bool failpoint_registered(const std::string& name) {
  for (const char* reg : kRegistry)
    if (name == reg) return true;
  return false;
}

std::vector<std::string> failpoint_names() {
  std::vector<std::string> names(std::begin(kRegistry), std::end(kRegistry));
  std::sort(names.begin(), names.end());
  return names;
}

bool failpoints_arm(const std::string& spec, std::string* error) {
  std::map<std::string, PointState> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    if (!entry.empty() && !parse_entry(entry, &parsed, error)) return false;
    start = end + 1;
  }
  MutexLock lock(g_mu);
  points() = std::move(parsed);
  // relaxed: justified in failpoint.hpp.
  detail::g_armed_count.store(
      static_cast<std::uint32_t>(points().size()), std::memory_order_relaxed);
  return true;
}

void failpoints_clear() {
  MutexLock lock(g_mu);
  points().clear();
  // relaxed: justified in failpoint.hpp.
  detail::g_armed_count.store(0, std::memory_order_relaxed);
}

std::uint64_t failpoint_hits(const std::string& name) {
  MutexLock lock(g_mu);
  const auto it = points().find(name);
  return it == points().end() ? 0 : it->second.hits;
}

FailpointHit failpoint_eval(const char* name) {
  FailpointHit hit;
  {
    MutexLock lock(g_mu);
    const auto it = points().find(name);
    if (it == points().end()) return hit;
    PointState& st = it->second;
    ++st.hits;
    bool fire = false;
    switch (st.trigger) {
      case TriggerKind::kAlways:
        fire = true;
        break;
      case TriggerKind::kNth:
        fire = !st.fired_once && st.hits == st.n;
        if (fire) st.fired_once = true;
        break;
      case TriggerKind::kEveryK:
        fire = st.hits % st.n == 0;
        break;
      case TriggerKind::kProb:
        fire = st.rng.bernoulli(st.prob);
        break;
    }
    if (!fire) return hit;
    hit.action = st.action;
    hit.arg = st.arg;
  }
  if (hit.action == FailpointAction::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hit.arg));
    return FailpointHit{};  // delay is transparent to the site
  }
  if (hit.action == FailpointAction::kExit) {
    // Simulated crash: no atexit handlers, no flushing, no unwinding —
    // exactly what SIGKILL or a power cut leaves behind.
    _exit(static_cast<int>(hit.arg));
  }
  return hit;
}

void failpoints_arm_from_env() {
  static bool done = false;  // idempotence; races are benign (same spec)
  if (done) return;
  done = true;
  const char* spec = std::getenv("BPROM_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return;
  std::string error;
  if (!failpoints_arm(spec, &error)) {
    std::fprintf(stderr, "BPROM_FAILPOINTS: %s\n", error.c_str());
    std::abort();  // a typo'd scenario must not silently run fault-free
  }
}

namespace {
/// Arm from the environment as early as dynamic initialization allows.
/// Code needing a stronger guarantee calls failpoints_arm_from_env() itself.
const bool g_env_armed = (failpoints_arm_from_env(), true);
}  // namespace

}  // namespace bprom::util
