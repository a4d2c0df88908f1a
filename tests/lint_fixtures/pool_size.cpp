// bprom_lint fixture — NOT part of the build.  A line whose trailing
// comment is an expect marker — the word "expect" with the rule id in
// parentheses — must produce exactly that finding; every other line must
// stay clean.  tests/test_lint.cpp derives expectations from the markers,
// so line numbers never need maintaining by hand.
#include <cstddef>
#include <thread>

#include "util/thread_pool.hpp"

std::size_t shards_from_cores() {
  return std::thread::hardware_concurrency();  // expect(pool-size) expect(raw-thread)
}

std::size_t shards_from_pool() {
  return bprom::util::default_pool().size();  // expect(pool-size)
}

void own_pool() {
  bprom::util::ThreadPool pool(4);  // expect(pool-size)
  (void)pool;
}

std::size_t tolerated() {
  // bprom-lint: allow(pool-size) — a log line reports the pool size only.
  return bprom::util::default_pool().size();
}

void clean() {
  // A ThreadPool or default_pool() named in a comment is fine, as is the
  // string below; so are longer identifiers that embed the tokens.
  const char* doc = "never size work by hardware_concurrency()";
  (void)doc;
  const std::size_t default_pool_rows = 16;
  (void)default_pool_rows;
  bprom::util::parallel_for(default_pool_rows, [](std::size_t) {});
}
