// The benchmark's own tests: the percentile helper's refusal rule, due-time
// timing of the open-loop pacer, and byte-identical inputs from one seed.
// Run: ctest --test-dir .bench_build/perfbench (or the binary directly).
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_refuses_unsupported_p99() {
  // 999 samples leave fewer than 10 beyond the p99; 1,000 leave exactly 10.
  CHECK(throws([] { (void)percentile(ramp(999), 0.99); }));
  CHECK(percentile(ramp(1000), 0.99) == 990.0);
  CHECK(throws([] { (void)percentile({}, 0.5); }));
  CHECK(percentile(ramp(1), 0.5) == 1.0);
  CHECK(percentile(ramp(100), 0.5) == 50.0);
  // The ledger fallback names the quantile it could support instead.
  const Quantile t = supported_tail(ramp(200), 0.99);
  CHECK(t.q == 0.95 && t.value == 190.0 && t.samples == 200);
  CHECK(supported_tail(ramp(5), 0.99).value == 5.0);
}

void open_loop_times_from_due_time() {
  using namespace std::chrono_literals;
  constexpr std::uint64_t kMs = 1'000'000;
  // Request 0 stalls for 50 ms; requests 1 and 2 were due at 10 and 20 ms,
  // so they leave late and their latency includes the wait for the stall.
  const std::vector<std::uint64_t> due = {0, 10 * kMs, 20 * kMs};
  std::vector<std::uint64_t> sent(due.size());
  const std::uint64_t start = now_ns() + 5 * kMs;
  const auto timing = run_open_loop(due, start, [&](std::size_t i) {
    sent[i] = now_ns();
    if (i == 0) std::this_thread::sleep_for(50ms);
  });
  CHECK(timing.size() == 3);
  CHECK(timing[0].latency_ns >= 50 * kMs);
  CHECK(timing[1].late_ns >= 39 * kMs);
  CHECK(timing[1].latency_ns >= 39 * kMs);            // from due, not from send
  CHECK(timing[1].latency_ns >= sent[1] - (start + due[1]));
  CHECK(timing[2].latency_ns >= 29 * kMs);
  // Nothing is sent before it is due.
  for (std::size_t i = 0; i < due.size(); ++i) CHECK(sent[i] >= start + due[i]);
}

void same_seed_same_bytes() {
  const AgeRecord a = record_aging(5, 12, 500);
  const AgeRecord b = record_aging(5, 12, 500);
  const AgeRecord c = record_aging(6, 12, 500);
  CHECK(!a.ops.empty() && !a.truth.empty());
  CHECK(a.serialize() == b.serialize());
  CHECK(a.serialize() != c.serialize());

  std::vector<backlog::core::BlockNo> allocated;
  for (backlog::core::BlockNo blk = 1; blk < 5000; blk += 3) allocated.push_back(blk);
  const auto q1 = make_query_runs(9, 4000, allocated, 5000);
  const auto q2 = make_query_runs(9, 4000, allocated, 5000);
  CHECK(q1.size() == q2.size());
  for (std::size_t i = 0; i < q1.size() && i < q2.size(); ++i)
    CHECK(q1[i].first == q2[i].first && q1[i].length == q2[i].length);

  MixOptions mo;
  mo.seed = 3;
  mo.offered_ops_per_s = 4000;
  mo.seconds = 2;
  const MixPlan p1 = make_mix_plan(mo);
  const MixPlan p2 = make_mix_plan(mo);
  CHECK(p1.block_ops > 7990 && p1.block_ops <= 8000);  // per-tenant shares round down
  CHECK(p1.serialize() == p2.serialize());
  mo.seed = 4;
  CHECK(make_mix_plan(mo).serialize() != p1.serialize());
}

}  // namespace

int main() {
  percentile_refuses_unsupported_p99();
  open_loop_times_from_due_time();
  same_seed_same_bytes();
  if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
