#include "service/balancer.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/clock.hpp"

namespace backlog::service {

namespace {

/// (max - min) / total over per-shard loads; 0 for an idle fleet. Bounded
/// by 1 (everything on one shard) and 0 (perfectly even).
double imbalance_of(const std::vector<double>& loads) {
  double lo = loads.empty() ? 0 : loads[0], hi = lo, total = 0;
  for (const double l : loads) {
    lo = std::min(lo, l);
    hi = std::max(hi, l);
    total += l;
  }
  return total > 0 ? (hi - lo) / total : 0;
}

}  // namespace

Balancer::Balancer(VolumeManager& vm, BalancerPolicy policy)
    : vm_(vm),
      policy_(policy),
      metric_slot_(vm.metrics().slots() - 1),
      m_cycles_(&vm.metrics().counter("backlog_balancer_cycles_total",
                                      "Rebalancing cycles run")),
      m_moves_(&vm.metrics().counter("backlog_balancer_moves_total",
                                     "Volumes live-migrated by the balancer")),
      g_imbalance_(&vm.metrics().gauge(
          "backlog_balancer_imbalance",
          "Shard load imbalance (max-min)/total of the last cycle, 0..1")) {}

Balancer::~Balancer() { stop(); }

void Balancer::start() {
  if (tick_ == 0)
    tick_ = vm_.ticker().every(policy_.poll_interval, [this] { run_once(); });
}

void Balancer::stop() {
  vm_.ticker().cancel(tick_);
  tick_ = 0;
}

std::vector<BalancerMove> Balancer::run_once() {
  return run_once(util::now_micros());
}

std::vector<BalancerMove> Balancer::run_once(std::uint64_t now_micros) {
  std::lock_guard cycle(cycle_mu_);
  std::vector<BalancerMove> made;

  // --- 1. snapshot the load signals -----------------------------------------
  const auto shard_loads = vm_.shard_loads();
  const auto placements = vm_.placements();
  const std::size_t shards = shard_loads.size();
  if (shards < 2) {
    cycles_.fetch_add(1, std::memory_order_relaxed);
    m_cycles_->add(metric_slot_);
    return made;
  }

  // Per-volume rate since the previous cycle (first sighting counts the
  // whole counter: a fresh balancer sees recent history, which is what it
  // should react to).
  struct Candidate {
    std::string tenant;
    std::size_t shard;
    double contribution;
  };
  std::vector<Candidate> cands;
  cands.reserve(placements.size());
  std::map<std::string, std::uint64_t> next_prev;
  std::vector<double> rate(shards, 0);
  for (const auto& p : placements) {
    const auto it = prev_ops_.find(p.tenant);
    const std::uint64_t delta =
        it == prev_ops_.end() ? p.dispatched_ops
                              : p.dispatched_ops - std::min(it->second,
                                                            p.dispatched_ops);
    next_prev[p.tenant] = p.dispatched_ops;
    rate[p.shard] += static_cast<double>(delta);
    cands.push_back({p.tenant, p.shard, static_cast<double>(delta)});
  }
  prev_ops_ = std::move(next_prev);

  // --- 2. score the shards ---------------------------------------------------
  std::vector<double> load(shards, 0);
  double total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    load[s] = rate[s] + static_cast<double>(shard_loads[s].queue_depth);
    if (policy_.latency_weighted) {
      load[s] *= static_cast<double>(
          std::max<std::uint64_t>(1, shard_loads[s].latency_ewma_micros));
    }
    total += load[s];
  }
  for (auto& c : cands) {
    if (policy_.latency_weighted) {
      c.contribution *= static_cast<double>(std::max<std::uint64_t>(
          1, shard_loads[c.shard].latency_ewma_micros));
    }
  }

  last_imbalance_.store(imbalance_of(load), std::memory_order_relaxed);
  g_imbalance_->set(imbalance_of(load));
  cycles_.fetch_add(1, std::memory_order_relaxed);
  m_cycles_->add(metric_slot_);
  if (total < policy_.min_load_to_act) return made;

  // --- 3. move volumes until the band is met or the budget is spent ---------
  while (made.size() < policy_.max_moves_per_cycle) {
    std::size_t hot = 0, cool = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] > load[hot]) hot = s;
      if (load[s] < load[cool]) cool = s;
    }
    if (load[hot] <= 0) break;
    if (load[cool] > 0 && load[hot] <= policy_.hysteresis * load[cool]) break;
    const double gap = load[hot] - load[cool];

    // Best fit: the largest contributor on the hot shard that fits in half
    // the gap (moving it can't invert hot and cool), eligible (not cooling
    // down, actually contributing).
    Candidate* best = nullptr;
    for (auto& c : cands) {
      if (c.shard != hot || c.contribution <= 0) continue;
      if (c.contribution > gap / 2) continue;
      const auto lm = last_move_micros_.find(c.tenant);
      if (lm != last_move_micros_.end() &&
          now_micros - lm->second <
              static_cast<std::uint64_t>(policy_.cooldown.count()) * 1000) {
        continue;
      }
      if (best == nullptr || c.contribution > best->contribution) best = &c;
    }
    if (best == nullptr) break;

    const double before = imbalance_of(load);
    MigrationStats ms;
    try {
      ms = vm_.migrate_volume(best->tenant, cool, /*require_clean=*/true);
    } catch (const std::exception&) {
      // Volume closed, or a handoff (ours from a past cycle, or an explicit
      // caller's) is in flight — drop the candidate for this cycle.
      best->contribution = 0;
      continue;
    }
    if (!ms.moved) {
      // Dirty (mid-CP-window) — reconsider next cycle, try another volume.
      best->contribution = 0;
      continue;
    }
    load[hot] -= best->contribution;
    load[cool] += best->contribution;
    best->shard = cool;
    last_move_micros_[best->tenant] = now_micros;
    const double after = imbalance_of(load);
    made.push_back(
        {best->tenant, hot, cool, before, after, now_micros});
    moves_.fetch_add(1, std::memory_order_relaxed);
    m_moves_->add(metric_slot_);
    last_imbalance_.store(after, std::memory_order_relaxed);
    g_imbalance_->set(after);
  }

  history_.insert(history_.end(), made.begin(), made.end());
  // Bounded: a long-lived balancer must not grow (or copy) without limit.
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(kMaxHistory));
  }
  return made;
}

std::vector<BalancerMove> Balancer::history() const {
  std::lock_guard lock(cycle_mu_);
  return history_;
}

}  // namespace backlog::service
