#include "service/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "service/volume_manager.hpp"
#include "util/clock.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace backlog::service {

namespace {

using util::appendf;
using util::json_escape;

/// MetricsPoller's windowed rates: the gauge each is published as, the
/// lifetime total it differences and the RateSample field it fills.
struct RateSeries {
  const char* gauge;
  const char* help;
  std::uint64_t (*total)(const TenantStats&);
  double RateSample::*rate;
};

const RateSeries kRates[] = {
    {"backlog_update_ops_per_sec",
     "Update ops applied per second (last window)",
     [](const TenantStats& t) { return t.updates; },
     &RateSample::update_ops_per_sec},
    {"backlog_queries_per_sec", "Queries served per second (last window)",
     [](const TenantStats& t) { return t.queries; },
     &RateSample::queries_per_sec},
    {"backlog_throttles_per_sec",
     "QoS throttle decisions (queued + rejected) per second",
     [](const TenantStats& t) {
       return t.throttle_queued + t.throttle_rejected;
     },
     &RateSample::throttles_per_sec},
    {"backlog_io_read_bytes_per_sec",
     "Cache-miss bytes read from storage per second",
     [](const TenantStats& t) { return t.io.bytes_read; },
     &RateSample::io_read_bytes_per_sec},
    {"backlog_io_write_bytes_per_sec", "Bytes written to storage per second",
     [](const TenantStats& t) { return t.io.bytes_written; },
     &RateSample::io_write_bytes_per_sec},
};

}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t slots)
    : slots_(slots == 0 ? 1 : slots) {}

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name,
                                                   const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(help, slots_);
  return *slot;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(const std::string& name,
                                               const std::string& help,
                                               const std::string& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name + "\x1f" + labels];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name, help, labels);
  return *slot;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(
    const std::string& name, const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(help, slots_);
  return *slot;
}

void fold(const HistogramCell& cell, LatencyHistogram& out) noexcept {
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t n = cell.buckets[i].load(std::memory_order_relaxed);
    if (n != 0) out.ingest_bucket(i, n);
  }
  out.ingest_sum_max(cell.sum.load(std::memory_order_relaxed),
                     cell.max.load(std::memory_order_relaxed));
}

std::string MetricsRegistry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);

  for (const auto& [name, c] : counters_) {
    out += "# HELP " + name + " " + c->help() + "\n";
    out += "# TYPE " + name + " counter\n";
    appendf(out, "%s %" PRIu64 "\n", name.c_str(), c->total());
  }

  // Gauges are keyed name+labels; emit one HELP/TYPE per family, then every
  // labeled series of that family (map order keeps a family contiguous).
  std::string prev_family;
  for (const auto& [key, g] : gauges_) {
    (void)key;
    if (g->name() != prev_family) {
      out += "# HELP " + g->name() + " " + g->help() + "\n";
      out += "# TYPE " + g->name() + " gauge\n";
      prev_family = g->name();
    }
    out += g->name();
    if (!g->labels().empty()) out += "{" + g->labels() + "}";
    appendf(out, " %.17g\n", g->value());
  }

  for (const auto& [name, h] : histograms_) {
    const LatencyHistogram merged = h->merged();
    const char* n = name.c_str();
    out += "# HELP " + name + " " + h->help() + "\n";
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (const HistogramBucket& b : merged.to_buckets()) {
      cum += b.count;
      // The top log2 bucket's bound is UINT64_MAX — fold it into +Inf
      // instead of emitting an unreadable 20-digit `le`.
      if (b.le_micros == UINT64_MAX) continue;
      appendf(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", n,
              b.le_micros, cum);
    }
    appendf(out,
            "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n%s_sum %" PRIu64
            "\n%s_count %" PRIu64 "\n",
            n, merged.count(), n, merged.sum_micros(), n, merged.count());
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  const char* sep = "";
  for (const auto& [name, c] : counters_) {
    appendf(out, "%s\"%s\":%" PRIu64, sep, json_escape(name).c_str(),
            c->total());
    sep = ",";
  }
  out += "},\"gauges\":[";
  sep = "";
  for (const auto& [key, g] : gauges_) {
    (void)key;
    appendf(out, "%s{\"name\":\"%s\",\"labels\":\"%s\",\"value\":%.17g}",
            sep, json_escape(g->name()).c_str(),
            json_escape(g->labels()).c_str(), g->value());
    sep = ",";
  }
  out += "],\"histograms\":{";
  sep = "";
  for (const auto& [name, h] : histograms_) {
    const LatencyHistogram m = h->merged();
    appendf(out,
            "%s\"%s\":{\"count\":%" PRIu64 ",\"sum_micros\":%" PRIu64
            ",\"max_micros\":%" PRIu64 ",\"p50\":%" PRIu64
            ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"buckets\":[",
            sep, json_escape(name).c_str(), m.count(), m.sum_micros(),
            m.max_micros(), m.p50(), m.p95(), m.p99());
    const char* bsep = "";
    for (const HistogramBucket& b : m.to_buckets()) {
      appendf(out, "%s{\"le_micros\":%" PRIu64 ",\"count\":%" PRIu64 "}",
              bsep, b.le_micros, b.count);
      bsep = ",";
    }
    out += "]}";
    sep = ",";
  }
  out += "}}";
  return out;
}

MetricsPoller::MetricsPoller(VolumeManager& vm) : vm_(vm) {
  MetricsRegistry& reg = vm.metrics();
  for (const RateSeries& r : kRates)
    g_rates_.push_back(&reg.gauge(r.gauge, r.help));
  // slots() counts one per shard plus the API slot.
  const std::size_t shards = reg.slots() - 1;
  g_busy_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    g_busy_.push_back(&reg.gauge(
        "backlog_shard_busy_fraction",
        "Fraction of wall time the shard thread spent executing tasks",
        "shard=\"" + std::to_string(i) + "\""));
  }
}

RateSample MetricsPoller::poll_once() { return poll_once(util::now_micros()); }

RateSample MetricsPoller::poll_once(std::uint64_t now_micros) {
  // Scrape outside mu_ — stats() gathers IoStats with a task per shard.
  const ServiceStats stats = vm_.stats();
  const auto loads = vm_.shard_loads();

  std::vector<std::uint64_t> totals;
  for (const RateSeries& r : kRates) totals.push_back(r.total(stats.total));

  const std::lock_guard<std::mutex> lock(mu_);
  RateSample s;
  s.at_micros = now_micros;
  s.shard_busy_fraction.assign(loads.size(), 0.0);

  if (primed_ && now_micros > prev_at_) {
    s.primed = true;
    const double dt =
        static_cast<double>(now_micros - prev_at_) / 1'000'000.0;
    s.window_seconds = dt;
    // The totals are lifetime totals and never go down; the clamp only
    // absorbs a scrape racing a volume's retirement (its Env bytes can be
    // seen both hosted and retired for one window).
    const auto rate = [dt](std::uint64_t now, std::uint64_t prev) {
      return now > prev ? static_cast<double>(now - prev) / dt : 0.0;
    };
    for (std::size_t i = 0; i < totals.size(); ++i)
      s.*kRates[i].rate = rate(totals[i], prev_totals_[i]);
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const std::uint64_t prev =
          i < prev_busy_.size() ? prev_busy_[i] : 0;
      const double busy =
          static_cast<double>(loads[i].busy_micros - prev) /
          static_cast<double>(now_micros - prev_at_);
      s.shard_busy_fraction[i] = busy < 0.0 ? 0.0 : (busy > 1.0 ? 1.0 : busy);
    }
  }

  primed_ = true;
  prev_at_ = now_micros;
  prev_totals_ = std::move(totals);
  prev_busy_.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    prev_busy_[i] = loads[i].busy_micros;
  }

  for (std::size_t i = 0; i < g_rates_.size(); ++i)
    g_rates_[i]->set(s.*kRates[i].rate);
  for (std::size_t i = 0; i < g_busy_.size(); ++i) {
    g_busy_[i]->set(i < s.shard_busy_fraction.size()
                        ? s.shard_busy_fraction[i]
                        : 0.0);
  }

  last_ = s;
  return s;
}

RateSample MetricsPoller::last() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

}  // namespace backlog::service
