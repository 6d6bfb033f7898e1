#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

// --- percentiles -------------------------------------------------------------

bool quantile_supported(std::size_t n, double q) {
  if (n == 0 || q <= 0 || q > 1) return false;
  if (q <= 0.5) return true;
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

namespace {
double nearest_rank(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (!quantile_supported(v.size(), q)) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "percentile: %zu samples cannot support q=%.4f "
                  "(need 10 beyond it)",
                  v.size(), q);
    throw std::invalid_argument(msg);
  }
  return nearest_rank(v, q);
}

Quantile supported_tail(std::vector<double> v, double q) {
  Quantile out;
  out.samples = v.size();
  if (v.empty()) return out;
  if (quantile_supported(v.size(), q)) {
    out.q = q;
  } else if (v.size() >= 20) {
    out.q = 1.0 - 10.0 / static_cast<double>(v.size());
  } else {
    out.q = 1.0;  // the maximum: no quantile has 10 samples beyond it
  }
  out.value = nearest_rank(v, out.q);
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// --- spans -------------------------------------------------------------------

std::uint32_t Tracer::record(const char* name, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t request,
                             std::uint32_t parent) {
  if (!enabled_) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
  return id;
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  dropped_ += other.dropped_;
  for (Span s : other.spans_) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      continue;
    }
    s.id += base;
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

void Tracer::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "# " << spans_.size() << " spans kept, " << dropped_ << " dropped\n";
  out << "name\tstart_ns\tend_ns\tid\tparent\trequest\n";
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

// --- result line -------------------------------------------------------------

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + backlog::util::json_escape(k) + "\":";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"' + backlog::util::json_escape(value) + '"';
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::obj(const std::string& k, const JsonObject& value) {
  key(k);
  body_ += value.text();
  return *this;
}

void Result::fail(std::uint64_t ops, const std::string& why) {
  correct = false;
  failed += ops;
  if (errors.size() < 8) errors.push_back(why);
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> kNames = {
      "setup_s", "op_us_p50", "ops_per_s", "io_pages_per_op",
      "space_overhead_pct", "peak_rss_mb"};
  return kNames;
}

namespace {
// name -> unit of every per-layer metric. A workload that does not exercise
// a layer reports 0 for it and lists the name under detail.not_exercised.
const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"core.apply_many_ns_per_op", "ns"},
      {"core.ws_cancel_fraction", "fraction"},
      {"core.cp_self_ms_p50", "ms"},
      {"core.maintain_self_ms_p50", "ms"},
      {"core.maintain_purged_fraction", "fraction"},
      {"core.query_self_us_p50", "us"},
      {"core.l0_runs_mean", "count"},
      {"core.result_cache.hit_ratio", "fraction"},
      {"core.result_cache.stale_fraction", "fraction"},
      {"lsm.runs_per_cp", "count"},
      {"lsm.bytes_per_record", "B"},
      {"lsm.maintain_pages_read_per_op", "pages/op"},
      {"lsm.maintain_pages_written_per_op", "pages/op"},
      {"storage.cp_io_ms_p50", "ms"},
      {"storage.bytes_written_per_op", "B/op"},
      {"storage.page_reads_per_query", "pages"},
      {"storage.io_us_per_query", "us"},
      {"storage.block_cache.hit_ratio", "fraction"},
      {"storage.block_cache.evictions_per_query", "count"},
      {"storage.fsync_us_mean", "us"},
      {"storage.fsyncs_per_kop", "count"},
      {"service.queue_wait_us_p50", "us"},
      {"service.queue_wait_us_p99", "us"},
      {"service.update_exec_us_p50", "us"},
      {"service.query_exec_us_p50", "us"},
      {"service.cp_us_p99", "us"},
      {"service.wal_records_per_sync", "count"},
      {"service.shard_busy_fraction", "fraction"},
      {"service.maintenance_runs", "count"},
      {"service.maintenance_ms_p99", "ms"},
      {"service.unattributed_us_p50", "us"},
      {"net.rpc_overhead_us_p50", "us"},
      {"net.bytes_per_op", "B/op"},
      {"net.decode_errors", "count"},
      {"gen.late_us_p99", "us"},
      {"ledger.cp_unattributed_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kTable;
}
}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> out;
    for (const auto& [name, unit] : per_layer_table()) out.push_back(name);
    return out;
  }();
  return kNames;
}

std::string per_layer_unit(const std::string& name) {
  for (const auto& [n, unit] : per_layer_table()) {
    if (n == name) return unit;
  }
  throw std::invalid_argument("unknown per-layer metric " + name);
}

// --- parameters --------------------------------------------------------------

const std::string& Params::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::invalid_argument("missing workload parameter --" + name);
  return it->second;
}

std::uint64_t Params::u64(const std::string& name) const {
  const std::string& v = get(name);
  std::size_t used = 0;
  const unsigned long long x = std::stoull(v, &used);
  if (used != v.size()) throw std::invalid_argument("bad --" + name + " " + v);
  return x;
}

double Params::f64(const std::string& name) const {
  const std::string& v = get(name);
  std::size_t used = 0;
  const double x = std::stod(v, &used);
  if (used != v.size()) throw std::invalid_argument("bad --" + name + " " + v);
  return x;
}

double timed_setups(std::uint64_t reps,
                    const std::function<void(std::uint64_t)>& setup) {
  std::vector<double> seconds;
  for (std::uint64_t r = 0; r < std::max<std::uint64_t>(1, reps); ++r) {
    const std::uint64_t t0 = now_ns();
    setup(r);
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(seconds);
}

void reset_peak_rss() {
  ::malloc_trim(0);  // hand set-up's freed heap back first
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};  // no procfs: the lifetime peak
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB
}

std::uint64_t fingerprint(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
