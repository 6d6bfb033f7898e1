// Shared plumbing of the benchmark binary: percentiles that refuse tails the
// sample cannot support, the benchmark's own span recorder, the result line,
// and the per-workload parameters run.py passes in from workloads.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- percentiles -------------------------------------------------------------

/// A quantile together with the sample it came from.
struct Quantile {
  double value = 0;
  double q = 0;           ///< the quantile actually reported
  std::size_t samples = 0;
};

/// True when `n` samples support quantile `q`: at least one sample, and for
/// a tail (q > 0.5) at least 10 samples lie beyond it.
[[nodiscard]] bool quantile_supported(std::size_t n, double q);

/// The q-quantile of `v` (nearest rank on a sorted copy). Throws
/// std::invalid_argument when quantile_supported(v.size(), q) is false, so
/// a p99 from fewer than 1,000 samples is never reported.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Ledger-only tails: the highest quantile up to `q` that the sample
/// supports (the maximum when even the median has fewer than 10 beyond it).
/// The reported Quantile names which quantile it is.
[[nodiscard]] Quantile supported_tail(std::vector<double> v, double q);

[[nodiscard]] double median(std::vector<double> v);

// --- spans -------------------------------------------------------------------

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;     ///< 0 = root
  std::uint64_t request = 0;    ///< spans of one request share this id
};

/// In-memory span store, written out once at the end of a traced run.
/// Disabled recorders cost one branch per call. It keeps the first
/// kMaxSpans spans and counts the rest, so a long traced run cannot fill
/// memory or the disk (the ledger never reads spans back).
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 100'000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint32_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t request,
                       std::uint32_t parent = 0);

  /// Appends every span of `other` (per-thread recorders merge here).
  void absorb(const Tracer& other);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Tab-separated: name, start_ns, end_ns, id, parent, request.
  void write(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// --- result line -------------------------------------------------------------

/// Minimal JSON object writer; numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& obj(const std::string& key, const JsonObject& value);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// What one workload run produced. `metrics` holds the gated set for the
/// requested mode; `detail` carries everything else a reader needs (sample
/// counts, sizes, the paper-named per-workload metrics, ledger checks).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  JsonObject detail;
  std::vector<std::string> errors;  ///< first few correctness failures

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(std::uint64_t ops, const std::string& why);
};

/// The end-to-end metrics every workload reports (--trace 0), by name.
[[nodiscard]] const std::vector<std::string>& end_to_end_names();
/// The per-layer ledger every traced run reports (--trace 1), by name.
[[nodiscard]] const std::vector<std::string>& per_layer_names();
[[nodiscard]] std::string per_layer_unit(const std::string& name);

// --- parameters --------------------------------------------------------------

/// `--name value` pairs a workload reads; every read parameter must be
/// present, so workloads.json stays the single source of each setting.
class Params {
 public:
  void set(const std::string& name, const std::string& value) {
    values_[name] = value;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::string>& all() const noexcept {
    return values_;
  }

 private:
  [[nodiscard]] const std::string& get(const std::string& name) const;
  std::map<std::string, std::string> values_;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;  ///< working files; removed by the caller
  Params params;
};

/// Runs setup(r) for r in [0, reps) and returns the median wall time of one
/// call, in seconds.
double timed_setups(std::uint64_t reps, const std::function<void(std::uint64_t)>& setup);

/// Restarts the peak-RSS watermark (Linux clear_refs), so peak_rss_mb()
/// covers the timed phase and the inputs it holds, not set-up's transients.
void reset_peak_rss();

/// Peak resident set of this process since the last reset_peak_rss(), MB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over bytes: the byte-identity fingerprint of generated inputs.
[[nodiscard]] std::uint64_t fingerprint(const std::vector<std::uint8_t>& bytes);

Result run_fs_age(const RunArgs& args);
Result run_backref_query(const RunArgs& args);
Result run_service_mix(const RunArgs& args);

}  // namespace perfbench
