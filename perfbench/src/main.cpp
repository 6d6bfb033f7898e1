// perfbench — one workload run of the repository benchmark.
//
//   perfbench --workload <fs_age|backref_query|service_mix> --seed N
//             --seconds S --trace <0|1> --workdir DIR [--<param> V ...]
//
// run.py builds this binary and passes each workload's parameters from
// workloads.json. stdout ends with two lines: `DETAIL {...}` (sizes, sample
// counts, the paper-named metrics, ledger checks) and the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 only when
// every correctness check passed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--param value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return usage();
      const std::string name = argv[i] + 2;
      const std::string value = argv[++i];
      if (name == "workload") {
        args.workload = value;
      } else if (name == "seed") {
        args.seed = std::stoull(value);
      } else if (name == "seconds") {
        args.seconds = std::stod(value);
      } else if (name == "trace") {
        args.trace = value == "1";
      } else if (name == "workdir") {
        args.workdir = value;
      } else {
        args.params.set(name, value);
      }
    }
    if (args.workload.empty() || args.workdir.empty() || args.seconds <= 0)
      return usage();
    std::filesystem::create_directories(args.workdir);

    Result result;
    if (args.workload == "fs_age") {
      result = run_fs_age(args);
    } else if (args.workload == "backref_query") {
      result = run_backref_query(args);
    } else if (args.workload == "service_mix") {
      result = run_service_mix(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }

    JsonObject metrics;
    JsonObject not_exercised;
    if (!args.trace) {
      for (const std::string& name : end_to_end_names()) {
        const auto it = result.metrics.find(name);
        if (it == result.metrics.end())
          throw std::logic_error("workload did not measure " + name);
        metrics.obj(name, JsonObject()
                              .num("value", it->second.first)
                              .str("unit", it->second.second));
      }
    } else {
      // A layer this workload does not call into reads 0 and is named here.
      std::size_t n = 0;
      for (const std::string& name : per_layer_names()) {
        const auto it = result.metrics.find(name);
        double value = 0;
        if (it != result.metrics.end()) {
          value = it->second.first;
        } else {
          not_exercised.str(std::to_string(n++), name);
        }
        metrics.obj(name, JsonObject().num("value", value).str("unit", per_layer_unit(name)));
      }
    }

    JsonObject params, errors;
    for (const auto& [k, v] : args.params.all()) params.str(k, v);
    for (std::size_t i = 0; i < result.errors.size(); ++i)
      errors.str(std::to_string(i), result.errors[i]);
    result.detail.str("workload", args.workload)
        .num("seed", static_cast<double>(args.seed))
        .num("seconds", args.seconds)
        .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
        .obj("params", params)
        .obj("errors", errors);
    if (args.trace) result.detail.obj("not_exercised", not_exercised);
    std::printf("DETAIL %s\n", result.detail.text().c_str());

    JsonObject line;
    line.boolean("correct", result.correct && result.failed == 0)
        .num("attempted", static_cast<double>(result.attempted))
        .num("failed", static_cast<double>(result.failed))
        .obj("metrics", metrics);
    std::printf("%s\n", line.text().c_str());
    std::fflush(stdout);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
