// perfbench — the repository's benchmark: one workload per run, driven
// through the library's public API, with a correctness gate after the timed
// region. Usually started through perfbench/run.py, which builds this
// binary and runs the prepare step first.
//
//   perfbench --workload paper-nmnist --seed 1 --seconds 20 --trace 0
//   perfbench --prepare 1                      # train models, generate SHD stimulus
//
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it records the run's provenance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "cache.hpp"
#include "flow.hpp"
#include "spans.hpp"
#include "tensor/simd.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace snntest;

namespace {

std::string provenance_json(const perfbench::WorkloadSpec& spec, const perfbench::RunConfig& cfg,
                            const std::string& commit) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%s,"
                "\"simd_backend\":\"%s\",\"nproc\":%u,\"threads\":%zu,"
                "\"compiler\":\"%s\",\"build_type\":\"%s\",\"git_commit\":\"%s\"}",
                spec.name.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? "true" : "false",
                tensor::simd::backend_name(tensor::simd::active_backend()),
                std::thread::hardware_concurrency(), cfg.threads,
                util::json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
                util::json_escape(commit).c_str());
  return buf;
}

std::string result_json(const perfbench::RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.gate.ok() && report.gate.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.gate.attempted);
  out += ", \"failed\": " + std::to_string(report.gate.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.12g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}}";
}

int run(const util::CliParser& cli) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "error: perfbench was built as '%s'; only Release builds are measured\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // The benchmark owns its cache; a caller's SNNTEST_CACHE_DIR must not
  // redirect model loads to a foreign cache.
  unsetenv("SNNTEST_CACHE_DIR");
  const std::string cache_dir = cli.get("cache-dir");
  if (cli.get_bool("prepare")) {
    perfbench::prepare_cache(cache_dir);
    return 0;
  }

  const perfbench::WorkloadSpec* spec = perfbench::find_workload(cli.get("workload"));
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s' (expect", cli.get("workload").c_str());
    for (const auto& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  perfbench::RunConfig cfg;
  cfg.seed = cli.get_size("seed");
  cfg.seconds = cli.get_double("seconds");
  cfg.trace = cli.get_bool("trace");
  // One core below the 4-core host's count: with a thread on every core, a
  // single busy neighbour stalls the parallel stages' wall time.
  cfg.threads = std::min<size_t>(3, std::max(1u, std::thread::hardware_concurrency()));
  cfg.cache_dir = cache_dir;

  const std::string provenance = provenance_json(*spec, cfg, cli.get("git-commit"));
  const perfbench::RunReport report = perfbench::run_workload(*spec, cfg);
  for (const auto& f : report.gate.failures) std::fprintf(stderr, "gate: FAILED %s\n", f.c_str());
  std::fprintf(stderr, "gate: %zu/%zu operations passed over %zu repeats\n",
               report.gate.attempted - report.gate.failed, report.gate.attempted, report.repeats);

  if (cfg.trace) {
    const std::string path =
        cache_dir + "/traces/" + spec->name + "-seed" + std::to_string(cfg.seed) + ".json";
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << perfbench::Tracer::instance().chrome_trace_json(provenance) << "\n";
    std::fprintf(stderr, "trace: %zu spans written to %s\n",
                 perfbench::Tracer::instance().spans().size(), path.c_str());
  }
  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::printf("%s\n", result_json(report).c_str());
  return report.gate.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli({{"workload", "paper-nmnist"},
                       {"seed", "1"},
                       {"seconds", "10"},
                       {"trace", "0"},
                       {"cache-dir", ".bench_build/cache"},
                       {"git-commit", "unknown"},
                       {"prepare", "0"}},
                      "Paper-flow and coverage-database benchmark.");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
