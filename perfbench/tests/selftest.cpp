// perfbench self-test: every workload at a tiny size passes its own gate,
// and the gate reports a failed operation when a result is tampered with or
// the model cache is stale.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cache.hpp"
#include "campaign/engine.hpp"
#include "flow.hpp"
#include "snn/serialization.hpp"
#include "util/json.hpp"
#include "zoo/model_zoo.hpp"

namespace {

using namespace perfbench;
using namespace snntest;

std::string cache_dir() {
  static const std::string dir = [] {
    // Relative to the working directory (run.py runs the self-test inside
    // its build directory), so the self-test writes nothing elsewhere.
    const auto path = std::filesystem::absolute("perfbench_selftest_cache");
    std::filesystem::remove_all(path);
    prepare_cache(path.string(), 0.02);  // tiny training budget
    return path.string();
  }();
  return dir;
}

WorkloadSpec tiny(WorkloadSpec w) {
  w.gen_steps = 8;
  w.gen_iterations = 1;
  w.faultsim_faults = 300;
  w.classify_faults = 100;
  w.classify_samples = 2;
  w.dict_faults = 300;
  w.dict_samples = 2;
  w.gate_pairs = 6;
  w.route_stimuli = 1;
  w.warm_passes = 2;
  w.schedule_passes = 2;
  return w;
}

RunConfig tiny_config(const std::string& dir) {
  RunConfig cfg;
  cfg.seed = 7;
  cfg.seconds = 0.0;
  cfg.threads = 2;
  cfg.cache_dir = dir;
  cfg.setup_burst_seconds = 0.0;  // one setup per burst
  cfg.min_repeats = 2;  // two repeats, so the digest checks run
  return cfg;
}

std::set<std::string> names_of(const std::vector<Metric>& metrics) {
  std::set<std::string> out;
  for (const auto& m : metrics) out.insert(m.name);
  return out;
}

std::set<std::string> names_of(const std::vector<std::pair<std::string, std::string>>& names) {
  std::set<std::string> out;
  for (const auto& [name, unit] : names) out.insert(name);
  return out;
}

TEST(PerfbenchSelfTest, EveryWorkloadPassesItsGateAtTinySize) {
  for (const auto& w : workloads()) {
    for (bool trace : {false, true}) {
      RunConfig cfg = tiny_config(cache_dir());
      cfg.trace = trace;
      const RunReport report = run_workload(tiny(w), cfg);
      EXPECT_GT(report.gate.attempted, 0u) << w.name;
      EXPECT_EQ(report.gate.failed, 0u)
          << w.name << " trace=" << trace << ": "
          << (report.gate.failures.empty() ? "" : report.gate.failures.front());
      EXPECT_EQ(names_of(report.metrics),
                names_of(trace ? per_layer_metric_names() : end_to_end_metric_names()))
          << w.name << " trace=" << trace;
    }
  }
}

TEST(PerfbenchSelfTest, BenchmarkJsonDeclaresEveryMetricAndWorkload) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const auto bench = util::parse_json(ss.str());
  auto declared = [&](const char* key) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& m : bench.at(key).array) out.emplace_back(m.at("name").str, m.at("unit").str);
    return out;
  };
  EXPECT_EQ(declared("end_to_end"), end_to_end_metric_names());
  EXPECT_EQ(declared("per_layer"), per_layer_metric_names());
  std::vector<std::string> names;
  for (const auto& w : bench.at("workloads").array) names.push_back(w.at("name").str);
  std::vector<std::string> expected;
  for (const auto& w : workloads()) expected.push_back(w.name);
  EXPECT_EQ(names, expected);
}

TEST(PerfbenchSelfTest, GateFailsWhenOneFieldOfOneResultIsFlipped) {
  RunConfig cfg = tiny_config(cache_dir());
  const RunReport clean = run_workload(tiny(workloads().front()), cfg);
  ASSERT_EQ(clean.gate.failed, 0u);
  cfg.tamper = [](std::vector<fault::DetectionResult>& results, const std::vector<size_t>& picks) {
    results.at(picks.at(0)).first_detection_frame += 1;
  };
  const RunReport tampered = run_workload(tiny(workloads().front()), cfg);
  EXPECT_EQ(tampered.gate.attempted, clean.gate.attempted);
  EXPECT_EQ(tampered.gate.failed, 1u);
}

TEST(PerfbenchSelfTest, ReferenceCheckCatchesEveryField) {
  const auto bundle = load_cached_model(cache_dir(), zoo::BenchmarkId::kShd);
  snn::Network net(bundle.network);
  auto faults = fault::enumerate_faults(net);
  faults.resize(40);
  const tensor::Tensor stimulus = bundle.test->get(0).input;
  campaign::EngineConfig engine;
  engine.num_threads = 2;
  const auto results = campaign::run_campaign(net, stimulus, faults, engine).results;
  std::vector<size_t> all(faults.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  GateTally clean;
  check_against_reference(net, stimulus, faults, all, results, "clean", clean);
  EXPECT_EQ(clean.attempted, faults.size());
  EXPECT_EQ(clean.failed, 0u);

  const std::function<void(fault::DetectionResult&)> flips[] = {
      [](fault::DetectionResult& r) { r.detected = !r.detected; },
      [](fault::DetectionResult& r) { r.output_l1 += 1.0; },
      [](fault::DetectionResult& r) { r.first_detection_frame += 1; },
      [](fault::DetectionResult& r) { r.class_count_diff.at(0) += 1; },
  };
  for (const auto& flip : flips) {
    auto copy = results;
    flip(copy[3]);
    GateTally tally;
    check_against_reference(net, stimulus, faults, all, copy, "flipped", tally);
    EXPECT_EQ(tally.failed, 1u);
  }
}

TEST(PerfbenchSelfTest, StaleModelCacheFailsTheRun) {
  const auto stale = std::filesystem::absolute("perfbench_selftest_stale");
  std::filesystem::remove_all(stale);
  std::filesystem::copy(cache_dir(), stale, std::filesystem::copy_options::recursive);
  // A differently initialized network under the cached model's name.
  const auto id = zoo::BenchmarkId::kNmnist;
  snn::save_network(zoo::make_network(id, 7), model_cache_file(stale.string(), id));

  const RunReport report = run_workload(tiny(workloads().front()), tiny_config(stale.string()));
  EXPECT_GE(report.gate.failed, 1u);
  EXPECT_TRUE(report.metrics.empty());
  std::filesystem::remove_all(stale);
}

}  // namespace
