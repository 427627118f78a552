// The benchmark's workloads: the paper's flow plus the coverage database,
// driven through the library's public API on one zoo model each.
//
// Every workload runs the same stage sequence, so every end-to-end metric
// exists on every workload; the input mix and sizes decide which layers do
// the work (see perfbench/README.md for each workload's "why"):
//
//   setup      warm model load, datasets, fault enumeration and sampling,
//              cached-stimulus load (run several times, median reported)
//   generate   core::TestGenerator (one restart on one thread; on the coverage
//              workloads a fixed-seed probe with one restart per thread)
//   faultsim   campaign::run_campaign of the generated stimulus (Eq. (3))
//   classify   fault::classify_faults on dataset test samples, then the
//              coverage report (critical-fault coverage)
//   dict_build cold coverage::run_incremental_campaign over every dictionary
//              stimulus into an empty dictionary, then save
//   dict_warm  load plus a warm re-run (zero simulations)
//   schedule   minimize_schedule -> schedule_as_dictionary -> replay_schedule
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "gate.hpp"
#include "zoo/model_zoo.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  snntest::zoo::BenchmarkId model = snntest::zoo::BenchmarkId::kNmnist;
  size_t gen_steps = 0;        // TestGenConfig::steps_stage1
  size_t gen_iterations = 0;   // TestGenConfig::max_iterations
  /// TestGenConfig::t_in_min. Fixed, because the Sec. V-C search picks a
  /// seed-dependent T_in that scales every later stage (6 to 13 frames on
  /// NMNIST); the traced run times the search on its own.
  size_t gen_t_in = 0;
  bool trace_tin_search = false;  // time the T_in search in the traced run
  /// Generate from a fixed seed instead of one derived from --seed, with one
  /// restart per engine thread. The coverage workloads' generation is a
  /// constant-work probe: a seeded stimulus would move faultsim_s by up to
  /// 40% from seed to seed.
  bool fixed_generator_seed = false;
  size_t faultsim_faults = 0;  // 0 = the full fault universe
  size_t classify_faults = 0;  // seeded subset of the faultsim (or dictionary) faults
  /// fc_critical_pct of the dictionary's whole stimulus set instead of the
  /// generated stimulus (classify then labels dictionary faults).
  bool fc_over_dictionary = false;
  size_t classify_samples = 0;
  size_t dict_faults = 0;      // seeded sample of the universe
  size_t dict_samples = 0;     // seeded dataset test samples
  /// Draw the dictionary's test samples from a fixed seed instead of one
  /// derived from --seed (the fault samples stay seeded). On gesture the
  /// samples' spike counts set the cost of every dictionary stage, and a
  /// seeded choice moved schedule_s by up to 20% from seed to seed.
  bool fixed_dict_samples = false;
  bool dict_prepared_chunks = false;   // + chunks of the cached SHD stimulus
  bool dict_generated_chunks = false;  // + chunks generated in this repeat
  /// Passes per repeat of the two short stages (median pass over the run
  /// reported), so each stage lasts about a second per repeat.
  size_t warm_passes = 1;
  size_t schedule_passes = 1;
  size_t gate_pairs = 0;       // naive-reference pairs per checked campaign
  size_t route_stimuli = 0;    // dictionary stimuli in the traced route sweep
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 3;
  std::string cache_dir;
  double setup_burst_seconds = 0.6;  // see run_workload
  size_t min_repeats = 2;
  /// Self-test hook: edits the copy of the faultsim results the gate checks
  /// against the naive reference; `picks` are the indices it will check.
  std::function<void(std::vector<snntest::fault::DetectionResult>& results,
                     const std::vector<size_t>& picks)>
      tamper;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  GateTally gate;
  std::vector<Metric> metrics;
  size_t repeats = 0;
};

/// Names and units of every metric a run reports (untraced: end-to-end;
/// traced: per-layer).
std::vector<std::pair<std::string, std::string>> end_to_end_metric_names();
std::vector<std::pair<std::string, std::string>> per_layer_metric_names();

/// Check the cache, run the workload for cfg.seconds and the gate after it.
RunReport run_workload(const WorkloadSpec& spec, const RunConfig& cfg);

}  // namespace perfbench
