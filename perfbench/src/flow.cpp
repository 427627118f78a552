#include "flow.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

#include "cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/fingerprint.hpp"
#include "core/test_generator.hpp"
#include "coverage/incremental.hpp"
#include "coverage/minimize.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "fault/registry.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace snntest;

namespace {

// Deepest fault layer that gets per-route rows (the zoo models have 3-4
// layers); every run reports all rows so the metric set is fixed.
constexpr size_t kRouteLayers = 4;
constexpr size_t kMaxSetupBurst = 10;
constexpr const char* kRoutes[] = {"scalar", "lane", "frontier"};
constexpr const char* kSelfLayers[] = {"zoo", "fault", "core", "snn", "campaign", "coverage", "flow"};

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Wall and CPU time accumulated over start/stop pairs, so gate work done
/// between the library calls of a stage stays out of the stage's time.
struct Stopwatch {
  double wall = 0.0;
  double cpu = 0.0;
  double wall0 = 0.0;
  double cpu0 = 0.0;
  void start() {
    wall0 = wall_now();
    cpu0 = cpu_now();
  }
  void stop() {
    wall += wall_now() - wall0;
    cpu += cpu_now() - cpu0;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<size_t> pick(util::Rng& rng, size_t n, size_t k) {
  auto idx = rng.sample_without_replacement(n, std::min(n, k));
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<fault::FaultDescriptor> subset(const std::vector<fault::FaultDescriptor>& all,
                                           const std::vector<size_t>& idx) {
  std::vector<fault::FaultDescriptor> out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(all[i]);
  return out;
}

/// Everything the setup stage produces: the inputs of every repeat.
struct Inputs {
  zoo::BenchmarkBundle bundle;
  std::vector<fault::FaultDescriptor> universe;
  std::vector<fault::FaultDescriptor> faultsim_faults;
  std::vector<size_t> classify_pos;  // positions in faultsim_faults or dict_faults
  std::vector<fault::FaultDescriptor> classify_faults;
  std::vector<fault::FaultDescriptor> dict_faults;
  std::vector<tensor::Tensor> dict_stimuli;
  std::vector<std::string> dict_names;
  double zoo_load_s = 0.0;
  double enumerate_s = 0.0;
};

Inputs load_inputs(const WorkloadSpec& spec, const RunConfig& cfg) {
  Inputs in;
  double t0 = wall_now();
  {
    ScopedSpan span("zoo.load_cached_model");
    in.bundle = load_cached_model(cfg.cache_dir, spec.model);
  }
  in.zoo_load_s = wall_now() - t0;
  t0 = wall_now();
  {
    ScopedSpan span("fault.enumerate_faults");
    in.universe = fault::enumerate_faults(in.bundle.network);
  }
  in.enumerate_s = wall_now() - t0;

  ScopedSpan span("flow.sample_inputs");
  util::Rng fault_rng(util::mix_seed(cfg.seed, 2, 0));
  in.faultsim_faults = spec.faultsim_faults == 0
                           ? in.universe
                           : subset(in.universe, pick(fault_rng, in.universe.size(),
                                                      spec.faultsim_faults));
  in.dict_faults = subset(in.universe, pick(fault_rng, in.universe.size(), spec.dict_faults));
  const auto& labelled = spec.fc_over_dictionary ? in.dict_faults : in.faultsim_faults;
  in.classify_pos = pick(fault_rng, labelled.size(), spec.classify_faults);
  in.classify_faults = subset(labelled, in.classify_pos);

  util::Rng data_rng(util::mix_seed(spec.fixed_dict_samples ? 0 : cfg.seed, 3, 0));
  for (size_t i : pick(data_rng, in.bundle.test->size(), spec.dict_samples)) {
    in.dict_stimuli.push_back(in.bundle.test->get(i).input);
    in.dict_names.push_back("sample" + std::to_string(i));
  }
  if (spec.dict_prepared_chunks) {
    const core::TestStimulus prepared = load_cached_stimulus(cfg.cache_dir);
    for (size_t j = 0; j < prepared.num_chunks(); ++j) {
      in.dict_stimuli.push_back(prepared.chunk(j));
      in.dict_names.push_back("prepared_chunk" + std::to_string(j));
    }
  }
  return in;
}

/// EngineStats summed over calls (the benchmark never reads the engine's
/// last-write-wins gauges).
struct CampaignTotals {
  double run_s = 0.0;
  size_t pairs_simulated = 0;
  size_t pairs_reused = 0;
  size_t layer_forwards = 0;
  size_t layer_forwards_naive = 0;
  size_t faults_pruned = 0;
  size_t lane_batches = 0;
  size_t lane_batched_faults = 0;
  size_t lanes_retired_early = 0;
  size_t golden_cache_bytes = 0;  // largest single-call footprint

  void add(const campaign::EngineStats& s) {
    run_s += s.elapsed_seconds;
    pairs_simulated += s.faults_simulated;
    pairs_reused += s.pairs_reused;
    layer_forwards += s.layer_forwards;
    layer_forwards_naive += s.layer_forwards_naive;
    faults_pruned += s.faults_pruned;
    lane_batches += s.lane_batches;
    lane_batched_faults += s.lane_batched_faults;
    lanes_retired_early += s.lanes_retired_early;
    golden_cache_bytes = std::max(golden_cache_bytes, s.golden_cache_bytes);
  }
};

struct RepOutcome {
  Stopwatch generate, faultsim, classify, dict_build, dict_warm, schedule;
  uint64_t stimulus_digest = 0;
  uint64_t snfd_digest = 0;
  double test_frames = 0.0;
  double fc_critical_pct = 0.0;
  double schedule_frames = 0.0;
  // wall time of each pass of the multi-pass stages
  std::vector<double> warm_pass_s, schedule_pass_s;

  // per-layer detail
  double iteration_median_s = 0.0;
  size_t iterations = 0;
  size_t chunks = 0;
  size_t classify_forwards = 0;
  CampaignTotals campaign;
  double save_s = 0.0, load_s = 0.0, warm_lookup_s = 0.0, minimize_s = 0.0, replay_s = 0.0;
  size_t file_bytes = 0, records = 0, replay_simulated = 0, replay_dropped = 0;

  // kept for the gate and the traced extras
  tensor::Tensor stimulus;
  std::vector<tensor::Tensor> generated_chunks;
  std::vector<fault::DetectionResult> faultsim_results;
  coverage::FaultDictionary dict;

  double total_s() const {
    return generate.wall + faultsim.wall + classify.wall + dict_build.wall + dict_warm.wall +
           schedule.wall;
  }
  double cpu_s() const {
    return generate.cpu + faultsim.cpu + classify.cpu + dict_build.cpu + dict_warm.cpu +
           schedule.cpu;
  }
};

/// The dictionary's stimuli for one repeat: the setup-time ones plus, when
/// the workload asks for it, this repeat's generated chunks.
std::vector<std::pair<const tensor::Tensor*, std::string>> dict_stimuli(const WorkloadSpec& spec,
                                                                        const Inputs& in,
                                                                        const RepOutcome& r) {
  std::vector<std::pair<const tensor::Tensor*, std::string>> out;
  for (size_t i = 0; i < in.dict_stimuli.size(); ++i) {
    out.emplace_back(&in.dict_stimuli[i], in.dict_names[i]);
  }
  if (spec.dict_generated_chunks) {
    for (size_t j = 0; j < r.generated_chunks.size(); ++j) {
      out.emplace_back(&r.generated_chunks[j], "generated_chunk" + std::to_string(j));
    }
  }
  return out;
}

core::TestGenConfig generator_config(const WorkloadSpec& spec, const RunConfig& cfg) {
  core::TestGenConfig gen;
  gen.steps_stage1 = spec.gen_steps;
  gen.max_iterations = spec.gen_iterations;
  gen.t_in_min = spec.gen_t_in;
  gen.t_limit_seconds = 1e9;  // the stimulus must depend on the seed only
  gen.seed = spec.fixed_generator_seed ? 0xC0FFEEull : util::mix_seed(cfg.seed, 1, 0);
  if (spec.fixed_generator_seed) {
    // The probe runs one restart per engine thread: a single-threaded stage
    // bears one core's noise alone and spread 0.27 (IQR over median) across
    // seeds on coverage-shd, against 0.12 for the parallel stages.
    gen.restarts = cfg.threads;
    gen.num_threads = cfg.threads;
  }
  return gen;
}

RepOutcome run_repeat(const WorkloadSpec& spec, const RunConfig& cfg, const Inputs& in,
                      const std::string& snfd_path, GateTally& gate) {
  RepOutcome r;
  const snn::Network& net = in.bundle.network;
  campaign::EngineConfig engine;
  engine.num_threads = cfg.threads;

  // --- generate (Sec. IV) ---
  snn::Network gen_net(net);
  const core::TestGenConfig gen = generator_config(spec, cfg);
  core::TestGenReport report;
  {
    ScopedSpan span("flow.generate");
    r.generate.start();
    {
      ScopedSpan call("core.generate");
      core::TestGenerator generator(gen_net, gen);
      report = generator.generate();
    }
    r.generate.stop();
  }
  r.stimulus = report.stimulus.assemble();
  r.generated_chunks = report.stimulus.chunks();
  r.stimulus_digest = campaign::hash_stimulus(r.stimulus, util::kFnvOffsetBasis);
  r.test_frames = static_cast<double>(report.stimulus.total_steps());
  std::vector<double> iteration_s;
  for (const auto& it : report.iterations) iteration_s.push_back(it.seconds);
  r.iteration_median_s = median(iteration_s);
  r.iterations = report.iterations.size();
  r.chunks = report.stimulus.num_chunks();

  // --- faultsim: the Eq. (3) verification campaign ---
  {
    ScopedSpan span("flow.faultsim");
    r.faultsim.start();
    campaign::CampaignResult result;
    {
      ScopedSpan call("campaign.run_campaign");
      result = campaign::run_campaign(net, r.stimulus, in.faultsim_faults, engine);
    }
    r.faultsim.stop();
    r.campaign.add(result.stats);
    r.faultsim_results = std::move(result.results);
  }

  // --- classify (Table II); the coverage report (Table III) joins the
  // labels with detections of the generated stimulus, or with the whole
  // dictionary's stimulus set when the workload measures that ---
  fault::ClassificationOutcome classes;
  {
    ScopedSpan span("flow.classify");
    fault::ClassifierConfig cc;
    cc.max_samples = spec.classify_samples;
    cc.num_threads = cfg.threads;
    r.classify.start();
    {
      ScopedSpan call("fault.classify_faults");
      classes = fault::classify_faults(net, in.classify_faults, *in.bundle.test, cc);
    }
    r.classify.stop();
    r.classify_forwards =
        in.classify_faults.size() * std::min(spec.classify_samples, in.bundle.test->size());
  }
  auto report_coverage = [&](const std::vector<fault::DetectionResult>& detections) {
    r.classify.start();
    fault::CoverageReport cov;
    {
      ScopedSpan call("fault.build_coverage_report");
      cov = fault::build_coverage_report(in.classify_faults, detections, classes.labels);
    }
    r.classify.stop();
    const size_t critical = cov.critical_neuron.total + cov.critical_synapse.total;
    const size_t detected = cov.critical_neuron.detected + cov.critical_synapse.detected;
    // No critical fault in the sample means nothing escapes: 100%, the
    // fault::CoverageCell convention.
    r.fc_critical_pct = critical == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                                   static_cast<double>(critical);
  };
  if (!spec.fc_over_dictionary) {
    std::vector<fault::DetectionResult> detections;
    for (size_t pos : in.classify_pos) detections.push_back(r.faultsim_results[pos]);
    report_coverage(detections);
  }

  const auto stimuli = dict_stimuli(spec, in, r);
  coverage::IncrementalConfig inc;
  inc.engine = engine;

  // --- dict_build: cold campaigns into an empty dictionary, then save ---
  {
    ScopedSpan span("flow.dict_build");
    r.dict_build.start();
    r.dict = coverage::make_dictionary(net, in.dict_faults);
    for (const auto& [stimulus, name] : stimuli) {
      inc.stimulus_name = name;
      ScopedSpan call("coverage.run_incremental_campaign");
      const auto res = coverage::run_incremental_campaign(net, *stimulus, in.dict_faults, r.dict, inc);
      r.campaign.add(res.campaign.stats);
    }
    const double t0 = wall_now();
    {
      ScopedSpan call("coverage.save");
      r.dict.save(snfd_path);
    }
    r.save_s = wall_now() - t0;
    r.dict_build.stop();
  }
  if (spec.fc_over_dictionary) {
    std::vector<fault::DetectionResult> detections(in.classify_pos.size());
    for (size_t s = 0; s < r.dict.num_stimuli(); ++s) {
      for (size_t j = 0; j < in.classify_pos.size(); ++j) {
        const auto* rec = r.dict.lookup(s, in.classify_pos[j]);
        if (rec != nullptr && rec->detected) detections[j].detected = true;
      }
    }
    report_coverage(detections);
  }
  r.records = r.dict.num_records();
  r.file_bytes = std::filesystem::file_size(snfd_path);
  r.snfd_digest = file_digest(snfd_path);

  // --- dict_warm: load, then re-run every campaign from the dictionary
  // (spec.warm_passes passes: one pass is too short to time) ---
  for (size_t pass = 0; pass < spec.warm_passes; ++pass) {
    ScopedSpan span("flow.dict_warm");
    const double pass_start = r.dict_warm.wall;
    r.dict_warm.start();
    double t0 = wall_now();
    std::optional<coverage::FaultDictionary> loaded;
    {
      ScopedSpan call("coverage.load");
      loaded = coverage::FaultDictionary::load(snfd_path);
    }
    r.load_s += wall_now() - t0;
    r.dict_warm.stop();
    gate.check(loaded.has_value(), "dict_warm: saved dictionary does not load");
    if (!loaded) return r;
    for (size_t s = 0; s < stimuli.size(); ++s) {
      inc.stimulus_name = stimuli[s].second;
      r.dict_warm.start();
      t0 = wall_now();
      coverage::IncrementalResult res;
      {
        ScopedSpan call("coverage.run_incremental_campaign");
        res = coverage::run_incremental_campaign(net, *stimuli[s].first, in.dict_faults, *loaded, inc);
      }
      r.warm_lookup_s += wall_now() - t0;
      r.dict_warm.stop();
      if (pass == 0) r.campaign.add(res.campaign.stats);
      bool identical = res.campaign.stats.faults_simulated == 0 &&
                       res.coverage.pairs_reused == in.dict_faults.size();
      for (size_t f = 0; f < in.dict_faults.size() && identical; ++f) {
        const auto* cold = r.dict.lookup(s, f);
        identical = cold != nullptr && coverage::results_identical(*cold, res.campaign.results[f]);
      }
      gate.check(identical, "dict_warm: warm re-run of " + stimuli[s].second +
                                " differs from the cold build or simulated pairs");
    }
    r.warm_pass_s.push_back(r.dict_warm.wall - pass_start);
  }
  const double warm_passes = static_cast<double>(spec.warm_passes);
  r.dict_warm.wall /= warm_passes;
  r.dict_warm.cpu /= warm_passes;
  r.load_s /= warm_passes;
  r.warm_lookup_s /= warm_passes;

  // --- schedule: minimize, export, replay (spec.schedule_passes passes,
  // for the same reason as dict_warm) ---
  for (size_t pass = 0; pass < spec.schedule_passes; ++pass) {
    ScopedSpan span("flow.schedule");
    const double pass_start = r.schedule.wall;
    r.schedule.start();
    double t0 = wall_now();
    coverage::TestSchedule schedule;
    coverage::FaultDictionary schedule_dict;
    {
      ScopedSpan call("coverage.minimize_schedule");
      schedule = coverage::minimize_schedule(r.dict);
    }
    {
      ScopedSpan call("coverage.schedule_as_dictionary");
      schedule_dict = coverage::schedule_as_dictionary(r.dict, schedule);
    }
    r.minimize_s += wall_now() - t0;
    t0 = wall_now();
    coverage::ScheduleReplayConfig replay_cfg;
    replay_cfg.engine = engine;
    coverage::ScheduleReplayResult replay;
    {
      ScopedSpan call("coverage.replay_schedule");
      replay = coverage::replay_schedule(net, schedule_dict, in.dict_faults, replay_cfg);
    }
    r.replay_s += wall_now() - t0;
    r.schedule.stop();
    r.schedule_pass_s.push_back(r.schedule.wall - pass_start);
    r.schedule_frames = static_cast<double>(schedule.scheduled_frames);
    r.replay_simulated = 0;
    r.replay_dropped = 0;
    for (const auto& step : replay.steps) {
      r.replay_simulated += step.faults_simulated;
      r.replay_dropped += step.faults_dropped;
    }
    std::vector<char> covered(in.dict_faults.size(), 0);
    for (const auto& step : schedule.steps) {
      for (size_t f : r.dict.detected_faults(step.stimulus)) covered[f] = 1;
    }
    bool same = replay.total_detected == schedule.covered_faults &&
                replay.detected.size() == covered.size();
    for (size_t f = 0; f < covered.size() && same; ++f) {
      same = (replay.detected[f] != 0) == (covered[f] != 0);
    }
    gate.check(same, "schedule: replay's detected set differs from the schedule's covered faults");
    gate.check(schedule.complete(), "schedule: minimized schedule is not complete");
  }
  const double schedule_passes = static_cast<double>(spec.schedule_passes);
  r.schedule.wall /= schedule_passes;
  r.schedule.cpu /= schedule_passes;
  r.minimize_s /= schedule_passes;
  r.replay_s /= schedule_passes;
  return r;
}

/// One traced-run row per (fault layer, route): the dictionary faults
/// grouped by campaign::fault_layer, run through each route on the first
/// `route_stimuli` dictionary stimuli. Results must agree bit for bit.
void route_sweep(const WorkloadSpec& spec, const RunConfig& cfg, const Inputs& in,
                 const RepOutcome& last, GateTally& gate, std::vector<Metric>& out) {
  ScopedSpan span("flow.route_sweep");
  const auto stimuli = dict_stimuli(spec, in, last);
  const size_t n_stimuli = std::min(spec.route_stimuli, stimuli.size());
  std::vector<std::vector<fault::FaultDescriptor>> by_layer(kRouteLayers);
  for (const auto& f : in.dict_faults) {
    const size_t k = campaign::fault_layer(f);
    if (k < kRouteLayers) by_layer[k].push_back(f);
  }
  for (size_t k = 0; k < kRouteLayers; ++k) {
    const std::string prefix = "campaign.L" + std::to_string(k) + ".";
    double run_s[3] = {0, 0, 0};
    size_t forwards[3] = {0, 0, 0};
    size_t frontier_updates = 0;
    for (size_t s = 0; s < n_stimuli && !by_layer[k].empty(); ++s) {
      std::vector<fault::DetectionResult> results[3];
      for (size_t route = 0; route < 3; ++route) {
        campaign::EngineConfig engine;
        engine.num_threads = cfg.threads;
        if (route == 0) engine.lane_width = 1;
        if (route == 2) {
          engine.frontier = true;
          engine.frontier_adaptive = false;
        }
        const double t0 = wall_now();
        campaign::CampaignResult res;
        {
          ScopedSpan call("campaign.run_campaign");
          res = campaign::run_campaign(in.bundle.network, *stimuli[s].first, by_layer[k], engine);
        }
        run_s[route] += wall_now() - t0;
        forwards[route] += res.stats.layer_forwards;
        if (route == 2) {
          frontier_updates += res.stats.frontier_neuron_updates;
          gate.check(res.stats.frontier_active,
                     prefix + "frontier: the engine fell back from the frontier route");
        }
        results[route] = std::move(res.results);
      }
      for (size_t route : {size_t{0}, size_t{2}}) {
        bool same = results[route].size() == results[1].size();
        for (size_t f = 0; f < results[1].size() && same; ++f) {
          same = coverage::results_identical(results[route][f], results[1][f]);
        }
        gate.check(same, prefix + kRoutes[route] + " differs from lane on " + stimuli[s].second);
      }
    }
    for (size_t route = 0; route < 3; ++route) {
      out.push_back({prefix + kRoutes[route] + ".run_s", run_s[route], "s"});
      out.push_back({prefix + kRoutes[route] + ".layer_forwards",
                     static_cast<double>(forwards[route]), "count"});
    }
    out.push_back({prefix + "frontier.neuron_updates", static_cast<double>(frontier_updates), "count"});
  }
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec nmnist;
    nmnist.name = "paper-nmnist";
    nmnist.model = zoo::BenchmarkId::kNmnist;
    nmnist.gen_steps = 60;
    nmnist.gen_iterations = 4;
    nmnist.gen_t_in = 9;
    nmnist.trace_tin_search = true;
    nmnist.faultsim_faults = 0;  // the full universe (56,644 faults)
    nmnist.classify_faults = 2000;
    nmnist.classify_samples = 4;
    nmnist.dict_faults = 12000;
    nmnist.dict_samples = 4;
    nmnist.dict_generated_chunks = true;
    nmnist.warm_passes = 6;      // ~0.15 s a pass
    nmnist.schedule_passes = 6;  // ~0.4 s a pass
    nmnist.gate_pairs = 32;
    nmnist.route_stimuli = 2;
    v.push_back(nmnist);

    WorkloadSpec shd;
    shd.name = "coverage-shd";
    shd.model = zoo::BenchmarkId::kShd;
    shd.gen_steps = 600;
    shd.gen_iterations = 3;
    shd.gen_t_in = 8;
    shd.faultsim_faults = 0;
    shd.classify_faults = 3000;
    shd.classify_samples = 4;
    shd.dict_faults = 6000;
    shd.dict_samples = 12;
    shd.dict_prepared_chunks = true;
    shd.fc_over_dictionary = true;
    shd.fixed_generator_seed = true;
    shd.warm_passes = 4;      // ~0.25 s a pass
    shd.schedule_passes = 2;  // ~0.75 s a pass
    shd.gate_pairs = 32;
    shd.route_stimuli = 3;
    v.push_back(shd);

    WorkloadSpec gesture;
    gesture.name = "coverage-gesture";
    gesture.model = zoo::BenchmarkId::kGesture;
    gesture.gen_steps = 40;
    gesture.gen_iterations = 2;
    gesture.gen_t_in = 6;
    gesture.faultsim_faults = 20000;
    gesture.classify_faults = 1000;
    gesture.classify_samples = 2;
    gesture.dict_faults = 4000;
    gesture.dict_samples = 12;
    gesture.fc_over_dictionary = true;
    gesture.fixed_generator_seed = true;
    gesture.fixed_dict_samples = true;
    gesture.warm_passes = 6;      // ~0.1 s a pass
    gesture.schedule_passes = 2;  // ~0.9 s a pass
    gesture.gate_pairs = 32;
    gesture.route_stimuli = 3;
    v.push_back(gesture);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> end_to_end_metric_names() {
  return {{"setup_s", "s"},         {"generate_s", "s"},      {"faultsim_s", "s"},
          {"classify_s", "s"},      {"test_frames", "frames"}, {"fc_critical_pct", "%"},
          {"dict_build_s", "s"},    {"dict_warm_s", "s"},     {"schedule_s", "s"},
          {"schedule_frames", "frames"}, {"total_s", "s"},    {"cpu_s", "s"},
          {"peak_rss_mb", "MB"}};
}

std::vector<std::pair<std::string, std::string>> per_layer_metric_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"zoo.load_s", "s"},
      {"fault.enumerate_s", "s"},
      {"fault.universe_faults", "count"},
      {"core.tin_search_s", "s"},
      {"core.iteration_s", "s"},
      {"core.iterations", "count"},
      {"core.chunks", "count"},
      {"fault.classify_forwards", "count"},
      {"fault.classify_us_per_forward", "us"},
      {"snn.golden_forward_s", "s"},
      {"snn.golden_spikes", "count"},
      {"snn.forward_dense_s", "s"},
      {"snn.forward_sparse_s", "s"},
      {"campaign.run_s", "s"},
      {"campaign.pairs_simulated", "count"},
      {"campaign.pairs_reused", "count"},
      {"campaign.layer_forwards", "count"},
      {"campaign.layer_forwards_naive", "count"},
      {"campaign.faults_pruned", "count"},
      {"campaign.lane_batches", "count"},
      {"campaign.lane_batched_faults", "count"},
      {"campaign.lanes_retired_early", "count"},
      {"campaign.us_per_layer_forward", "us"},
      {"campaign.golden_cache_bytes", "bytes"},
  };
  for (size_t k = 0; k < kRouteLayers; ++k) {
    const std::string prefix = "campaign.L" + std::to_string(k) + ".";
    for (const char* route : kRoutes) {
      v.push_back({prefix + route + ".run_s", "s"});
      v.push_back({prefix + route + ".layer_forwards", "count"});
    }
    v.push_back({prefix + "frontier.neuron_updates", "count"});
  }
  for (const auto& m : std::vector<std::pair<std::string, std::string>>{
           {"coverage.save_s", "s"},
           {"coverage.load_s", "s"},
           {"coverage.warm_lookup_s", "s"},
           {"coverage.file_bytes", "bytes"},
           {"coverage.records", "count"},
           {"coverage.minimize_s", "s"},
           {"coverage.replay_s", "s"},
           {"coverage.replay_pairs_simulated", "count"},
           {"coverage.replay_pairs_dropped", "count"},
           {"obs.trace_overhead_pct", "%"}}) {
    v.push_back(m);
  }
  for (const char* layer : kSelfLayers) v.push_back({std::string("self.") + layer + "_s", "s"});
  return v;
}

RunReport run_workload(const WorkloadSpec& spec, const RunConfig& cfg) {
  RunReport out;
  check_cache(cfg.cache_dir, spec.model, out.gate);
  if (!out.gate.ok()) return out;

  Tracer& tracer = Tracer::instance();
  tracer.clear();
  const uint64_t run_id = util::mix_seed(cfg.seed, std::hash<std::string>{}(spec.name), 0);
  auto set_traced = [&](bool on) {
    if (on) {
      tracer.enable(run_id);
    } else {
      tracer.disable();
    }
    obs::set_telemetry_enabled(on);
  };

  // --- setup, timed in bursts spread over the run: one before the warm-up
  // repeat and one after every repeat. The host's speed drifts in phases of
  // a few seconds, so samples taken back to back can all land in one phase;
  // spread out, their median is steadier. A burst repeats setup until
  // setup_burst_seconds have passed, at least once. Each setup replaces the
  // inputs (identical, from the same seed and cache) after freeing the old
  // ones, so only one set is alive, as in a user's process. ---
  std::vector<double> setup_s, zoo_load_s, enumerate_s;
  Inputs in;
  auto setup_burst = [&] {
    const double burst_start = wall_now();
    for (size_t i = 0; i == 0 || (wall_now() - burst_start < cfg.setup_burst_seconds &&
                                   i < kMaxSetupBurst);
         ++i) {
      set_traced(cfg.trace && setup_s.empty());
      in = Inputs();
      const double t0 = wall_now();
      {
        ScopedSpan span("flow.setup");
        in = load_inputs(spec, cfg);
      }
      setup_s.push_back(wall_now() - t0);
      set_traced(false);
      std::fprintf(stderr, "setup %zu: %.3f s (model load %.3f, enumerate %.3f)\n",
                   setup_s.size() - 1, setup_s.back(), in.zoo_load_s, in.enumerate_s);
      zoo_load_s.push_back(in.zoo_load_s);
      enumerate_s.push_back(in.enumerate_s);
    }
  };
  setup_burst();

  const std::string work_dir = cfg.cache_dir + "/work";
  std::filesystem::create_directories(work_dir);
  const std::string snfd_path =
      work_dir + "/" + spec.name + "-" + std::to_string(getpid()) + ".snfd";

  // --- timed repeats; traced runs alternate untraced and traced repeats ---
  std::map<std::string, std::vector<double>> untraced, traced;
  RepOutcome last, last_traced;
  const auto self_before = tracer.self_seconds_by_layer();
  size_t traced_reps = 0;
  // Repeat 0 warms up (thread pools, allocator arenas, page cache); it is
  // gated but not measured, and the measuring window starts after it.
  const size_t min_reps = 1 + cfg.min_repeats * (cfg.trace ? 2 : 1);
  double window_start = wall_now();
  // The window closes when the next repeat would end more than half a
  // repeat past it, so a run measures about cfg.seconds.
  double last_repeat_s = 0.0;
  // Peak RSS as a user's process sees it: setup plus one pass of the stage
  // sequence, read after the warm-up repeat. Each later repeat leaves some
  // heap fragmentation behind (7-18 MB a repeat on NMNIST), so a peak read
  // at the end would grow with the number of repeats the host's speed allows.
  double peak_rss = 0.0;
  for (size_t rep = 0;
       rep < min_reps || wall_now() - window_start + 0.5 * last_repeat_s < cfg.seconds; ++rep) {
    const double repeat_start = wall_now();
    const bool warmup = rep == 0;
    const bool is_traced = cfg.trace && !warmup && rep % 2 == 0;
    set_traced(is_traced);
    RepOutcome r;
    {
      ScopedSpan span("flow.repeat");
      r = run_repeat(spec, cfg, in, snfd_path, out.gate);
    }
    set_traced(false);
    if (rep > 0) {
      out.gate.check(r.stimulus_digest == last.stimulus_digest,
                     "repeat " + std::to_string(rep) + ": generated stimulus digest changed");
      out.gate.check(r.snfd_digest == last.snfd_digest,
                     "repeat " + std::to_string(rep) + ": SNFD digest changed");
    }
    std::fprintf(stderr,
                 "repeat %zu%s: total %.3f s (generate %.3f, faultsim %.3f, classify %.3f, "
                 "dict_build %.3f, dict_warm %.3f, schedule %.3f)\n",
                 rep, warmup ? " warm-up" : is_traced ? " traced" : "", r.total_s(),
                 r.generate.wall, r.faultsim.wall, r.classify.wall, r.dict_build.wall,
                 r.dict_warm.wall, r.schedule.wall);
    setup_burst();
    if (warmup) {
      peak_rss = peak_rss_mb();
      last = std::move(r);
      window_start = wall_now();
      continue;
    }
    last_repeat_s = wall_now() - repeat_start;
    auto& series = is_traced ? traced : untraced;
    series["generate_s"].push_back(r.generate.wall);
    series["faultsim_s"].push_back(r.faultsim.wall);
    series["classify_s"].push_back(r.classify.wall);
    series["dict_build_s"].push_back(r.dict_build.wall);
    // The multi-pass stages report the median pass of the whole run.
    auto& warm = series["dict_warm_s"];
    warm.insert(warm.end(), r.warm_pass_s.begin(), r.warm_pass_s.end());
    auto& schedule = series["schedule_s"];
    schedule.insert(schedule.end(), r.schedule_pass_s.begin(), r.schedule_pass_s.end());
    series["total_s"].push_back(r.total_s());
    series["cpu_s"].push_back(r.cpu_s());
    if (is_traced) {
      ++traced_reps;
      series["core.iteration_s"].push_back(r.iteration_median_s);
      series["campaign.run_s"].push_back(r.campaign.run_s);
      series["coverage.save_s"].push_back(r.save_s);
      series["coverage.load_s"].push_back(r.load_s);
      series["coverage.warm_lookup_s"].push_back(r.warm_lookup_s);
      series["coverage.minimize_s"].push_back(r.minimize_s);
      series["coverage.replay_s"].push_back(r.replay_s);
      last_traced = r;
    }
    last = std::move(r);
    ++out.repeats;
  }
  const auto self_after = tracer.self_seconds_by_layer();
  std::filesystem::remove(snfd_path);

  // --- correctness gate against the naive reference (untimed) ---
  {
    util::Rng gate_rng(util::mix_seed(cfg.seed, 4, 0));
    const auto picks = pick(gate_rng, in.faultsim_faults.size(), spec.gate_pairs);
    auto checked = last.faultsim_results;
    if (cfg.tamper) cfg.tamper(checked, picks);
    check_against_reference(in.bundle.network, last.stimulus, in.faultsim_faults, picks, checked,
                            "faultsim", out.gate);
    const auto stimuli = dict_stimuli(spec, in, last);
    std::vector<std::vector<size_t>> per_stimulus(stimuli.size());
    for (size_t p = 0; p < spec.gate_pairs; ++p) {
      per_stimulus[gate_rng.uniform_index(stimuli.size())].push_back(
          gate_rng.uniform_index(in.dict_faults.size()));
    }
    for (size_t s = 0; s < stimuli.size(); ++s) {
      if (per_stimulus[s].empty()) continue;
      std::vector<fault::DetectionResult> stored(in.dict_faults.size());
      for (size_t f : per_stimulus[s]) {
        const auto* rec = last.dict.lookup(s, f);
        if (rec != nullptr) stored[f] = *rec;
      }
      check_against_reference(in.bundle.network, *stimuli[s].first, in.dict_faults,
                              per_stimulus[s], stored, "dictionary " + stimuli[s].second, out.gate);
    }
  }

  if (!cfg.trace) {
    auto med = [&](const char* key) { return median(untraced[key]); };
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"generate_s", med("generate_s"), "s"},
        {"faultsim_s", med("faultsim_s"), "s"},
        {"classify_s", med("classify_s"), "s"},
        {"test_frames", last.test_frames, "frames"},
        {"fc_critical_pct", last.fc_critical_pct, "%"},
        {"dict_build_s", med("dict_build_s"), "s"},
        {"dict_warm_s", med("dict_warm_s"), "s"},
        {"schedule_s", med("schedule_s"), "s"},
        {"schedule_frames", last.schedule_frames, "frames"},
        {"total_s", med("total_s"), "s"},
        {"cpu_s", med("cpu_s"), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
    return out;
  }

  // --- traced extras: golden forwards per kernel mode, route sweep ---
  set_traced(true);
  std::vector<Metric>& m = out.metrics;
  auto tmed = [&](const char* key) { return median(traced[key]); };
  const RepOutcome& lt = last_traced;
  m.push_back({"zoo.load_s", median(zoo_load_s), "s"});
  m.push_back({"fault.enumerate_s", median(enumerate_s), "s"});
  m.push_back({"fault.universe_faults", static_cast<double>(in.universe.size()), "count"});
  double tin_search_s = 0.0;
  if (spec.trace_tin_search) {
    snn::Network net(in.bundle.network);
    core::TestGenConfig gen = generator_config(spec, cfg);
    util::Rng rng(gen.seed);
    const double t0 = wall_now();
    ScopedSpan call("core.find_min_input_duration");
    core::TestGenerator::find_min_input_duration(net, gen, rng);
    tin_search_s = wall_now() - t0;
  }
  m.push_back({"core.tin_search_s", tin_search_s, "s"});
  m.push_back({"core.iteration_s", tmed("core.iteration_s"), "s"});
  m.push_back({"core.iterations", static_cast<double>(lt.iterations), "count"});
  m.push_back({"core.chunks", static_cast<double>(lt.chunks), "count"});
  m.push_back({"fault.classify_forwards", static_cast<double>(lt.classify_forwards), "count"});
  m.push_back({"fault.classify_us_per_forward",
               tmed("classify_s") * 1e6 / static_cast<double>(std::max<size_t>(1, lt.classify_forwards)),
               "us"});
  {
    ScopedSpan span("flow.forward_modes");
    std::vector<const tensor::Tensor*> stimuli = {&lt.stimulus};
    for (const auto& [stimulus, name] : dict_stimuli(spec, in, lt)) stimuli.push_back(stimulus);
    snn::Network net(in.bundle.network);
    const std::pair<const char*, snn::KernelMode> modes[] = {
        {"snn.golden_forward_s", snn::KernelMode::kAuto},
        {"snn.forward_dense_s", snn::KernelMode::kDense},
        {"snn.forward_sparse_s", snn::KernelMode::kSparse}};
    for (const auto& [name, mode] : modes) {
      net.set_kernel_mode(mode);
      size_t spikes = 0;
      const double t0 = wall_now();
      for (const tensor::Tensor* s : stimuli) {
        ScopedSpan call("snn.forward");
        spikes += net.forward(*s).total_spikes();
      }
      m.push_back({name, wall_now() - t0, "s"});
      if (mode == snn::KernelMode::kAuto) {
        m.push_back({"snn.golden_spikes", static_cast<double>(spikes), "count"});
      }
    }
  }
  const CampaignTotals& c = lt.campaign;
  m.push_back({"campaign.run_s", tmed("campaign.run_s"), "s"});
  m.push_back({"campaign.pairs_simulated", static_cast<double>(c.pairs_simulated), "count"});
  m.push_back({"campaign.pairs_reused", static_cast<double>(c.pairs_reused), "count"});
  m.push_back({"campaign.layer_forwards", static_cast<double>(c.layer_forwards), "count"});
  m.push_back({"campaign.layer_forwards_naive", static_cast<double>(c.layer_forwards_naive), "count"});
  m.push_back({"campaign.faults_pruned", static_cast<double>(c.faults_pruned), "count"});
  m.push_back({"campaign.lane_batches", static_cast<double>(c.lane_batches), "count"});
  m.push_back({"campaign.lane_batched_faults", static_cast<double>(c.lane_batched_faults), "count"});
  m.push_back({"campaign.lanes_retired_early", static_cast<double>(c.lanes_retired_early), "count"});
  m.push_back({"campaign.us_per_layer_forward",
               tmed("campaign.run_s") * 1e6 / static_cast<double>(std::max<size_t>(1, c.layer_forwards)),
               "us"});
  m.push_back({"campaign.golden_cache_bytes", static_cast<double>(c.golden_cache_bytes), "bytes"});
  route_sweep(spec, cfg, in, lt, out.gate, m);
  m.push_back({"coverage.save_s", tmed("coverage.save_s"), "s"});
  m.push_back({"coverage.load_s", tmed("coverage.load_s"), "s"});
  m.push_back({"coverage.warm_lookup_s", tmed("coverage.warm_lookup_s"), "s"});
  m.push_back({"coverage.file_bytes", static_cast<double>(lt.file_bytes), "bytes"});
  m.push_back({"coverage.records", static_cast<double>(lt.records), "count"});
  m.push_back({"coverage.minimize_s", tmed("coverage.minimize_s"), "s"});
  m.push_back({"coverage.replay_s", tmed("coverage.replay_s"), "s"});
  m.push_back({"coverage.replay_pairs_simulated", static_cast<double>(lt.replay_simulated), "count"});
  m.push_back({"coverage.replay_pairs_dropped", static_cast<double>(lt.replay_dropped), "count"});
  m.push_back({"obs.trace_overhead_pct",
               100.0 * (tmed("total_s") / std::max(1e-9, median(untraced["total_s"])) - 1.0), "%"});
  for (const char* layer : kSelfLayers) {
    const auto after = self_after.find(layer);
    const auto before = self_before.find(layer);
    const double total = (after == self_after.end() ? 0.0 : after->second) -
                         (before == self_before.end() ? 0.0 : before->second);
    m.push_back({std::string("self.") + layer + "_s",
                 total / static_cast<double>(std::max<size_t>(1, traced_reps)), "s"});
  }
  set_traced(false);
  return out;
}

}  // namespace perfbench
