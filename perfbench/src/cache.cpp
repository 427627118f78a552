#include "cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/fingerprint.hpp"
#include "core/test_generator.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace snntest;

namespace {

// Bump when the prepare recipe changes: an older cache is then foreign.
constexpr const char* kCacheFormat = "perfbench-cache-v1";
constexpr zoo::BenchmarkId kModels[] = {zoo::BenchmarkId::kNmnist, zoo::BenchmarkId::kGesture,
                                        zoo::BenchmarkId::kShd};

std::string manifest_path(const std::string& dir) { return dir + "/manifest.json"; }
std::string stimulus_path(const std::string& dir) { return dir + "/shd_stimulus.bin"; }

zoo::ZooOptions zoo_options(const std::string& dir, bool allow_cache, double budget) {
  zoo::ZooOptions opts;
  opts.cache_dir = dir;
  opts.allow_cache = allow_cache;
  opts.train_budget = budget;
  opts.verbose = false;
  return opts;
}

std::string hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

util::JsonValue string_value(const std::string& s) {
  util::JsonValue v;
  v.kind = util::JsonValue::kString;
  v.str = s;
  return v;
}

util::JsonValue number_value(double d) {
  util::JsonValue v;
  v.kind = util::JsonValue::kNumber;
  v.number = d;
  return v;
}

std::string topology_hash(zoo::BenchmarkId id) {
  return hex(campaign::hash_network_topology(zoo::make_network(id, zoo::ZooOptions{}.seed),
                                             util::kFnvOffsetBasis));
}

// The dense optimized chunks that join the coverage-shd dictionary: a
// fixed-seed generation at a larger budget than the timed flows use.
core::TestStimulus generate_shd_stimulus(snn::Network net) {
  core::TestGenConfig cfg;
  cfg.steps_stage1 = 120;
  cfg.max_iterations = 6;
  cfg.t_limit_seconds = 1e9;  // never let wall clock shape the stimulus
  cfg.seed = 0x5EEDC0DEull;
  core::TestGenerator generator(net, cfg);
  return generator.generate().stimulus;
}

}  // namespace

uint64_t file_digest(const std::string& path) {
  const std::string bytes = read_file(path);
  return util::fnv1a(bytes.data(), bytes.size());
}

std::string model_cache_file(const std::string& dir, zoo::BenchmarkId id) {
  return zoo::model_cache_path(id, zoo_options(dir, true, 1.0));
}

void prepare_cache(const std::string& dir, double train_budget) {
  std::filesystem::create_directories(dir);
  util::JsonValue manifest;
  manifest.kind = util::JsonValue::kObject;
  manifest.object["format"] = string_value(kCacheFormat);
  for (zoo::BenchmarkId id : kModels) {
    std::fprintf(stderr, "prepare: training %s model\n", zoo::benchmark_name(id));
    auto bundle = zoo::load_or_train(id, zoo_options(dir, false, train_budget));
    util::JsonValue entry;
    entry.kind = util::JsonValue::kObject;
    entry.object["fingerprint"] = string_value(hex(campaign::model_fingerprint(bundle.network)));
    entry.object["topology"] = string_value(topology_hash(id));
    entry.object["accuracy"] = number_value(bundle.test_accuracy);
    manifest.object[zoo::benchmark_name(id)] = entry;
    if (id == zoo::BenchmarkId::kShd) {
      std::fprintf(stderr, "prepare: generating the SHD stimulus\n");
      generate_shd_stimulus(bundle.network).save(stimulus_path(dir));
      manifest.object["shd_stimulus"] = string_value(hex(file_digest(stimulus_path(dir))));
    }
  }
  // The manifest is written last: its presence marks a complete cache.
  std::ofstream out(manifest_path(dir));
  out << util::to_json(manifest) << "\n";
  if (!out) throw std::runtime_error("cannot write " + manifest_path(dir));
}

void check_cache(const std::string& dir, zoo::BenchmarkId id, GateTally& tally) {
  const std::string name = zoo::benchmark_name(id);
  const auto manifest = util::try_parse_json(
      std::filesystem::exists(manifest_path(dir)) ? read_file(manifest_path(dir)) : "");
  const util::JsonValue* format = manifest ? manifest->find("format") : nullptr;
  tally.check(format != nullptr && format->str == kCacheFormat,
              "cache: manifest missing or of a foreign format in " + dir);
  const util::JsonValue* entry = manifest ? manifest->find(name) : nullptr;
  tally.check(entry != nullptr, "cache: no manifest entry for " + name);
  if (entry == nullptr) return;

  const util::JsonValue* topology = entry->find("topology");
  tally.check(topology != nullptr && topology->str == topology_hash(id),
              "cache: " + name + " model was trained for a different architecture");
  const std::string path = model_cache_file(dir, id);
  const bool present = std::filesystem::exists(path);
  tally.check(present, "cache: " + name + " model file missing");
  if (!present) return;
  const auto bundle = load_cached_model(dir, id);
  const util::JsonValue* fingerprint = entry->find("fingerprint");
  tally.check(fingerprint != nullptr &&
                  fingerprint->str == hex(campaign::model_fingerprint(bundle.network)),
              "cache: " + name + " model fingerprint differs from the manifest (stale model)");
  const util::JsonValue* accuracy = entry->find("accuracy");
  tally.check(accuracy != nullptr && accuracy->number == bundle.test_accuracy,
              "cache: " + name + " model accuracy differs from the manifest");

  if (id == zoo::BenchmarkId::kShd) {
    const util::JsonValue* digest = manifest->find("shd_stimulus");
    tally.check(digest != nullptr && std::filesystem::exists(stimulus_path(dir)) &&
                    digest->str == hex(file_digest(stimulus_path(dir))),
                "cache: SHD stimulus digest differs from the manifest");
  }
}

zoo::BenchmarkBundle load_cached_model(const std::string& dir, zoo::BenchmarkId id) {
  if (!std::filesystem::exists(model_cache_file(dir, id))) {
    throw std::runtime_error("model cache missing: " + model_cache_file(dir, id) +
                             " (run the prepare step)");
  }
  auto bundle = zoo::load_or_train(id, zoo_options(dir, true, 1.0));
  if (!bundle.from_cache) {
    throw std::runtime_error("model cache unreadable: " + model_cache_file(dir, id));
  }
  return bundle;
}

core::TestStimulus load_cached_stimulus(const std::string& dir) {
  return core::TestStimulus::load(stimulus_path(dir));
}

}  // namespace perfbench
