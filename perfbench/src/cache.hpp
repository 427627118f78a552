// The benchmark's own model/stimulus cache and its stale-cache guard.
//
// prepare_cache() is the one-time, untimed prepare step: it trains the
// three zoo models into `dir` (the same train-once semantics as
// zoo::load_or_train, but in a directory the benchmark owns), generates the
// SHD stimulus whose dense chunks join the coverage-shd dictionary, and
// writes a manifest with each model's fingerprint, topology hash and
// accuracy plus the stimulus digest. check_cache() re-derives all of them
// before every run; a stale or foreign cache shows up as failed gate
// operations instead of silently skewing setup time or coverage numbers.
#pragma once

#include <string>

#include "core/test_stimulus.hpp"
#include "gate.hpp"
#include "zoo/model_zoo.hpp"

namespace perfbench {

/// Training-budget scale (1.0 = the zoo default; the self-test uses a tiny
/// budget so it runs in seconds).
void prepare_cache(const std::string& dir, double train_budget = 1.0);

/// Verify the cached `id` model (fingerprint, topology, accuracy) and, for
/// SHD, the cached stimulus digest. One gate operation per property.
void check_cache(const std::string& dir, snntest::zoo::BenchmarkId id, GateTally& tally);

/// Warm model load from the cache (never trains: a missing model throws).
snntest::zoo::BenchmarkBundle load_cached_model(const std::string& dir,
                                                snntest::zoo::BenchmarkId id);

snntest::core::TestStimulus load_cached_stimulus(const std::string& dir);

std::string model_cache_file(const std::string& dir, snntest::zoo::BenchmarkId id);

/// FNV-1a of a file's bytes (the stimulus and SNFD digests).
uint64_t file_digest(const std::string& path);

}  // namespace perfbench
