#include "gate.hpp"

#include <cmath>

#include "coverage/fault_dictionary.hpp"
#include "fault/injector.hpp"
#include "snn/spike_train.hpp"

namespace perfbench {

using namespace snntest;

void GateTally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

std::vector<fault::DetectionResult> naive_reference(const snn::Network& net,
                                                    const tensor::Tensor& stimulus,
                                                    const std::vector<fault::FaultDescriptor>& faults) {
  snn::Network golden_net(net);
  const auto golden = golden_net.forward(stimulus);
  const auto golden_counts = golden.output_counts();
  const auto stats = fault::compute_weight_stats(golden_net);
  snn::Network worker(net);
  fault::FaultInjector injector(worker, stats);
  std::vector<fault::DetectionResult> results(faults.size());
  for (size_t j = 0; j < faults.size(); ++j) {
    fault::ScopedFault scoped(injector, faults[j]);
    const auto faulty = worker.forward(stimulus);
    auto& r = results[j];
    r.output_l1 = snn::output_distance(golden.output(), faulty.output());
    r.detected = r.output_l1 > 0.0;
    // First frame whose cumulative output L1 exceeds the (zero) threshold.
    const auto& g = golden.output();
    const auto& f = faulty.output();
    const size_t frames = g.shape().dim(0);
    const size_t width = g.shape().dim(1);
    double acc = 0.0;
    for (size_t t = 0; t < frames && r.first_detection_frame < 0; ++t) {
      for (size_t c = 0; c < width; ++c) {
        acc += std::abs(static_cast<double>(g[t * width + c]) - static_cast<double>(f[t * width + c]));
      }
      if (acc > 0.0) r.first_detection_frame = static_cast<int64_t>(t);
    }
    const auto counts = faulty.output_counts();
    r.class_count_diff.resize(counts.size());
    for (size_t c = 0; c < counts.size(); ++c) {
      r.class_count_diff[c] = static_cast<long>(counts[c]) - static_cast<long>(golden_counts[c]);
    }
  }
  return results;
}

void check_against_reference(const snn::Network& net, const tensor::Tensor& stimulus,
                             const std::vector<fault::FaultDescriptor>& faults,
                             const std::vector<size_t>& picks,
                             const std::vector<fault::DetectionResult>& results,
                             const std::string& label, GateTally& tally) {
  std::vector<fault::FaultDescriptor> picked;
  picked.reserve(picks.size());
  for (size_t i : picks) picked.push_back(faults.at(i));
  const auto reference = naive_reference(net, stimulus, picked);
  for (size_t j = 0; j < picks.size(); ++j) {
    tally.check(coverage::results_identical(reference[j], results.at(picks[j])),
                label + ": fault " + std::to_string(picks[j]) + " (" +
                    faults[picks[j]].to_string() + ") differs from the naive reference");
  }
}

}  // namespace perfbench
