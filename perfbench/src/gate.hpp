// Correctness gate: every check is one attempted operation, and a mismatch
// is a failed one. The benchmark reports the tally as `attempted`/`failed`
// and refuses a run (`correct: false`) with any failed operation.
#pragma once

#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "snn/network.hpp"

namespace perfbench {

struct GateTally {
  size_t attempted = 0;
  size_t failed = 0;
  /// Descriptions of the first few failures (for the log).
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  bool ok() const { return failed == 0; }
};

/// The independent naive reference for one (fault, stimulus) pair set: a
/// full Network::forward under fault::ScopedFault per fault, compared with
/// the golden forward exactly as Eq. (3) reads it (no prefix reuse, no
/// pruning, no lanes, no dictionary).
std::vector<snntest::fault::DetectionResult> naive_reference(
    const snntest::snn::Network& net, const snntest::tensor::Tensor& stimulus,
    const std::vector<snntest::fault::FaultDescriptor>& faults);

/// Re-simulate faults[i] for every i in `picks` with naive_reference and
/// require every DetectionResult field of results[i] to match (one
/// operation per pair).
void check_against_reference(const snntest::snn::Network& net,
                             const snntest::tensor::Tensor& stimulus,
                             const std::vector<snntest::fault::FaultDescriptor>& faults,
                             const std::vector<size_t>& picks,
                             const std::vector<snntest::fault::DetectionResult>& results,
                             const std::string& label, GateTally& tally);

}  // namespace perfbench
