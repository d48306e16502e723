// Output checks, computed apart from the serving path.
//
// Each check reads an Evidence record gathered after the timed phase and
// returns pass/fail with a one-line detail.  self_test() perturbs a copy of
// the evidence once per check (one prediction scaled by 1.001, one result
// dropped, one bit flipped) and reports whether each check caught it, so a
// check that can no longer fail shows up as a failed run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// DESIGN.md §15: the f32 engine's end-to-end prediction shift from the f64
// oracle stays within 1e-4 relative.
inline constexpr double kOracleTolerance = 1e-4;
// Bound on |served − DdlSimulator::expected| / expected for a request on its
// dataset's campaign server type (the paper reports 1–30 % per workload).
inline constexpr double kMaxRelErr = 0.5;

struct Evidence {
  // Aligned per distinct request served: the served f32 prediction, the
  // f64 autograd-tape prediction of the same request, and the simulator's
  // noise-free time.
  std::vector<double> served;
  std::vector<double> oracle;
  std::vector<double> expected;
  // predict_batch workloads only: a lone, uncached predict of each request.
  std::vector<double> lone;
  // Repeats of one request whose served value differed from its first.
  std::uint64_t repeat_mismatches = 0;
  // Accounting: successes the clients counted vs the service's counters.
  std::uint64_t client_successes = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t reuse_hits = 0;
  // Observation log bound.
  std::uint64_t log_size = 0;
  std::uint64_t log_capacity = 0;
  std::uint64_t observations = 0;
  bool require_log_overflow = false;  // the workload observes past capacity
};

struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;
};

std::vector<CheckResult> run_checks(const Evidence& ev);

// One entry per check: passed means the perturbed evidence was rejected.
std::vector<CheckResult> self_test(const Evidence& ev);

}  // namespace perfbench
