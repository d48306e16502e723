#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

namespace perfbench {
namespace {

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

CheckResult oracle_agreement(const Evidence& ev) {
  CheckResult r{"f32_vs_f64_tape", !ev.served.empty(), ""};
  double worst = 0.0;
  for (std::size_t i = 0; i < ev.served.size(); ++i) {
    const double gap = std::fabs(ev.served[i] - ev.oracle[i]) /
                       std::fabs(ev.oracle[i]);
    if (!(gap <= kOracleTolerance)) r.passed = false;
    if (gap > worst || std::isnan(gap)) worst = gap;
  }
  r.detail = fmt("%.0f requests, worst relative gap %.3g (budget %.0e)",
                 static_cast<double>(ev.served.size()), worst,
                 kOracleTolerance);
  return r;
}

CheckResult simulator_agreement(const Evidence& ev) {
  CheckResult r{"error_vs_simulator", !ev.served.empty(), ""};
  double worst = 0.0;
  for (std::size_t i = 0; i < ev.served.size(); ++i) {
    const double err = std::fabs(ev.served[i] - ev.expected[i]) /
                       ev.expected[i];
    if (!(err <= kMaxRelErr)) r.passed = false;
    if (err > worst || std::isnan(err)) worst = err;
  }
  r.detail = fmt("worst relative error %.3g (bound %.2f)", worst, kMaxRelErr);
  return r;
}

CheckResult accounting(const Evidence& ev) {
  const std::uint64_t sum = ev.cache_hits + ev.cache_misses + ev.reuse_hits;
  CheckResult r{"accounting",
                ev.client_successes == ev.completed && ev.completed == sum,
                ""};
  r.detail = "client successes " + std::to_string(ev.client_successes) +
             ", completed " + std::to_string(ev.completed) +
             ", hits+misses+reuse " + std::to_string(sum);
  return r;
}

CheckResult batch_invariance(const Evidence& ev) {
  CheckResult r{"batch_vs_lone_bits", ev.lone.size() == ev.served.size(), ""};
  std::size_t differ = 0;
  for (std::size_t i = 0; i < ev.lone.size() && i < ev.served.size(); ++i) {
    if (std::memcmp(&ev.lone[i], &ev.served[i], sizeof(double)) != 0) {
      ++differ;
    }
  }
  if (differ != 0) r.passed = false;
  r.detail = std::to_string(differ) + " of " + std::to_string(ev.lone.size()) +
             " batched results differ from a lone predict";
  return r;
}

CheckResult repeat_consistency(const Evidence& ev) {
  return {"repeat_consistency", ev.repeat_mismatches == 0,
          std::to_string(ev.repeat_mismatches) +
              " repeats served a value different from the first"};
}

CheckResult log_bound(const Evidence& ev) {
  const bool overflowed = ev.observations > ev.log_capacity;
  CheckResult r{"observation_log_bound",
                ev.log_size <= ev.log_capacity &&
                    (overflowed || !ev.require_log_overflow),
                ""};
  r.detail = "log holds " + std::to_string(ev.log_size) + " of capacity " +
             std::to_string(ev.log_capacity) + " after " +
             std::to_string(ev.observations) + " observations";
  return r;
}

struct Check {
  std::function<CheckResult(const Evidence&)> run;
  std::function<bool(const Evidence&)> applies;
  std::function<void(Evidence&)> perturb;
};

std::vector<Check> all_checks() {
  auto always = [](const Evidence&) { return true; };
  return {
      {oracle_agreement, always, [](Evidence& e) { e.served[0] *= 1.001; }},
      {simulator_agreement, always,
       [](Evidence& e) { e.served[0] = e.expected[0] * (1.0 + 2 * kMaxRelErr); }},
      {accounting, always, [](Evidence& e) { --e.client_successes; }},
      {batch_invariance, [](const Evidence& e) { return !e.lone.empty(); },
       [](Evidence& e) { e.lone[0] = std::nextafter(e.lone[0], 0.0); }},
      {repeat_consistency, always, [](Evidence& e) { ++e.repeat_mismatches; }},
      {log_bound, always, [](Evidence& e) { e.log_size = e.log_capacity + 1; }},
  };
}

}  // namespace

std::vector<CheckResult> run_checks(const Evidence& ev) {
  std::vector<CheckResult> out;
  for (const Check& c : all_checks()) {
    if (c.applies(ev)) out.push_back(c.run(ev));
  }
  return out;
}

std::vector<CheckResult> self_test(const Evidence& ev) {
  std::vector<CheckResult> out;
  if (ev.served.empty()) return out;  // run_checks already failed the run
  for (const Check& c : all_checks()) {
    if (!c.applies(ev)) continue;
    Evidence bad = ev;
    c.perturb(bad);
    const CheckResult r = c.run(bad);
    out.push_back({r.name, !r.passed, "perturbed: " + r.detail});
  }
  return out;
}

}  // namespace perfbench
