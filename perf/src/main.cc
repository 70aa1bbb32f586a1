// newtos_perf: one run of one benchmark workload.
//
//   newtos_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload's simulated run (same seed, fresh Testbed each time)
// until --seconds of host time are spent, at least once; a traced run
// alternates untraced and traced repetitions, at least one of each.
// wall_s is the median untraced repetition, and setup_s the median of at
// least kMinSetups set-ups.  Prints every metric by name with its unit,
// then, as the last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (untraced) or the
// per-layer metrics (traced).  Exits 1 if any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using perf::Metrics;

// Setup is cheap next to a run, so it is repeated at least this many times
// and reported as a median.
constexpr std::size_t kMinSetups = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::map<std::string, double> host_seconds;
  perf::RunResult result;
};

Rep run_once(const perf::Workload& w, std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  const auto t0 = Clock::now();
  std::unique_ptr<perf::Scenario> sc = w.make({seed, traced});
  rep.setup_s = seconds_since(t0);
  perf::Runner runner(sc->tb(), traced);
  const auto t1 = Clock::now();
  runner.run(sc->end());
  rep.wall_s = seconds_since(t1);
  rep.events = runner.events();
  rep.host_seconds = runner.host_seconds();
  sc->collect(rep.result);
  return rep;  // the Scenario's Testbed runs its loan-leak check here
}

double setup_only(const perf::Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  std::unique_ptr<perf::Scenario> sc = w.make({seed, false});
  return seconds_since(t0);
}

bool same(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [k, m] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second.value != m.value) return false;
  }
  return true;
}

void print_metric(const std::string& name, const perf::Metric& m,
                  const perf::RunResult& r) {
  auto pc = r.percentiles.find(name);
  if (pc == r.percentiles.end()) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  } else if (pc->second.supported()) {
    std::printf("  %-40s %16.6f %s  (n=%zu, %zu beyond)\n", name.c_str(),
                m.value, m.unit.c_str(), pc->second.n, pc->second.beyond);
  } else {
    std::printf("  %-40s %16s %s  (n=%zu, %zu beyond)\n", name.c_str(),
                "unsupported", m.unit.c_str(), pc->second.n,
                pc->second.beyond);
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: newtos_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double budget = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      budget = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = val == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const perf::Workload* w = nullptr;
  for (const perf::Workload& cand : perf::workloads()) {
    if (cand.name == workload) w = &cand;
  }
  if (w == nullptr) return usage();

  std::printf("workload %s (seed %llu, %s): %s\n", w->name.c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", w->why.c_str());

  // Repetitions: until the budget is spent, never starting one that would
  // overrun it by more than the last one took.
  std::vector<Rep> reps;
  const auto t_start = Clock::now();
  for (;;) {
    const bool traced = trace && reps.size() % 2 == 1;
    reps.push_back(run_once(*w, seed, traced));
    const bool have_both = !trace || reps.size() >= 2;
    const double spent = seconds_since(t_start);
    if (have_both && spent + reps.back().wall_s > budget) break;
  }
  std::vector<double> setups, untraced_wall, traced_wall;
  for (const Rep& r : reps) {
    std::printf("repetition (%s): setup %.4f s, run %.4f s\n",
                r.traced ? "traced" : "untraced", r.setup_s, r.wall_s);
    setups.push_back(r.setup_s);
    (r.traced ? traced_wall : untraced_wall).push_back(r.wall_s);
  }
  while (setups.size() < kMinSetups) setups.push_back(setup_only(*w, seed));

  // Output checks: the workload's own, then determinism — every repetition
  // of a seed must reproduce every simulated metric, traced or not.
  const Rep& first = reps.front();
  std::vector<std::string> failures = first.result.check_failures;
  const Rep* first_traced = nullptr;
  for (const Rep& r : reps) {
    if (!same(r.result.sim, first.result.sim)) {
      failures.push_back(std::string("a ") +
                         (r.traced ? "traced" : "untraced") +
                         " repetition changed a simulated metric");
    }
    if (r.traced && first_traced == nullptr) first_traced = &r;
    if (r.traced && !same(r.result.traced, first_traced->result.traced)) {
      failures.push_back("a traced repetition changed an RPC span metric");
    }
  }

  Metrics e2e;
  e2e["goodput_gbps"] = first.result.sim.at("goodput_gbps");
  e2e["dut_cycles_per_kb"] = first.result.sim.at("dut_cycles_per_kb");
  const double wall = median(untraced_wall);
  e2e["wall_s"] = {wall, "s"};
  e2e["setup_s"] = {median(setups), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  Metrics layers;
  for (const auto& [name, unit] : perf::per_layer_catalog()) {
    layers[name] = {0.0, unit};
  }
  for (const auto& [k, m] : first.result.sim) {
    if (layers.count(k)) layers[k] = m;
  }
  const std::uint64_t attempted = first.result.attempted;
  const std::uint64_t failed = first.result.failed;
  layers["failed_ops_frac"].value =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0;
  if (first_traced != nullptr) {
    for (const auto& [k, m] : first_traced->result.traced) layers[k] = m;
    layers["sim.events"].value = static_cast<double>(first_traced->events);
    layers["sim.host_ns_per_event"].value =
        first_traced->events
            ? wall * 1e9 / static_cast<double>(first_traced->events)
            : 0.0;
    layers["sim.trace_overhead"].value = median(traced_wall) / wall;
    double total = 0.0;
    for (const auto& [b, s] : first_traced->host_seconds) total += s;
    for (const auto& [b, s] : first_traced->host_seconds) {
      const std::string key = "host." + b + ".share";
      if (layers.count(key) && total > 0) layers[key].value = s / total;
    }
  }

  std::printf("repetitions: %zu untraced, %zu traced; %zu setups\n",
              untraced_wall.size(), traced_wall.size(), setups.size());
  std::printf("end-to-end:\n");
  for (const auto& [k, m] : e2e) print_metric(k, m, first.result);
  if (trace) {
    std::printf("per-layer:\n");
    const perf::RunResult& r =
        first_traced != nullptr ? first_traced->result : first.result;
    for (const auto& [k, m] : layers) print_metric(k, m, r);
  }
  std::printf("ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (failures.empty()) std::printf("checks: all passed\n");

  const Metrics& out = trace ? layers : e2e;
  std::string json = std::string("{\"correct\": ") +
                     (failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool comma = false;
  for (const auto& [k, m] : out) {
    if (comma) json += ", ";
    comma = true;
    json += "\"" + k + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
