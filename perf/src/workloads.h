// The benchmark's workloads.  Each one builds a Testbed through the public
// API, starts its applications, runs to a fixed simulated end time and
// reports simulated-machine metrics plus the results of its output checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "probe.h"
#include "src/core/testbed.h"

namespace perf {

namespace sim = newtos::sim;

struct RunConfig {
  std::uint64_t seed = 1;
  bool trace = false;  // record RPC spans (traced runs only)
};

// What one run of a workload produced.
struct RunResult {
  // Simulated-machine metrics; a pure function of the seed, so every run
  // of one seed must produce the same map, traced or not.
  Metrics sim;
  // Simulated metrics that only traced runs record (RPC spans).
  Metrics traced;
  // Every percentile behind a metric, with its sample count.
  std::map<std::string, Samples::Percentile> percentiles;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  newtos::Testbed& tb() { return *tb_; }
  // Simulated end time; the workload's counters are read by events queued
  // at or before it.
  virtual sim::Time end() const = 0;
  // Called after the run; fills every metric the workload measures.
  virtual void collect(RunResult& out) = 0;

 protected:
  // Queues an event at `t` that reads the DUT's counters into `into`.
  void snapshot_at(sim::Time t, Counters& into);
  Counters observe();
  double ghz() const { return tb_->sim().costs().ghz; }

  std::unique_ptr<newtos::Testbed> tb_;
  CounterTrack track_;
};

struct Workload {
  std::string name;
  std::string why;
  std::function<std::unique_ptr<Scenario>(const RunConfig&)> make;
};

const std::vector<Workload>& workloads();

// Every metric the benchmark reports, name -> unit.  A workload that does
// not exercise a per-layer metric reports it as zero.
const std::map<std::string, std::string>& end_to_end_catalog();
const std::map<std::string, std::string>& per_layer_catalog();

}  // namespace perf
