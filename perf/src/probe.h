// Reads the system under test's cumulative counters from outside, through
// public accessors only, and turns counter deltas into per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "src/core/testbed.h"

namespace perf {

// Raw counters, keyed "<source>.<counter>" ("tcp0.segs_in", "nic2.resets",
// "busy.ip").
using Counters = std::map<std::string, std::uint64_t>;

Counters read_counters(newtos::Testbed& tb);

// Sums counters across restarts.  A restarted server (a fresh TCP engine, a
// re-created driver) counts from zero again; a counter that went down is
// taken to have restarted, and its last reading is banked.
class CounterTrack {
 public:
  void observe(const Counters& now);
  const Counters& totals() const { return totals_; }

 private:
  Counters last_;
  Counters banked_;
  Counters totals_;
};

// The DUT server names every workload reports, so that each one prints the
// same per-layer metrics (a server a workload does not run reads zero).
const std::vector<std::string>& reported_servers();

// Per-layer metrics of the window between two counter totals.
struct WindowInfo {
  newtos::sim::Time window = 0;  // simulated length
  std::uint64_t app_bytes = 0;   // application bytes delivered in it
  double link_gbps = 1.0;        // per-link capacity
  double ghz = 1.0;              // simulated core clock
};
void layer_metrics(const Counters& start, const Counters& end,
                   const WindowInfo& w, Metrics& out);

// All DUT cores' busy cycles in the window per KB delivered.
double dut_cycles_per_kb(const Counters& start, const Counters& end,
                         std::uint64_t app_bytes);

}  // namespace perf
