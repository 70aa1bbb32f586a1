// Drives a testbed's simulator to an end time, untraced or traced.
//
// Untraced, the run is one Simulator::run_until() call.  Traced, it drives
// Simulator::step() one event at a time, times each call on the host clock
// and charges the time to the simulated core whose task ran in that event
// (the core whose tasks_run advanced), or to "other" for wire deliveries,
// timers and NIC events.  Both modes stop right after a stop event queued at
// the end time, and workloads read their counters from events they queued
// at setup, so both modes observe identical simulated state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/testbed.h"

namespace perf {

class Runner {
 public:
  Runner(newtos::Testbed& tb, bool trace);

  void run(newtos::sim::Time end);

  // Events executed (traced runs only; zero otherwise).
  std::uint64_t events() const { return events_; }
  // Host seconds charged per bucket: a DUT server name ("tcp1", "drv0"),
  // "apps" for the DUT's application cores, "peer" for every core of the
  // traffic peer, and "other" (traced runs only).
  const std::map<std::string, double>& host_seconds() const {
    return host_seconds_;
  }

 private:
  void run_traced(const bool& stopped);

  newtos::Testbed& tb_;
  bool trace_;
  std::uint64_t events_ = 0;
  std::map<std::string, double> host_seconds_;
};

}  // namespace perf
