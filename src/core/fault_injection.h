// SWIFI-style fault injection (Section VI-B).
//
// The paper injected 100 random faults per run with the tool used for Rio,
// Nooks and MINIX 3; faults manifested mostly as crashes, sometimes as
// hangs, silent misbehaviour, slowdowns, or hangs of the unconverted
// synchronous (select/VFS) part of the system.  We model the *manifestation*
// classes directly and let the recovery machinery determine the outcome:
//
//   Crash       -> process dies; reincarnation restarts it immediately
//   Hang        -> stops processing; caught by heartbeat timeouts
//   SilentWedge -> answers heartbeats but drops work; needs manual restart
//   Slowdown    -> keeps running at a fraction of its speed; manual restart
//   DeviceWedge -> (drivers) NIC misconfigured, drops frames until reset
//   SyncHang    -> the unconverted synchronous part wedges: reboot required
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace newtos {

class Node;

enum class FaultType {
  Crash,
  Hang,
  SilentWedge,
  Slowdown,
  DeviceWedge,
  SyncHang,
};

const char* to_string(FaultType t);

class FaultInjector {
 public:
  FaultInjector(Node& node, std::uint64_t seed);

  // Applies a fault immediately.  `slowdown_factor` only matters for
  // Slowdown: 8.0 is the paper-era mild degradation (detectable only when
  // it breaches the supervision SLO); campaigns inject 64.0, which
  // overloads any component with real traffic on it.
  void inject(const std::string& component, FaultType type,
              double slowdown_factor = 8.0);
  // Schedules a fault at an absolute virtual time.
  void inject_at(sim::Time t, const std::string& component, FaultType type,
                 double slowdown_factor = 8.0);

  // Campaign draws.  Components follow the paper's observed crash
  // distribution (Table III: TCP 25, UDP 10, IP 24, PF 25, driver 16);
  // manifestations follow the rates implied by Table IV.
  std::string pick_component();
  FaultType pick_fault(const std::string& component);

  // A whole seeded SWIFI campaign, planned up front so it can be printed,
  // replayed (`bench_faults --campaign-seed=N`) and checked for coverage.
  // Components follow Table III; manifestations follow a supervised remix
  // of the Table IV rates that exercises every rung of the escalation
  // ladder: silent wedges and slowdowns are injected into any component
  // class that can manifest them detectably (slowdown needs a backlog to
  // queue behind, so it goes to tcp/ip/pf — a lightly loaded UDP server
  // answers a probe in microseconds even at 1/8 speed).  The plan is then
  // patched so all six manifestation classes appear at least once.
  struct PlannedFault {
    std::string component;
    FaultType type = FaultType::Crash;
  };
  std::vector<PlannedFault> plan_campaign(int n);

  struct Record {
    sim::Time at = 0;
    std::string component;
    FaultType type = FaultType::Crash;
  };
  const std::vector<Record>& history() const { return history_; }

 private:
  Node& node_;
  sim::Rng rng_;
  std::vector<Record> history_;
};

}  // namespace newtos
