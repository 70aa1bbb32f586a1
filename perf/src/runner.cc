#include "runner.h"

#include <chrono>

namespace perf {

namespace sim = newtos::sim;

Runner::Runner(newtos::Testbed& tb, bool trace) : tb_(tb), trace_(trace) {}

void Runner::run(sim::Time end) {
  bool stopped = false;
  tb_.sim().at(end, [&stopped] { stopped = true; });
  if (trace_) {
    run_traced(stopped);
  } else {
    tb_.run_until(end);
  }
}

void Runner::run_traced(const bool& stopped) {
  sim::Simulator& s = tb_.sim();
  const std::string dut_prefix = tb_.newtos().config().name + ".";
  std::vector<std::string> names;
  std::vector<double> spent;
  std::vector<std::size_t> bucket_of;  // core index -> bucket
  std::vector<std::uint64_t> tasks;    // core index -> tasks_run seen
  auto bucket = [&](const std::string& name) {
    for (std::size_t b = 0; b < names.size(); ++b) {
      if (names[b] == name) return b;
    }
    names.push_back(name);
    spent.push_back(0.0);
    return names.size() - 1;
  };
  const std::size_t other = bucket("other");
  for (std::size_t i = 0; i < s.core_count(); ++i) {
    const std::string& core = s.core(i).name();
    std::string name = "peer";
    if (core.rfind(dut_prefix, 0) == 0) {
      name = core.substr(dut_prefix.size());
      if (tb_.newtos().server(name) == nullptr) name = "apps";
    }
    bucket_of.push_back(bucket(name));
    tasks.push_back(s.core(i).tasks_run());
  }

  using Clock = std::chrono::steady_clock;
  auto last = Clock::now();
  while (!stopped && s.step()) {
    ++events_;
    std::size_t charged = other;
    // One event runs at most one core task, so the first core whose task
    // count moved is the one that ran.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::uint64_t t = s.core(i).tasks_run();
      if (t != tasks[i]) {
        tasks[i] = t;
        charged = bucket_of[i];
        break;
      }
    }
    const auto now = Clock::now();
    spent[charged] += std::chrono::duration<double>(now - last).count();
    last = now;
  }
  for (std::size_t b = 0; b < names.size(); ++b) {
    host_seconds_[names[b]] += spent[b];
  }
}

}  // namespace perf
