// Named metrics, percentiles and content patterns shared by the workloads.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perf {

// Units.  Simulated-machine times carry a "sim_" prefix: they are virtual
// time of the modelled testbed, deterministic for a seed, and never host
// wall time.
inline constexpr const char* kUnitSimUs = "sim_us";
inline constexpr const char* kUnitSimMs = "sim_ms";

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

// A latency sample set.  Failed requests are recorded as +infinity: they
// count as beyond any limit, so they can only push percentiles up.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void add_failed();

  struct Percentile {
    double value = 0.0;
    std::size_t n = 0;       // sample count
    std::size_t beyond = 0;  // samples strictly ranked above the percentile
    // Ten samples beyond the percentile are the least that support it.
    bool supported() const { return beyond >= 10; }
  };
  // Nearest-rank percentile, p in (0, 1].
  Percentile at(double p) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

// Deterministic content: byte `offset` of the stream named `key`.  Writers
// fill and readers check whole spans at once, eight bytes per step.
void pattern_fill(std::span<std::byte> out, std::uint64_t key,
                  std::uint64_t offset);
bool pattern_check(std::span<const std::byte> in, std::uint64_t key,
                   std::uint64_t offset);

}  // namespace perf
