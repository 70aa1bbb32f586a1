#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace perf {

void Samples::add_failed() {
  v_.push_back(std::numeric_limits<double>::infinity());
  sorted_ = false;
}

Samples::Percentile Samples::at(double p) const {
  Percentile out;
  out.n = v_.size();
  if (v_.empty()) return out;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v_.size())));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, v_.size()) - 1;
  out.value = v_[idx];
  out.beyond = v_.size() - idx - 1;
  return out;
}

namespace {

std::uint64_t pattern_word(std::uint64_t key, std::uint64_t index) {
  std::uint64_t z = key * 0x9e3779b97f4a7c15ULL + index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void pattern_fill(std::span<std::byte> out, std::uint64_t key,
                  std::uint64_t offset) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t word = pattern_word(key, pos / 8);
    const std::size_t skip = static_cast<std::size_t>(pos % 8);
    const std::size_t take = std::min<std::size_t>(8 - skip, out.size() - done);
    std::byte bytes[8];
    std::memcpy(bytes, &word, 8);
    std::memcpy(out.data() + done, bytes + skip, take);
    done += take;
  }
}

bool pattern_check(std::span<const std::byte> in, std::uint64_t key,
                   std::uint64_t offset) {
  std::byte expect[4096];
  std::size_t done = 0;
  while (done < in.size()) {
    const std::size_t n = std::min(sizeof(expect), in.size() - done);
    pattern_fill(std::span<std::byte>(expect, n), key, offset + done);
    if (std::memcmp(expect, in.data() + done, n) != 0) return false;
    done += n;
  }
  return true;
}

}  // namespace perf
