#include "src/sim/sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace newtos::sim {

Time Context::now() const {
  return start_ + sim_.costs().cycles_to_time(charged_);
}

SimCore::SimCore(Simulator& sim, std::string name, int index)
    : sim_(sim), name_(std::move(name)), index_(index) {}

void SimCore::exec(Time earliest, CoreTask task) {
  tasks_.push_back(Pending{earliest, std::move(task)});
  if (!running_) schedule_next();
}

void SimCore::schedule_next() {
  if (tasks_.empty()) {
    running_ = false;
    return;
  }
  running_ = true;
  Pending& next = tasks_.front();
  const Time start = std::max({next.earliest, sim_.now(), free_at_});
  current_ = std::move(next.task);
  tasks_.pop_front();
  starting_ = true;
  sim_.lane_push(*this, start);
}

void SimCore::run_current(Time start) {
  CoreTask task = std::move(current_);
  Context ctx(sim_, *this, start);
  task(ctx);
  busy_cycles_ += ctx.charged();
  ++tasks_run_;
  free_at_ = start + sim_.costs().cycles_to_time(ctx.charged());
  if (free_at_ > sim_.now()) {
    starting_ = false;
    sim_.lane_push(*this, free_at_);
  } else {
    schedule_next();
  }
}

void SimCore::on_lane(Time t) {
  if (starting_) {
    run_current(t);
  } else {
    schedule_next();
  }
}

double SimCore::utilization(Time window) const {
  if (window <= 0) return 0.0;
  const double busy_ns =
      static_cast<double>(busy_cycles_) / sim_.costs().ghz;
  return busy_ns / static_cast<double>(window);
}

EventId Simulator::at(Time t, EventFn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  return events_.push(std::max(t, now_), std::move(fn));
}

EventId Simulator::after(Time delay, EventFn fn) {
  return at(now_ + std::max<Time>(delay, 0), std::move(fn));
}

SimCore& Simulator::add_core(std::string name) {
  cores_.push_back(std::make_unique<SimCore>(
      *this, std::move(name), static_cast<int>(cores_.size())));
  return *cores_.back();
}

void Simulator::lane_push(SimCore& core, Time t) {
  assert(t >= now_ && "cannot schedule into the past");
  const LaneEntry e{EventKey{std::max(t, now_), events_.take_seq()}, &core};
  std::size_t i = lane_.size();
  lane_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e.key < lane_[parent].key)) break;
    lane_[i] = lane_[parent];
    i = parent;
  }
  lane_[i] = e;
}

void Simulator::fire_lane() {
  const LaneEntry top = lane_.front();
  const LaneEntry last = lane_.back();
  lane_.pop_back();
  const std::size_t n = lane_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && lane_[child + 1].key < lane_[child].key) ++child;
      if (!(lane_[child].key < last.key)) break;
      lane_[i] = lane_[child];
      i = child;
    }
    lane_[i] = last;
  }
  now_ = std::max(now_, top.key.t);
  top.core->on_lane(top.key.t);
}

bool Simulator::fire_next(Time limit) {
  if (!lane_.empty() &&
      (events_.empty() || lane_.front().key < events_.next_key())) {
    if (lane_.front().key.t > limit) return false;
    fire_lane();
    return true;
  }
  if (events_.empty()) return false;
  const Time next = events_.next_time();
  if (next > limit) return false;
  now_ = std::max(now_, next);
  events_.pop_and_run();
  return true;
}

bool Simulator::step() {
  return fire_next(std::numeric_limits<Time>::max());
}

void Simulator::run_until(Time t) {
  while (fire_next(t)) {
  }
  now_ = std::max(now_, t);
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

}  // namespace newtos::sim
