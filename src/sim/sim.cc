#include "src/sim/sim.h"

#include <algorithm>
#include <cassert>
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
  // Captures fit std::function's inline buffer: no closure is allocated.
  sim_.at(start, [this, start] { run_current(start); });
}

void SimCore::run_current(Time start) {
  CoreTask task = std::move(current_);
  Context ctx(sim_, *this, start);
  task(ctx);
  busy_cycles_ += ctx.charged();
  ++tasks_run_;
  free_at_ = start + sim_.costs().cycles_to_time(ctx.charged());
  if (free_at_ > sim_.now()) {
    sim_.at(free_at_, [this] { schedule_next(); });
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

void Simulator::fire(Time t) {
  now_ = std::max(now_, t);
  events_.pop_and_run();
}

bool Simulator::step() {
  if (events_.empty()) return false;
  fire(events_.next_time());
  return true;
}

void Simulator::run_until(Time t) {
  while (!events_.empty()) {
    const Time next = events_.next_time();
    if (next > t) break;
    fire(next);
  }
  now_ = std::max(now_, t);
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

}  // namespace newtos::sim
