#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace newtos::sim {

EventId EventQueue::push(Time t, EventFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  heap_.push_back(Entry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  s.live = false;
  --live_;
  // Destroyed on return, after the slot is consistent: the closure's
  // destructor may push or cancel events itself.
  EventFn dead = std::exchange(s.fn, nullptr);
  return true;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_root() {
  const std::uint32_t slot = heap_.front().slot;
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // keep ids non-zero across wrap-around
  free_slots_.push_back(slot);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) pop_root();
}

bool EventQueue::pop_and_run() {
  drop_cancelled();
  if (heap_.empty()) return false;
  // Move the handler out before popping so the event may schedule more work.
  Slot& s = slots_[heap_.front().slot];
  EventFn fn = std::move(s.fn);
  s.live = false;
  --live_;
  pop_root();
  fn();
  return true;
}

Time EventQueue::next_time() {
  drop_cancelled();
  return heap_.front().t;
}

}  // namespace newtos::sim
