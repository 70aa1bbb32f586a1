#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace newtos::sim {

EventId EventQueue::push(Time t, EventFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    fns_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  fns_[slot] = std::move(fn);
  heap_.push_back(Entry{EventKey{t, take_seq()}, slot});
  sift_up(heap_.size() - 1);
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.pos == kFree || s.gen != static_cast<std::uint32_t>(id >> 32))
    return false;
  // Destroyed on return, after the heap is consistent: the closure's
  // destructor may push or cancel events itself.
  EventFn dead = std::exchange(fns_[slot], nullptr);
  remove_at(s.pos);
  return true;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(e.key < heap_[parent].key)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
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
      if (heap_[c].key < heap_[best].key) best = c;
    }
    if (!(heap_[best].key < e.key)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  const std::uint32_t slot = heap_[i].slot;
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // keep ids non-zero across wrap-around
  s.pos = kFree;
  free_slots_.push_back(slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (i > 0 && last.key < heap_[(i - 1) / 4].key) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

bool EventQueue::pop_and_run() {
  if (heap_.empty()) return false;
  // Move the handler out before popping so the event may schedule more work.
  EventFn fn = std::exchange(fns_[heap_.front().slot], nullptr);
  remove_at(0);
  fn();
  return true;
}

}  // namespace newtos::sim
