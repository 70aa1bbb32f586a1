// Deterministic discrete-event queue.
//
// Events with equal timestamps fire in submission order, which keeps every
// simulation run bit-for-bit reproducible regardless of host scheduling.
//
// Layout.  The heap holds 24-byte POD entries {t, seq, slot} in a 4-ary
// heap ordered by (t, seq); seq is a per-queue submission counter, so the
// order is total and independent of the heap's shape.  Callbacks live in a
// slab of slots beside the heap and are never moved by a sift.  An EventId
// is (generation << 32) | slot: cancel() checks the slot's generation, so
// an id whose slot was recycled cancels nothing.  A cancelled callback is
// destroyed at once; its heap entry is dropped lazily when it surfaces, and
// only then is the slot reused (LIFO).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace newtos::sim {

using EventFn = std::function<void()>;
// Never 0: timer owners use 0 as "no event".
using EventId = std::uint64_t;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `t`.  Returns an id usable with cancel().
  EventId push(Time t, EventFn fn);

  // Cancels a pending event.  Returns false if it already fired or was
  // cancelled before.  O(1); the heap entry is dropped lazily.
  bool cancel(EventId id);

  // Fires the earliest pending event.  Returns false when empty.
  bool pop_and_run();

  // Live (pending, not cancelled) events.
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Timestamp of the earliest live event; undefined when empty().
  Time next_time();

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    bool live = false;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the root entry and recycles its slot.
  void pop_root();
  void drop_cancelled();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace newtos::sim
