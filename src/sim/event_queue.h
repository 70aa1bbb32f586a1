// Deterministic discrete-event queue.
//
// Events with equal timestamps fire in submission order, which keeps every
// simulation run bit-for-bit reproducible regardless of host scheduling.
//
// Layout.  The heap holds 24-byte POD entries {t, seq, slot} in a 4-ary
// heap ordered by (t, seq); seq is a per-queue submission counter, so the
// order is total and independent of the heap's shape.  Callbacks live in a
// slab of slots beside the heap and are never moved by a sift; each slot
// records its entry's heap position.  An EventId is (generation << 32) |
// slot.  cancel() checks the slot's generation, so an id whose slot was
// recycled cancels nothing; it removes the entry at once (the last entry
// fills the hole and sifts up or down) and recycles the slot (LIFO) with
// its generation bumped.  The heap therefore holds only pending events.
//
// take_seq() hands out a submission number without queuing anything.  The
// Simulator's per-core lane draws its keys from it, so lane events and
// heap events share one (t, seq) order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace newtos::sim {

using EventFn = std::function<void()>;
// Never 0: timer owners use 0 as "no event".
using EventId = std::uint64_t;

// Firing order: by time, then by submission number.
struct EventKey {
  Time t;
  std::uint64_t seq;
};
inline bool operator<(const EventKey& a, const EventKey& b) {
  return a.t < b.t || (a.t == b.t && a.seq < b.seq);
}

class EventQueue {
 public:
  // Schedules `fn` at absolute time `t`.  Returns an id usable with cancel().
  EventId push(Time t, EventFn fn);

  // Cancels a pending event and removes it from the heap.  Returns false if
  // it already fired or was cancelled before.  O(log n).
  bool cancel(EventId id);

  // Fires the earliest pending event.  Returns false when empty.
  bool pop_and_run();

  // Pending events (cancelled ones are gone at once).
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Key and timestamp of the earliest pending event; undefined when empty().
  const EventKey& next_key() const { return heap_.front().key; }
  Time next_time() const { return heap_.front().key.t; }

  // The submission number the next push would get, consumed.
  std::uint64_t take_seq() { return next_seq_++; }

 private:
  struct Entry {
    EventKey key;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kFree;  // heap index, or kFree
  };
  static constexpr std::uint32_t kFree = UINT32_MAX;

  // Writes `e` at heap index `i` and records the position in its slot.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the entry at heap index `i` and recycles its slot.
  void remove_at(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<EventFn> fns_;  // by slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace newtos::sim
