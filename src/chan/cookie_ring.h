// In-flight requests indexed by their cookie: the owner side of the
// TX_DONE bookkeeping (Section V-C "Zero Copy").
//
// A requester numbers its requests with rising cookies and holds each one
// here until the consumer's done-report comes back.  Reports may return in
// any order and may be lost on a full queue, so every report also carries a
// cumulative mark, like a NIC's head-pointer write-back: everything below
// the mark is complete.  take_below() drops all of that in one sweep, which
// is what keeps a lost report from stranding its request.
//
// A ring of slots indexed by cookie: put() appends at the high end (cookies
// rise; gaps stay empty slots), take() empties any slot, and the low end
// advances past empty slots, so the ring spans from the oldest request still
// held to the newest.  Once it has grown to that span nothing allocates.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace newtos::chan {

template <typename T>
class CookieRing {
 public:
  bool empty() const { return held_ == 0; }
  std::size_t size() const { return held_; }
  // The oldest request still held.  Only valid when !empty().
  std::uint64_t front_cookie() const { return head_; }
  const T& front() const { return slot(head_).value; }

  // Holds `value` under `cookie`, which must exceed every cookie still
  // held.
  void put(std::uint64_t cookie, T value) {
    if (held_ == 0) head_ = end_ = cookie;
    assert(cookie >= end_ && "cookies must rise");
    if (cookie - head_ >= slots_.size()) grow(cookie - head_ + 1);
    Slot& s = slot(cookie);
    s.value = std::move(value);
    s.held = true;
    ++held_;
    end_ = cookie + 1;
  }

  // Moves the value held under `cookie` into `out`; false when none is.
  bool take(std::uint64_t cookie, T& out) {
    T* v = find(cookie);
    if (v == nullptr) return false;
    out = std::move(*v);
    vacate(cookie);
    advance();
    return true;
  }

  // Removes every value held under a cookie below `mark`, oldest first,
  // handing each to fn(cookie, T&&).
  template <typename Fn>
  void take_below(std::uint64_t mark, Fn&& fn) {
    while (head_ < end_ && head_ < mark) {
      Slot& s = slot(head_);
      if (s.held) {
        T v = std::move(s.value);
        vacate(head_);
        fn(head_, std::move(v));
      }
      ++head_;
    }
    advance();
  }

  // Removes everything, oldest first, through fn(cookie, T&&).
  template <typename Fn>
  void drain(Fn&& fn) {
    take_below(end_, std::forward<Fn>(fn));
  }
  void clear() {
    drain([](std::uint64_t, T&&) {});
  }

 private:
  struct Slot {
    T value{};
    bool held = false;
  };

  // The value held under `cookie`, or null.
  T* find(std::uint64_t cookie) {
    if (cookie < head_ || cookie >= end_) return nullptr;
    Slot& s = slot(cookie);
    return s.held ? &s.value : nullptr;
  }

  Slot& slot(std::uint64_t cookie) {
    return slots_[cookie & (slots_.size() - 1)];
  }
  const Slot& slot(std::uint64_t cookie) const {
    return slots_[cookie & (slots_.size() - 1)];
  }
  void vacate(std::uint64_t cookie) {
    Slot& s = slot(cookie);
    s.value = T{};
    s.held = false;
    --held_;
  }
  // Moves the low end past empty slots.
  void advance() {
    while (head_ < end_ && !slot(head_).held) ++head_;
  }
  // Re-homes the held span into a power-of-two ring of at least `span`.
  void grow(std::uint64_t span) {
    std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    while (cap < span) cap *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    if (old.empty()) return;
    const std::size_t old_mask = old.size() - 1;
    for (std::uint64_t c = head_; c < end_; ++c) {
      Slot& from = old[c & old_mask];
      if (from.held) slot(c) = std::move(from);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::uint64_t head_ = 0;   // oldest cookie that may be held
  std::uint64_t end_ = 0;    // one past the newest cookie put
  std::size_t held_ = 0;
};

}  // namespace newtos::chan
