// Unit tests: channels — SPSC rings (incl. a real-thread stress test),
// pools with rich pointers, request database, registry and channel manager.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/chan/channel.h"
#include "src/chan/cookie_ring.h"
#include "src/chan/pool.h"
#include "src/chan/registry.h"
#include "src/chan/request_db.h"
#include "src/chan/spsc_ring.h"
#include "src/sim/rng.h"

using namespace newtos::chan;

// --- SPSC ring -----------------------------------------------------------------------

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FullRejectsWithoutBlocking) {
  SpscRing<int> ring(4);
  int pushed = 0;
  while (ring.try_push(pushed)) ++pushed;
  EXPECT_GE(pushed, 4);
  int out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(99));  // slot freed
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> ring(16);
  EXPECT_TRUE(ring.empty());
  ring.try_push(1);
  ring.try_push(2);
  EXPECT_EQ(ring.size(), 2u);
  int out;
  ring.try_pop(out);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SpscRing, ResetDropsContents) {
  SpscRing<int> ring(8);
  ring.try_push(1);
  ring.reset();
  EXPECT_TRUE(ring.empty());
  int out;
  EXPECT_FALSE(ring.try_pop(out));
}

// Real-concurrency property: with one producer and one consumer thread, all
// items arrive exactly once, in order, with no locks anywhere.
TEST(SpscRing, ConcurrentStressPreservesFifo) {
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(1024);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) {
      }
    }
  });
  std::uint64_t expect = 0;
  while (expect < kItems) {
    std::uint64_t v;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- Pool ------------------------------------------------------------------------------

TEST(Pool, AllocWriteReadRoundTrip) {
  Pool pool(1, "t", 1 << 16);
  RichPtr p = pool.alloc(100);
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.length, 100u);
  auto w = pool.write_view(p);
  w[0] = std::byte{42};
  w[99] = std::byte{7};
  auto r = pool.read_view(p);
  EXPECT_EQ(std::to_integer<int>(r[0]), 42);
  EXPECT_EQ(std::to_integer<int>(r[99]), 7);
}

TEST(Pool, ExhaustionReturnsNull) {
  Pool pool(1, "t", 256);
  RichPtr a = pool.alloc(128);
  RichPtr b = pool.alloc(128);
  RichPtr c = pool.alloc(128);
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(pool.failed_allocs(), 1u);
}

TEST(Pool, FreeListRecyclesChunks) {
  Pool pool(1, "t", 1 << 12);
  RichPtr a = pool.alloc(1000);
  pool.release(a);
  RichPtr b = pool.alloc(1000);  // should reuse the freed slot
  EXPECT_EQ(b.offset, a.offset);
  // Many alloc/free cycles never exhaust a pool with one live chunk.
  for (int i = 0; i < 10000; ++i) {
    RichPtr p = pool.alloc(1000);
    ASSERT_TRUE(p.valid());
    pool.release(p);
  }
}

TEST(Pool, RefcountsDelayFree) {
  Pool pool(1, "t", 1 << 12);
  RichPtr p = pool.alloc(64);
  pool.addref(p);
  EXPECT_FALSE(pool.release(p));  // one ref left
  EXPECT_TRUE(pool.live(p));
  EXPECT_TRUE(pool.release(p));
  EXPECT_FALSE(pool.live(p));
}

TEST(Pool, ResetInvalidatesOldGeneration) {
  Pool pool(1, "t", 1 << 12);
  RichPtr p = pool.alloc(64);
  pool.reset();
  EXPECT_FALSE(pool.live(p));
  EXPECT_TRUE(pool.read_view(p).empty());   // stale pointer reads nothing
  EXPECT_FALSE(pool.release(p));            // stale frees are no-ops
  RichPtr q = pool.alloc(64);
  EXPECT_NE(q.generation, p.generation);
}

TEST(Pool, BytesLiveAccounting) {
  Pool pool(1, "t", 1 << 14);
  RichPtr a = pool.alloc(100);
  RichPtr b = pool.alloc(200);
  EXPECT_EQ(pool.bytes_live(), 300u);
  pool.release(a);
  EXPECT_EQ(pool.bytes_live(), 200u);
  pool.release(b);
  EXPECT_EQ(pool.bytes_live(), 0u);
}

TEST(PoolRegistry, ResolvesAcrossPools) {
  PoolRegistry reg;
  Pool& a = reg.create("alice", "buf", 4096);
  Pool& b = reg.create("bob", "buf", 4096);
  EXPECT_NE(a.id(), b.id());
  RichPtr p = a.alloc(32);
  a.write_view(p)[0] = std::byte{9};
  EXPECT_EQ(std::to_integer<int>(reg.read(p)[0]), 9);
  RichPtr bogus{999, 0, 32, 1};
  EXPECT_TRUE(reg.read(bogus).empty());
}

TEST(Pool, DmaWriteRespectsBounds) {
  Pool pool(1, "t", 4096);
  RichPtr p = pool.alloc(64);
  std::vector<std::byte> small(64, std::byte{5});
  EXPECT_TRUE(pool.dma_write(p, small));
  std::vector<std::byte> big(65, std::byte{5});
  EXPECT_FALSE(pool.dma_write(p, big));
  pool.reset();
  EXPECT_FALSE(pool.dma_write(p, small));  // stale generation
}

TEST(Pool, ContainingResolvesSubRanges) {
  Pool pool(1, "t", 1 << 12);
  const RichPtr a = pool.alloc(64);   // [0, 64)
  const RichPtr b = pool.alloc(200);  // [64, 264), slack to 320
  const RichPtr c = pool.alloc(10);   // [320, 330)
  ASSERT_EQ(b.offset, 64u);
  ASSERT_EQ(c.offset, 320u);
  const std::uint32_t g = b.generation;
  EXPECT_EQ(pool.containing(a), a);
  EXPECT_EQ(pool.containing(b), b);
  // Unaligned and interior slices, one spanning a granule boundary.
  EXPECT_EQ(pool.containing(RichPtr{1, 100, 50, g}), b);
  EXPECT_EQ(pool.containing(RichPtr{1, 128, 64, g}), b);
  EXPECT_EQ(pool.containing(RichPtr{1, 263, 1, g}), b);
  EXPECT_EQ(pool.containing(RichPtr{1, 321, 9, g}), c);
  // One past the end: into b's rounding slack, past c, past the carved
  // region, and a slice running one byte over b's end.
  EXPECT_FALSE(pool.containing(RichPtr{1, 264, 1, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 330, 1, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 4000, 1, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 200, 65, g}).valid());
  // Straddling two chunks, foreign, stale and empty pointers.
  EXPECT_FALSE(pool.containing(RichPtr{1, 60, 8, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{2, 100, 8, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 100, 8, g + 1}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 100, 0, g}).valid());

  // A freed chunk contains nothing; a shorter chunk of the same size class
  // reuses its offset and resolves only within its own length.
  EXPECT_TRUE(pool.release(b));
  EXPECT_FALSE(pool.containing(RichPtr{1, 100, 50, g}).valid());
  const RichPtr b2 = pool.alloc(193);  // [64, 257)
  ASSERT_EQ(b2.offset, b.offset);
  EXPECT_EQ(pool.containing(RichPtr{1, 100, 50, g}), b2);
  EXPECT_EQ(pool.containing(RichPtr{1, 256, 1, g}), b2);
  EXPECT_FALSE(pool.containing(RichPtr{1, 257, 1, g}).valid());
  EXPECT_FALSE(pool.containing(RichPtr{1, 200, 60, g}).valid());
}

namespace {

// Resident set size of this process, from /proc/self/statm (pages).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

// A pool's bytes are a demand-zero mapping: creating a large pool commits
// almost nothing, an allocated chunk reads as zero until written, and
// writing a chunk commits about its own size.
TEST(Pool, PagesAreCommittedOnFirstTouch) {
  constexpr std::size_t kSize = 256u << 20;
  const std::size_t before = resident_bytes();
  Pool pool(1, "t", kSize);
  EXPECT_EQ(pool.size(), kSize);
  EXPECT_LT(resident_bytes(), before + (2u << 20));

  RichPtr fresh = pool.alloc(4096);
  ASSERT_TRUE(fresh.valid());
  for (std::byte b : pool.read_view(fresh)) ASSERT_EQ(b, std::byte{0});

  RichPtr chunk = pool.alloc(64 << 10);
  ASSERT_TRUE(chunk.valid());
  const std::size_t untouched = resident_bytes();
  auto view = pool.write_view(chunk);
  std::fill(view.begin(), view.end(), std::byte{0x5a});
  EXPECT_LE(resident_bytes(), untouched + (64u << 10) + (256u << 10));
  EXPECT_EQ(pool.size(), kSize);
}

TEST(Pool, InteriorOffsetsAreNotChunks) {
  Pool pool(1, "t", 1 << 12);
  const RichPtr p = pool.alloc(300);
  const RichPtr aligned{1, p.offset + 64, 64, p.generation};
  const RichPtr unaligned{1, p.offset + 10, 10, p.generation};
  EXPECT_TRUE(pool.live(p));
  EXPECT_FALSE(pool.live(aligned));
  EXPECT_FALSE(pool.live(unaligned));
  EXPECT_FALSE(pool.release(aligned));
  EXPECT_FALSE(pool.release(unaligned));
  // addref on a non-chunk is a bug (asserted); without asserts it must not
  // touch the chunk around it.
  EXPECT_DEBUG_DEATH(pool.addref(aligned), "addref on a freed chunk");
  EXPECT_EQ(pool.chunks_live(), 1u);
  EXPECT_TRUE(pool.release(p));  // still exactly one reference
  EXPECT_EQ(pool.chunks_live(), 0u);
}

// The free lists are LIFO per rounded size; every RichPtr offset in the
// stack depends on that order, so it is pinned here.
TEST(Pool, OffsetsFollowLifoFreeLists) {
  Pool pool(1, "t", 1 << 14);
  std::vector<std::uint32_t> offsets;
  auto take = [&](std::uint32_t len) {
    const RichPtr p = pool.alloc(len);
    offsets.push_back(p.offset);
    return p;
  };
  const RichPtr a = take(64);
  const RichPtr b = take(100);
  const RichPtr c = take(64);
  const RichPtr d = take(128);
  const RichPtr e = take(1);
  pool.release(a);
  pool.release(c);
  pool.release(e);
  take(10);
  take(64);
  take(20);
  take(64);
  pool.release(b);
  pool.release(d);
  take(65);
  take(128);
  take(128);
  EXPECT_EQ(offsets, (std::vector<std::uint32_t>{0, 64, 192, 256, 384, 384,
                                                  192, 0, 448, 256, 64, 512}));
}

TEST(Pool, ResetDropsHeadersAndLedger) {
  Pool pool(1, "t", 1 << 12);
  const RichPtr p = pool.alloc(200);
  pool.note_borrow(p, 7);
  ASSERT_EQ(pool.borrows_outstanding(), 1u);
  pool.reset();
  EXPECT_EQ(pool.chunks_live(), 0u);
  EXPECT_EQ(pool.bytes_live(), 0u);
  EXPECT_EQ(pool.borrows_outstanding(), 0u);
  EXPECT_TRUE(pool.borrowers().empty());
  EXPECT_FALSE(pool.containing(p).valid());
  // The new generation starts carving from offset 0 again; neither the old
  // pointer nor the old loan reaches the new chunk there.
  const RichPtr q = pool.alloc(64);
  ASSERT_EQ(q.offset, p.offset);
  EXPECT_FALSE(pool.note_return(p, 7));
  EXPECT_FALSE(pool.note_return(q, 7));
  EXPECT_EQ(pool.reclaim(7), 0u);
  EXPECT_EQ(pool.containing(RichPtr{1, 10, 10, q.generation}), q);
  EXPECT_FALSE(pool.containing(RichPtr{1, 100, 10, q.generation}).valid());
  EXPECT_TRUE(pool.release(q));
}

namespace {

// The pool's rules written over ordered maps: chunk headers by offset
// (sub-ranges resolve through upper_bound), free lists by rounded size.
// reclaim() releases in ascending chunk offset, which fixes later
// free-list order; the ordered per-borrower ledger walks in that order.
class RefPool {
 public:
  RefPool(std::uint32_t id, std::uint32_t size) : id_(id), size_(size) {}

  RichPtr alloc(std::uint32_t len) {
    if (len == 0) return kNullRichPtr;
    const std::uint32_t rounded = (len + 63u) & ~63u;
    std::uint32_t off;
    auto& fl = free_[rounded];
    if (!fl.empty()) {
      off = fl.back();
      fl.pop_back();
    } else {
      if (bump_ + rounded > size_) return kNullRichPtr;
      off = bump_;
      bump_ += rounded;
    }
    chunks_[off] = Chunk{len, 1};
    return RichPtr{id_, off, len, gen_};
  }
  bool live(const RichPtr& p) const {
    if (p.pool != id_ || p.generation != gen_) return false;
    auto it = chunks_.find(p.offset);
    return it != chunks_.end() && it->second.length >= p.length;
  }
  void addref(const RichPtr& p) { ++chunks_.at(p.offset).refs; }
  bool release(const RichPtr& p) {
    if (p.generation != gen_) return false;
    auto it = chunks_.find(p.offset);
    if (it == chunks_.end() || --it->second.refs > 0) return false;
    free_[(it->second.length + 63u) & ~63u].push_back(p.offset);
    chunks_.erase(it);
    return true;
  }
  RichPtr containing(const RichPtr& p) const {
    const auto base = owner(p);
    return base ? RichPtr{id_, *base, chunks_.at(*base).length, gen_}
                : kNullRichPtr;
  }
  void note_borrow(const RichPtr& p, std::uint32_t borrower) {
    if (const auto base = owner(p)) ++ledger_[borrower][*base];
  }
  bool note_return(const RichPtr& p, std::uint32_t borrower) {
    if (p.pool != id_ || p.generation != gen_) return false;
    auto lit = ledger_.find(borrower);
    const auto base = owner(p);
    if (lit == ledger_.end() || !base) return false;
    auto eit = lit->second.find(*base);
    if (eit == lit->second.end()) return false;
    if (--eit->second == 0) lit->second.erase(eit);
    if (lit->second.empty()) ledger_.erase(lit);
    return true;
  }
  std::size_t reclaim(std::uint32_t borrower) {
    auto lit = ledger_.find(borrower);
    if (lit == ledger_.end()) return 0;
    auto loans = std::move(lit->second);
    ledger_.erase(lit);
    std::size_t n = 0;
    for (const auto& [off, count] : loans) {
      for (std::uint32_t k = 0; k < count && chunks_.count(off); ++k, ++n) {
        release(RichPtr{id_, off, chunks_.at(off).length, gen_});
      }
    }
    return n;
  }
  void reset() {
    chunks_.clear();
    free_.clear();
    ledger_.clear();
    bump_ = 0;
    ++gen_;
  }
  std::size_t chunks_live() const { return chunks_.size(); }
  std::size_t bytes_live() const {
    std::size_t n = 0;
    for (const auto& [off, c] : chunks_) n += c.length;
    return n;
  }
  std::size_t borrows_outstanding() const {
    std::size_t n = 0;
    for (const auto& [b, loans] : ledger_) {
      for (const auto& [off, count] : loans) n += count;
    }
    return n;
  }

 private:
  struct Chunk {
    std::uint32_t length;
    std::uint32_t refs;
  };
  std::optional<std::uint32_t> owner(const RichPtr& p) const {
    if (p.pool != id_ || p.generation != gen_ || !p.valid())
      return std::nullopt;
    auto it = chunks_.upper_bound(p.offset);
    if (it == chunks_.begin()) return std::nullopt;
    --it;
    if (std::uint64_t{p.offset} + p.length >
        std::uint64_t{it->first} + it->second.length)
      return std::nullopt;
    return it->first;
  }

  std::uint32_t id_;
  std::uint32_t size_;
  std::uint32_t gen_ = 1;
  std::uint32_t bump_ = 0;
  std::map<std::uint32_t, Chunk> chunks_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_;
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint32_t>> ledger_;
};

}  // namespace

// A seeded random mix of every owner-side operation, against RefPool.
// The pool is small enough to run out, so failed allocations are covered.
TEST(Pool, MatchesAnOrderedMapReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    newtos::sim::Rng rng(seed);
    Pool pool(1, "t", 1 << 16);
    RefPool ref(1, 1 << 16);
    std::vector<RichPtr> handed;  // every pointer ever allocated
    // A random pointer into or around a handed-out chunk: whole, a slice,
    // past its end, or unaligned.
    auto some_ptr = [&]() -> RichPtr {
      RichPtr p = handed[rng.below(handed.size())];
      switch (rng.below(4)) {
        case 0:
          return p;
        case 1: {
          const auto skip = static_cast<std::uint32_t>(rng.below(p.length));
          p.offset += skip;
          p.length = 1 + static_cast<std::uint32_t>(rng.below(p.length - skip));
          return p;
        }
        case 2:
          p.offset += static_cast<std::uint32_t>(rng.below(p.length + 64));
          p.length = 1 + static_cast<std::uint32_t>(rng.below(128));
          return p;
        default:
          p.offset += 1 + static_cast<std::uint32_t>(rng.below(63));
          return p;
      }
    };
    for (int op = 0; op < 100000; ++op) {
      const std::uint64_t r = rng.below(100);
      const auto borrower = static_cast<std::uint32_t>(1 + rng.below(4));
      if (r < 30 || handed.empty()) {
        const auto len = static_cast<std::uint32_t>(rng.below(700));
        const RichPtr got = pool.alloc(len);
        ASSERT_EQ(got, ref.alloc(len)) << "op " << op << " alloc " << len;
        if (got.valid()) handed.push_back(got);
      } else if (r < 55) {
        const RichPtr p = some_ptr();
        ASSERT_EQ(pool.release(p), ref.release(p)) << "op " << op;
      } else if (r < 60) {
        const RichPtr p = handed[rng.below(handed.size())];
        ASSERT_EQ(pool.live(p), ref.live(p)) << "op " << op;
        if (ref.live(p)) {
          pool.addref(p);
          ref.addref(p);
        }
      } else if (r < 75) {
        const RichPtr p = some_ptr();
        ASSERT_EQ(pool.containing(p), ref.containing(p)) << "op " << op;
        ASSERT_EQ(pool.live(p), ref.live(p)) << "op " << op;
      } else if (r < 85) {
        const RichPtr p = some_ptr();
        pool.note_borrow(p, borrower);
        ref.note_borrow(p, borrower);
      } else if (r < 95) {
        const RichPtr p = some_ptr();
        ASSERT_EQ(pool.note_return(p, borrower), ref.note_return(p, borrower))
            << "op " << op;
      } else if (r < 99 || rng.below(50) != 0) {
        ASSERT_EQ(pool.reclaim(borrower), ref.reclaim(borrower))
            << "op " << op;
      } else {
        pool.reset();
        ref.reset();
      }
      ASSERT_EQ(pool.chunks_live(), ref.chunks_live()) << "op " << op;
      ASSERT_EQ(pool.bytes_live(), ref.bytes_live()) << "op " << op;
      ASSERT_EQ(pool.borrows_outstanding(), ref.borrows_outstanding())
          << "op " << op;
    }
  }
}

// --- Queue + doorbell ---------------------------------------------------------------------

// --- Cookie ring ---------------------------------------------------------------------

TEST(CookieRing, TakesInAnyOrderAndSweepsBelowAMark) {
  CookieRing<int> ring;
  for (std::uint64_t c = 1; c <= 6; ++c) ring.put(c, static_cast<int>(c * 10));
  int v = 0;
  EXPECT_TRUE(ring.take(3, v));
  EXPECT_EQ(v, 30);
  EXPECT_FALSE(ring.take(3, v));  // already gone
  EXPECT_EQ(ring.front_cookie(), 1u);
  EXPECT_TRUE(ring.take(1, v));
  EXPECT_EQ(ring.front_cookie(), 2u);
  EXPECT_EQ(ring.front(), 20);

  // A mark sweeps everything below it, oldest first, and nothing else.
  std::vector<std::uint64_t> swept;
  ring.take_below(5, [&](std::uint64_t c, int&&) { swept.push_back(c); });
  EXPECT_EQ(swept, (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front_cookie(), 5u);
  ring.take_below(0, [&](std::uint64_t, int&&) { FAIL() << "no mark"; });
  EXPECT_EQ(ring.size(), 2u);
}

TEST(CookieRing, GrowsAcrossWrapAndGapsAndMatchesAMap) {
  // Random puts (rising, with gaps), takes and marks against a std::map.
  CookieRing<std::uint64_t> ring;
  std::map<std::uint64_t, std::uint64_t> ref;
  newtos::sim::Rng rng(11);
  std::uint64_t next = 1;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 5) {
      next += 1 + rng.below(3);
      ring.put(next, next * 7);
      ref[next] = next * 7;
    } else if (op < 9 && !ref.empty()) {
      // Mostly the oldest few, as done-reports come back.
      auto it = ref.begin();
      std::advance(it, rng.below(std::min<std::size_t>(9, ref.size())));
      std::uint64_t v = 0;
      ASSERT_TRUE(ring.take(it->first, v));
      EXPECT_EQ(v, it->second);
      ref.erase(it);
    } else if (!ref.empty()) {
      const std::uint64_t mark = ref.begin()->first + rng.below(5);
      std::vector<std::uint64_t> want;
      for (auto it = ref.begin(); it != ref.end() && it->first < mark;) {
        want.push_back(it->first);
        it = ref.erase(it);
      }
      std::vector<std::uint64_t> got;
      ring.take_below(mark, [&](std::uint64_t c, std::uint64_t&& v) {
        EXPECT_EQ(v, c * 7);
        got.push_back(c);
      });
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front_cookie(), ref.begin()->first);
    }
  }
  std::vector<std::uint64_t> left;
  ring.drain([&](std::uint64_t c, std::uint64_t&&) { left.push_back(c); });
  std::vector<std::uint64_t> want;
  for (const auto& [c, v] : ref) want.push_back(c);
  EXPECT_EQ(left, want);
  EXPECT_TRUE(ring.empty());
  ring.put(3, 1);  // an emptied ring may start anywhere
  EXPECT_EQ(ring.front_cookie(), 3u);
}

TEST(Queue, DoorbellFiresOnceOnSend) {
  Queue q("t", 16);
  int rings = 0;
  q.doorbell().bind([&] { ++rings; });
  q.doorbell().arm();
  Message m;
  q.try_send(m);
  q.try_send(m);  // bell consumed by first send
  EXPECT_EQ(rings, 1);
  q.doorbell().arm();
  q.try_send(m);
  EXPECT_EQ(rings, 2);
}

TEST(Queue, CountsFailures) {
  Queue q("t", 2);
  Message m;
  while (q.try_send(m)) {
  }
  EXPECT_GE(q.send_failures(), 1u);
}

// --- Request database ------------------------------------------------------------------------

TEST(RequestDb, CompleteReturnsCookie) {
  RequestDb db;
  const auto id = db.add("ip", 0xdead, {});
  std::uint64_t cookie = 0;
  EXPECT_TRUE(db.complete(id, &cookie));
  EXPECT_EQ(cookie, 0xdeadu);
  EXPECT_FALSE(db.complete(id));  // stale replies are rejected
}

TEST(RequestDb, AbortPeerRunsActionsInOrder) {
  RequestDb db;
  std::vector<std::uint64_t> aborted;
  auto record = [&](std::uint64_t, std::uint64_t cookie) {
    aborted.push_back(cookie);
  };
  db.add("ip", 1, record);
  db.add("pf", 2, record);
  db.add("ip", 3, record);
  EXPECT_EQ(db.abort_peer("ip"), 2u);
  EXPECT_EQ(aborted, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(db.size(), 1u);  // the pf request survives
}

TEST(RequestDb, AbortActionMayResubmit) {
  RequestDb db;
  int aborts = 0;
  db.add("ip", 1, [&](std::uint64_t, std::uint64_t) {
    ++aborts;
    db.add("ip", 2, {});  // resubmission from within an abort action
  });
  EXPECT_EQ(db.abort_peer("ip"), 1u);
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(db.size(), 1u);
}

// --- Registry / channel manager ------------------------------------------------------------------

TEST(Registry, SubscribeAfterPublishReplays) {
  Registry reg;
  reg.publish("k", Published{"alice", 7});
  int ups = 0;
  bool was_replay = false;
  reg.subscribe("k", [&](const std::string&, const Published& p, bool up,
                         bool replay) {
    ++ups;
    was_replay = replay;
    EXPECT_TRUE(up);
    EXPECT_EQ(p.value, 7u);
  });
  EXPECT_EQ(ups, 1);
  EXPECT_TRUE(was_replay);
}

TEST(Registry, LiveTransitionsAreNotReplays) {
  Registry reg;
  int downs = 0;
  bool live_seen = false;
  reg.subscribe("k", [&](const std::string&, const Published&, bool up,
                         bool replay) {
    if (up && !replay) live_seen = true;
    if (!up) ++downs;
  });
  reg.publish("k", Published{"alice", 1});
  EXPECT_TRUE(live_seen);
  reg.unpublish("k");
  EXPECT_EQ(downs, 1);
  EXPECT_FALSE(reg.lookup("k").has_value());
}

TEST(ChannelManager, CredentialsAreChecked) {
  ChannelManager mgr;
  Queue q("t", 8);
  const auto cred = mgr.export_queue("tcp", "ip", &q);
  EXPECT_EQ(mgr.attach("ip", cred), &q);
  EXPECT_EQ(mgr.attach("mallory", cred), nullptr);  // wrong grantee
  EXPECT_EQ(mgr.attach("ip", cred + 1000), nullptr);  // bogus credential
}

TEST(ChannelManager, RevokeAllInvalidatesCreatorGrants) {
  ChannelManager mgr;
  Queue q("t", 8);
  const auto cred = mgr.export_queue("tcp", "ip", &q);
  EXPECT_EQ(mgr.revoke_all("tcp"), 1u);
  EXPECT_EQ(mgr.attach("ip", cred), nullptr);
}
