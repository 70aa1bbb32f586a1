// Unit tests: discrete-event simulator (event queue, cores, cost model).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/sim.h"

using namespace newtos::sim;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSubmissionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (q.pop_and_run()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel fails
  while (q.pop_and_run()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.push(static_cast<Time>(count * 10), chain);
  };
  q.push(0, chain);
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, IdsAreNeverZero) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(q.push(i, [] {}), 0u);
    if (i % 3 == 0) q.pop_and_run();
  }
}

TEST(EventQueue, CancelOfARecycledIdLeavesTheNewEventAlone) {
  EventQueue q;
  const EventId fired_id = q.push(10, [] {});
  const EventId cancelled_id = q.push(20, [] {});
  EXPECT_TRUE(q.cancel(cancelled_id));
  EXPECT_TRUE(q.pop_and_run());   // fires the first, frees its slot
  EXPECT_FALSE(q.pop_and_run());  // drops the cancelled entry, frees its slot
  int fired = 0;
  const EventId a = q.push(30, [&] { fired += 1; });
  const EventId b = q.push(40, [&] { fired += 10; });
  // Both old slots were recycled under new ids.
  EXPECT_NE(a, fired_id);
  EXPECT_NE(a, cancelled_id);
  EXPECT_NE(b, fired_id);
  EXPECT_NE(b, cancelled_id);
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_FALSE(q.cancel(cancelled_id));
  EXPECT_EQ(q.size(), 2u);
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, EmptyAndSizeIgnoreCancelledEntries) {
  EventQueue q;
  const EventId a = q.push(10, [] {});
  const EventId b = q.push(20, [] {});
  const EventId c = q.push(30, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(c));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_and_run());
}

TEST(EventQueue, NextTimeSkipsCancelledHeads) {
  EventQueue q;
  const EventId a = q.push(5, [] {});
  const EventId b = q.push(10, [] {});
  q.push(15, [] {});
  EXPECT_EQ(q.next_time(), 5);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.next_time(), 15);
}

TEST(EventQueue, CancelRemovesAtOnce) {
  EventQueue q;
  int fired = 0;
  q.push(10, [&] { fired += 1; });
  const EventId doomed = q.push(20, [&] { fired += 100; });
  q.push(30, [&] { fired += 10; });
  EXPECT_TRUE(q.cancel(doomed));
  // The entry left the heap with the cancel, not when its time came.
  EXPECT_EQ(q.size(), 2u);
  // The id its slot will carry next is not handed out yet: it cancels
  // nothing.
  EXPECT_FALSE(q.cancel(doomed + (EventId{1} << 32)));
  EXPECT_EQ(q.size(), 2u);
  // Its slot is free at once: the next push takes it, under a new id.
  const EventId reused = q.push(20, [&] { fired += 1000; });
  EXPECT_EQ(reused, doomed + (EventId{1} << 32));
  EXPECT_EQ(q.size(), 3u);
  // The stale id cancels nothing; the new event still fires.
  EXPECT_FALSE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 3u);
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(fired, 1011);
  EXPECT_TRUE(q.empty());
}

// A seeded random mix of push, cancel and pop against a reference ordered
// by (time, submission number).  Both must fire the same events in the
// same order and agree on every cancel() result.
TEST(EventQueue, MatchesAnOrderedMapReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    EventQueue q;
    std::map<std::pair<Time, std::uint64_t>, int> ref;  // key -> token
    std::vector<EventId> ids;                    // by token
    std::vector<std::pair<Time, std::uint64_t>> keys;  // by token
    std::vector<int> fired;
    std::uint64_t seq = 0;
    for (int op = 0; op < 100000; ++op) {
      const std::uint64_t r = rng.below(10);
      if (r < 5) {
        // Narrow time range: many equal timestamps.
        const Time t = static_cast<Time>(rng.below(200));
        const int token = static_cast<int>(ids.size());
        ids.push_back(q.push(t, [&fired, token] { fired.push_back(token); }));
        keys.emplace_back(t, seq++);
        ref.emplace(keys.back(), token);
      } else if (r < 7 && !ids.empty()) {
        const auto token = static_cast<std::size_t>(rng.below(ids.size()));
        const bool want = ref.erase(keys[token]) != 0;
        ASSERT_EQ(q.cancel(ids[token]), want) << "op " << op;
      } else {
        const bool want = !ref.empty();
        if (want) {
          ASSERT_EQ(q.next_time(), ref.begin()->first.first) << "op " << op;
        }
        fired.clear();
        ASSERT_EQ(q.pop_and_run(), want) << "op " << op;
        if (want) {
          ASSERT_EQ(fired, std::vector<int>{ref.begin()->second})
              << "op " << op;
          ref.erase(ref.begin());
        }
      }
      ASSERT_EQ(q.size(), ref.size()) << "op " << op;
      ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
    }
  }
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  Time seen = -1;
  for (Time t : {5, 3, 9, 7}) {
    sim.at(t, [&, t] {
      EXPECT_GT(t, seen);
      seen = t;
      EXPECT_EQ(sim.now(), t);
    });
  }
  sim.run_to_completion();
  EXPECT_EQ(seen, 9);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  sim.at(100, [&] {
    sim.after(50, [&] { EXPECT_EQ(sim.now(), 150); });
  });
  sim.run_to_completion();
}

TEST(SimCore, SerializesTasks) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  std::vector<Time> starts;
  // Each task takes 1900 cycles = 1000 ns at 1.9 GHz.
  for (int i = 0; i < 3; ++i) {
    core.exec(0, [&](Context& ctx) {
      starts.push_back(ctx.now());
      ctx.charge(1900);
    });
  }
  sim.run_to_completion();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 1000);
  EXPECT_EQ(starts[2], 2000);
  EXPECT_EQ(core.busy_cycles(), 3 * 1900);
  EXPECT_EQ(core.tasks_run(), 3u);
}

TEST(SimCore, ContextNowReflectsCharges) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  core.exec(0, [&](Context& ctx) {
    EXPECT_EQ(ctx.now(), 0);
    ctx.charge(3800);  // 2000 ns
    EXPECT_EQ(ctx.now(), 2000);
  });
  sim.run_to_completion();
}

TEST(SimCore, EarliestConstraintHonoured) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  Time started = -1;
  core.exec(500, [&](Context& ctx) { started = ctx.now(); });
  sim.run_to_completion();
  EXPECT_EQ(started, 500);
}

TEST(SimCore, IndependentCoresRunInParallel) {
  Simulator sim;
  SimCore& a = sim.add_core("a");
  SimCore& b = sim.add_core("b");
  Time a_start = -1, b_start = -1;
  a.exec(0, [&](Context& ctx) {
    a_start = ctx.now();
    ctx.charge(19000);
  });
  b.exec(0, [&](Context& ctx) {
    b_start = ctx.now();
    ctx.charge(19000);
  });
  sim.run_to_completion();
  EXPECT_EQ(a_start, 0);
  EXPECT_EQ(b_start, 0);  // not serialized behind core a
}

TEST(Simulator, StepRunsAtMostOneCoreTask) {
  Simulator sim;
  std::vector<SimCore*> cores;
  for (int c = 0; c < 3; ++c) cores.push_back(&sim.add_core("c"));
  int raw = 0;
  for (int i = 0; i < 3; ++i) {
    sim.at(i * 500, [&] { ++raw; });
    for (SimCore* core : cores) {
      core->exec(0, [](Context& ctx) { ctx.charge(1900); });
    }
  }
  auto tasks_run = [&] {
    std::uint64_t n = 0;
    for (SimCore* core : cores) n += core->tasks_run();
    return n;
  };
  int steps = 0;
  std::uint64_t seen = 0;
  while (sim.step()) {
    ++steps;
    const std::uint64_t now_run = tasks_run();
    EXPECT_LE(now_run, seen + 1) << "step " << steps;
    seen = now_run;
  }
  EXPECT_EQ(seen, 9u);
  EXPECT_EQ(raw, 3);
  // Every task that charges cycles costs a start and a free-at event.
  EXPECT_EQ(steps, 3 + 2 * 9);
}

namespace {

// The core scheduling scheme the lane replaced, kept as a reference: every
// task costs a start event and, when it charged time, a free-at event, both
// ordinary callbacks in a std::map keyed by (time, submission number).
class RefSim {
 public:
  class Core;
  struct Ctx {
    RefSim& sim;
    Time start;
    Cycles charged = 0;
    void charge(Cycles c) { charged += c; }
    Time now() const { return start + sim.costs_.cycles_to_time(charged); }
  };
  using Task = std::function<void(Ctx&)>;

  class Core {
   public:
    explicit Core(RefSim& sim) : sim_(sim) {}
    void exec(Time earliest, Task task) {
      tasks_.emplace_back(earliest, std::move(task));
      if (!running_) schedule_next();
    }

   private:
    void schedule_next() {
      if (tasks_.empty()) {
        running_ = false;
        return;
      }
      running_ = true;
      const Time start =
          std::max({tasks_.front().first, sim_.now(), free_at_});
      Task task = std::move(tasks_.front().second);
      tasks_.pop_front();
      sim_.at(start, [this, start, task = std::move(task)] {
        Ctx ctx{sim_, start};
        task(ctx);
        free_at_ = start + sim_.costs_.cycles_to_time(ctx.charged);
        if (free_at_ > sim_.now()) {
          sim_.at(free_at_, [this] { schedule_next(); });
        } else {
          schedule_next();
        }
      });
    }

    RefSim& sim_;
    std::deque<std::pair<Time, Task>> tasks_;
    bool running_ = false;
    Time free_at_ = 0;
  };

  Time now() const { return now_; }
  EventId at(Time t, std::function<void()> fn) {
    const std::uint64_t seq = next_seq_++;
    events_.emplace(std::make_pair(t, seq), std::move(fn));
    return seq + 1;
  }
  bool cancel(EventId id) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->first.second + 1 == id) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool step() {
    if (events_.empty()) return false;
    auto it = events_.begin();
    now_ = it->first.first;
    std::function<void()> fn = std::move(it->second);
    events_.erase(it);
    fn();
    return true;
  }
  Core& add_core(const std::string&) {
    cores_.push_back(std::make_unique<Core>(*this));
    return *cores_.back();
  }

 private:
  Time now_ = 0;
  CostModel costs_;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<Time, std::uint64_t>, std::function<void()>> events_;
  std::vector<std::unique_ptr<Core>> cores_;
};

// What ran: a core task (core >= 0) or a raw timer (core -1, start = end).
struct Ran {
  int core;
  int id;
  Time start;
  Time end;
  bool operator==(const Ran&) const = default;
};

// One seeded workload, run on either simulator.  Tasks charge random
// cycles (often zero, which frees the core at once) and exec more tasks on
// random cores with random `earliest` stamps, some in the past; they also
// push raw timers that exec tasks, and cancel random timers.  Every time is
// a multiple of 1 us (1900 cycles), so lane and heap events often tie and
// only the submission order can split them.
template <class S, class Core, class Ctx>
struct Workload {
  Workload(S& s, std::uint64_t seed, std::vector<Ran>& out)
      : sim(s), rng(seed), trace(out) {}

  S& sim;
  std::vector<Core*> cores;
  Rng rng;
  std::vector<Ran>& trace;
  std::vector<EventId> timers;
  std::vector<bool> cancels;
  int next_id = 0;
  int budget = 20000;

  static Time us(std::uint64_t n) { return static_cast<Time>(n) * 1000; }

  void spawn(Time now) {
    if (budget-- <= 0) return;
    const int core = static_cast<int>(rng.below(cores.size()));
    const int id = next_id++;
    const Time earliest = rng.chance(0.3) ? now - us(rng.below(3))
                                           : now + us(rng.below(3));
    cores[core]->exec(earliest, [this, core, id](Ctx& ctx) {
      const Time start = ctx.now();
      ctx.charge(static_cast<Cycles>(1900 * rng.below(4)));
      act(ctx.now());
      trace.push_back({core, id, start, ctx.now()});
    });
  }

  void act(Time now) {
    for (std::uint64_t k = rng.below(3); k > 0; --k) spawn(now);
    if (rng.chance(0.3)) {
      const int id = next_id++;
      timers.push_back(sim.at(now + us(rng.below(4)),
                              [this, id] {
                                trace.push_back({-1, id, sim.now(), sim.now()});
                                act(sim.now());
                              }));
    }
    if (!timers.empty() && rng.chance(0.2)) {
      cancels.push_back(sim.cancel(timers[rng.below(timers.size())]));
    }
  }

  // Returns how many steps the run took.
  std::uint64_t run() {
    for (int i = 0; i < 8; ++i) spawn(0);
    std::uint64_t steps = 0;
    while (sim.step()) ++steps;
    return steps;
  }
};

}  // namespace

TEST(SimCore, LaneMatchesTwoEventReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr int kCores = 5;
    Simulator sim;
    RefSim ref;
    std::vector<Ran> got, want;
    Workload<Simulator, SimCore, Context> lane(sim, seed, got);
    Workload<RefSim, RefSim::Core, RefSim::Ctx> two(ref, seed, want);
    for (int c = 0; c < kCores; ++c) {
      const std::string name = std::string("c").append(std::to_string(c));
      lane.cores.push_back(&sim.add_core(name));
      two.cores.push_back(&ref.add_core(name));
    }
    const std::uint64_t lane_steps = lane.run();
    const std::uint64_t ref_steps = two.run();
    ASSERT_GT(want.size(), 20000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "entry " << i << ": core " << got[i].core
                                 << " id " << got[i].id << " start "
                                 << got[i].start << " vs core " << want[i].core
                                 << " id " << want[i].id << " start "
                                 << want[i].start;
    }
    EXPECT_EQ(lane.cancels, two.cancels);
    // One step per event: the lane fires as many as the two-event scheme.
    EXPECT_EQ(lane_steps, ref_steps);
  }
}

TEST(CostModel, Conversions) {
  CostModel c;  // 1.9 GHz
  EXPECT_EQ(c.cycles_to_time(1900), 1000);
  EXPECT_EQ(c.time_to_cycles(1000), 1900);
  EXPECT_EQ(c.copy_cost(4000), 1000);      // 0.25 cy/B
  EXPECT_EQ(c.checksum_cost(4000), 2000);  // 0.5 cy/B
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(10), 10u);
  }
}

// Property sweep: chance(p) converges to p.
class RngChance : public ::testing::TestWithParam<double> {};

TEST_P(RngChance, ConvergesToProbability) {
  const double p = GetParam();
  Rng r(99);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += r.chance(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngChance,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));
