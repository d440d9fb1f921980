#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/alloc_probe.hpp"

namespace p4auth::netsim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(SimTime::from_us(30), [&] { order.push_back(3); });
  sim.at(SimTime::from_us(10), [&] { order.push_back(1); });
  sim.at(SimTime::from_us(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::from_us(30));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(SimTime::from_us(7), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.after(SimTime::from_us(1), chain);
  };
  sim.after(SimTime::from_us(1), chain);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), SimTime::from_us(10));
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  SimTime inner_fire{};
  sim.at(SimTime::from_us(100), [&] {
    sim.after(SimTime::from_us(50), [&] { inner_fire = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fire, SimTime::from_us(150));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_us(10), [&] { ++fired; });
  sim.at(SimTime::from_us(20), [&] { ++fired; });
  sim.at(SimTime::from_us(30), [&] { ++fired; });
  sim.run_until(SimTime::from_us(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::from_us(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(SimTime::from_ms(5));
  EXPECT_EQ(sim.now(), SimTime::from_ms(5));
}

TEST(Simulator, RunUntilFiresEventExactlyAtBoundary) {
  Simulator sim;
  bool fired = false;
  sim.at(SimTime::from_us(20), [&] { fired = true; });
  sim.run_until(SimTime::from_us(20));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::from_us(20));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilNeverRewindsClock) {
  Simulator sim;
  sim.run_until(SimTime::from_ms(10));
  ASSERT_EQ(sim.now(), SimTime::from_ms(10));
  // A later run_until with an earlier target must not move time backwards
  // (after() would otherwise schedule "into the past").
  sim.run_until(SimTime::from_ms(3));
  EXPECT_EQ(sim.now(), SimTime::from_ms(10));
  SimTime fire_at{};
  sim.after(SimTime::from_ms(1), [&] { fire_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fire_at, SimTime::from_ms(11));
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.at(SimTime::from_us(5), [&] { ++fired; });
  sim.at(SimTime::from_us(50), [&] { ++fired; });
  sim.run_until(SimTime::from_us(10));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.processed(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::from_us(50));
}

TEST(Simulator, MaxEventsGuardResumesWhereItStopped) {
  Simulator sim;
  int fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sim.after(SimTime::from_ns(1), forever);
  };
  sim.after(SimTime::from_ns(1), forever);
  sim.run(/*max_events=*/10);
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.empty());
  // run() compares against the cumulative processed() counter, so a second
  // call with a higher budget continues from where the first stopped.
  sim.run(/*max_events=*/25);
  EXPECT_EQ(fired, 25);
}

TEST(Simulator, ProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.at(SimTime::from_us(static_cast<std::uint64_t>(i)), [] {});
  sim.run();
  EXPECT_EQ(sim.processed(), 7u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, AcceptsMoveOnlyHandlers) {
  // std::function required copyable callables; the event queue must not.
  Simulator sim;
  auto payload = std::make_unique<int>(17);
  int seen = 0;
  sim.after(SimTime::from_us(1), [payload = std::move(payload), &seen] { seen = *payload; });
  sim.run();
  EXPECT_EQ(seen, 17);
}

TEST(Simulator, MoveOnlyHandlersInterleaveWithTiesInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    auto tag = std::make_unique<int>(i);
    sim.at(SimTime::from_us(5), [tag = std::move(tag), &order] { order.push_back(*tag); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, MaxEventsGuardStopsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.after(SimTime::from_ns(1), forever); };
  sim.after(SimTime::from_ns(1), forever);
  sim.run(/*max_events=*/1000);
  EXPECT_EQ(sim.processed(), 1000u);
}

TEST(Simulator, CoalesceContinuesAcrossSameTimeSameKeyRun) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.at_keyed(SimTime::from_ns(10), 42, record);
  sim.run();
  // True while a same-time same-key event is still pending; false on the
  // last of the run.
  EXPECT_EQ(continues, (std::vector<bool>{true, true, false}));
}

TEST(Simulator, CoalesceStopsAtKeyOrTimeBoundary) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at_keyed(SimTime::from_ns(10), 42, record);  // next differs in key
  sim.at_keyed(SimTime::from_ns(10), 43, record);  // next differs in time
  sim.at_keyed(SimTime::from_ns(20), 43, record);  // queue empty after this
  sim.run();
  EXPECT_EQ(continues, (std::vector<bool>{false, false, false}));
}

TEST(Simulator, KeyZeroNeverCoalesces) {
  Simulator sim;
  std::vector<bool> continues;
  const auto record = [&] { continues.push_back(sim.coalesce_continues()); };
  sim.at(SimTime::from_ns(10), record);
  sim.at(SimTime::from_ns(10), record);
  sim.run();
  EXPECT_EQ(continues, (std::vector<bool>{false, false}));
}

TEST(Simulator, KeysDoNotChangeFireOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at_keyed(SimTime::from_ns(10), 7, [&] { order.push_back(1); });
  sim.at(SimTime::from_ns(10), [&] { order.push_back(2); });
  sim.at_keyed(SimTime::from_ns(10), 7, [&] { order.push_back(3); });
  sim.at_keyed(SimTime::from_ns(5), 9, [&] { order.push_back(0); });
  sim.run();
  // Strictly (time, insertion seq), keys ignored for ordering.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- Event queue: differential, move-count, allocation and lifetime ------

/// A reference event queue: a plain list scanned for the smallest
/// (time, order), with orders allocated by the same rules the simulator
/// documents (legacy insertion counter, or rank << 32 | per-rank counter
/// with a shared root counter).
class ReferenceQueue {
 public:
  struct Event {
    std::uint64_t t = 0;
    std::uint64_t order = 0;
    std::uint64_t key = 0;
    std::uint64_t id = 0;
    int gen = 0;
  };

  explicit ReferenceQueue(bool rank_mode) : rank_mode_(rank_mode) {}

  std::uint64_t now() const { return now_; }
  std::size_t processed() const { return processed_; }
  bool empty() const { return pending_.empty(); }
  void set_context(std::uint32_t rank) { rank_ = rank; }

  void schedule(std::uint64_t t, std::uint64_t key, std::uint64_t id, int gen) {
    pending_.push_back(Event{t, allocate_order(), key, id, gen});
  }

  /// Removes and returns the earliest event; sets now/firing state.
  Event pop() {
    const auto it = std::min_element(pending_.begin(), pending_.end(), earlier);
    const Event ev = *it;
    pending_.erase(it);
    now_ = ev.t;
    firing_key_ = ev.key;
    if (rank_mode_) rank_ = static_cast<std::uint32_t>(ev.order >> 32);
    ++processed_;
    return ev;
  }
  void end_fire() { firing_key_ = 0; }
  void quiesce() { rank_ = 0; }

  bool coalesce_continues() const {
    if (firing_key_ == 0) return false;
    if (rank_mode_) {
      return std::any_of(pending_.begin(), pending_.end(), [&](const Event& e) {
        return e.t == now_ && e.key == firing_key_;
      });
    }
    if (pending_.empty()) return false;
    const Event& front = *std::min_element(pending_.begin(), pending_.end(), earlier);
    return front.t == now_ && front.key == firing_key_;
  }

  bool front_time(std::uint64_t& t) const {
    if (pending_.empty()) return false;
    t = std::min_element(pending_.begin(), pending_.end(), earlier)->t;
    return true;
  }
  void advance_to(std::uint64_t t) { now_ = std::max(now_, t); }

 private:
  static bool earlier(const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.order < b.order;
  }
  std::uint64_t allocate_order() {
    if (!rank_mode_) return next_seq_++;
    if (rank_ == 0) return root_++;
    if (rank_ >= rank_counters_.size()) rank_counters_.resize(rank_ + 1, 0);
    return (static_cast<std::uint64_t>(rank_) << 32) | rank_counters_[rank_]++;
  }

  bool rank_mode_;
  std::vector<Event> pending_;
  std::uint64_t now_ = 0;
  std::uint64_t firing_key_ = 0;
  std::size_t processed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t root_ = 0;
  std::uint32_t rank_ = 0;
  std::vector<std::uint32_t> rank_counters_;
};

/// One child an event schedules while it fires.
struct Child {
  std::uint64_t delay = 0;
  std::uint64_t key = 0;
  std::uint32_t rank = 0;  ///< scheduling context (rank mode only)
};

/// What event `id` schedules when it fires: a pure function of (seed, id,
/// generation), so the simulator and the reference replay the same tree.
/// Delays and keys come from small sets so ties and same-key groups are
/// common; event 3 of generation 0 schedules 700 children at once, which
/// grows the closure slab while a closure is running.
std::vector<Child> children_of(std::uint64_t seed, std::uint64_t id, int gen) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + id);
  std::vector<Child> out;
  std::size_t n = 0;
  if (gen == 0 && id == 3) {
    n = 700;
  } else if (gen < 5) {
    const std::uint64_t r = rng() % 100;
    n = r < 45 ? 0 : r < 80 ? 1 : r < 95 ? 2 : 3;
  }
  constexpr std::uint64_t kDelays[] = {0, 0, 1, 2, 5, 40};
  for (std::size_t i = 0; i < n; ++i) {
    Child c;
    c.delay = kDelays[rng() % 6];
    c.key = rng() % 3;  // 0 = never coalesces
    c.rank = static_cast<std::uint32_t>(rng() % 4);
    out.push_back(c);
  }
  return out;
}

struct Fired {
  std::uint64_t id = 0;
  std::uint64_t t = 0;
  std::uint64_t order = 0;
  bool continues = false;
  bool operator==(const Fired&) const = default;
};

/// Drives the simulator and the reference through the same schedule:
/// rounds of root events, each round ending at a run_until, run_window or
/// max_events boundary, then a full drain.
class Differential {
 public:
  Differential(std::uint64_t seed, bool rank_mode)
      : seed_(seed), rank_mode_(rank_mode), ref_(rank_mode) {
    if (rank_mode_) sim_.enable_rank_ordering(&root_counter_);
  }

  void run() {
    std::mt19937_64 rng(seed_);
    for (int round = 0; round < 60; ++round) {
      const std::size_t roots = 1 + rng() % 8;
      for (std::size_t i = 0; i < roots; ++i) {
        const std::uint64_t t = ref_.now() + rng() % 30;
        const std::uint64_t key = rng() % 3;
        const std::uint64_t id = next_id_++;
        ref_.schedule(t, key, id, 0);
        sim_.at_keyed(SimTime::from_ns(t), key, handler(id, 0));
      }
      const std::uint64_t bound = rng() % 40;
      switch (round % 3) {
        case 0: {
          const std::uint64_t until = ref_.now() + bound;
          sim_.run_until(SimTime::from_ns(until));
          std::uint64_t t = 0;
          while (ref_.front_time(t) && t <= until) fire_ref();
          ref_.advance_to(until);
          break;
        }
        case 1: {
          const std::uint64_t horizon = ref_.now() + bound;
          sim_.run_window(SimTime::from_ns(horizon));
          std::uint64_t t = 0;
          while (ref_.front_time(t) && t < horizon) fire_ref();
          break;
        }
        default: {
          const std::size_t max_events = ref_.processed() + rng() % 200;
          sim_.run(max_events);
          while (!ref_.empty() && ref_.processed() < max_events) fire_ref();
          break;
        }
      }
      ref_.quiesce();
      ASSERT_EQ(sim_.now().ns(), ref_.now()) << "round " << round;
      ASSERT_EQ(sim_.processed(), ref_.processed()) << "round " << round;
    }
    sim_.run();
    while (!ref_.empty()) fire_ref();
    EXPECT_TRUE(sim_.empty());
    EXPECT_EQ(sim_.queue_depth(), 0u);
  }

  const std::vector<Fired>& sim_log() const { return sim_log_; }
  const std::vector<Fired>& ref_log() const { return ref_log_; }
  std::size_t max_queue_depth() const { return sim_.max_queue_depth(); }

 private:
  Simulator::Handler handler(std::uint64_t id, int gen) {
    return [this, id, gen] {
      sim_log_.push_back(
          Fired{id, sim_.now().ns(), *sim_.firing_order_ptr(), sim_.coalesce_continues()});
      for (const Child& c : children_of(seed_, id, gen)) {
        if (rank_mode_) sim_.set_context(c.rank);
        sim_.at_keyed(sim_.now() + SimTime::from_ns(c.delay), c.key,
                      handler(sim_next_id_++, gen + 1));
      }
    };
  }

  void fire_ref() {
    const ReferenceQueue::Event ev = ref_.pop();
    ref_log_.push_back(Fired{ev.id, ev.t, ev.order, ref_.coalesce_continues()});
    for (const Child& c : children_of(seed_, ev.id, ev.gen)) {
      if (rank_mode_) ref_.set_context(c.rank);
      ref_.schedule(ev.t + c.delay, c.key, ref_next_id_++, ev.gen + 1);
    }
    ref_.end_fire();
  }

  std::uint64_t seed_;
  bool rank_mode_;
  Simulator sim_;
  std::uint64_t root_counter_ = 0;
  ReferenceQueue ref_;
  std::uint64_t next_id_ = 0;  ///< root ids (scheduled in lock-step)
  // Children take ids from a disjoint range, one counter per side, so a
  // divergence in fire order shows up as differing ids.
  std::uint64_t sim_next_id_ = 1u << 30;
  std::uint64_t ref_next_id_ = 1u << 30;
  std::vector<Fired> sim_log_;
  std::vector<Fired> ref_log_;
};

void expect_same_fire_sequence(std::uint64_t seed, bool rank_mode) {
  Differential d(seed, rank_mode);
  d.run();
  ASSERT_EQ(d.sim_log().size(), d.ref_log().size());
  for (std::size_t i = 0; i < d.sim_log().size(); ++i) {
    ASSERT_EQ(d.sim_log()[i], d.ref_log()[i]) << "event #" << i << " (seed " << seed << ")";
  }
  // The 700-child burst must have pushed the slab past one chunk mid-fire.
  EXPECT_GT(d.max_queue_depth(), 700u);
  // Sanity on the generator: the run has ties and live coalescing groups.
  EXPECT_GT(d.sim_log().size(), 1500u);
  EXPECT_TRUE(std::any_of(d.sim_log().begin(), d.sim_log().end(),
                          [](const Fired& f) { return f.continues; }));
}

TEST(EventQueue, MatchesReferenceOrderInLegacyMode) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) expect_same_fire_sequence(seed, false);
}

TEST(EventQueue, MatchesReferenceOrderInRankMode) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) expect_same_fire_sequence(seed, true);
}

/// Counts its own move constructions into a shared counter.
struct MoveCounting {
  int* moves;
  int* fired;
  explicit MoveCounting(int* m, int* f) noexcept : moves(m), fired(f) {}
  MoveCounting(MoveCounting&& other) noexcept : moves(other.moves), fired(other.fired) {
    ++*moves;
  }
  MoveCounting(const MoveCounting&) = delete;
  void operator()() { ++*fired; }
};

int moves_with_pending(int others) {
  Simulator sim;
  std::mt19937_64 rng(7);
  int moves = 0;
  int fired = 0;
  // Others land before and after the counted event, so it rides through
  // pushes and pops on both sides of the heap.
  for (int i = 0; i < others / 2; ++i) sim.at(SimTime::from_ns(rng() % 1000), [] {});
  sim.at(SimTime::from_ns(1000), MoveCounting(&moves, &fired));
  for (int i = others / 2; i < others; ++i) sim.at(SimTime::from_ns(rng() % 2000), [] {});
  sim.run();
  EXPECT_EQ(fired, 1);
  return moves;
}

TEST(EventQueue, ClosureMovesDoNotGrowWithQueueDepth) {
  const int shallow = moves_with_pending(1);
  const int deep = moves_with_pending(10'000);
  EXPECT_EQ(shallow, deep);
  // Into the handler, then into its slab slot; it fires in place.
  EXPECT_LE(deep, 2);
}

/// Re-schedules itself one period later, keeping the queue depth fixed.
struct Tick {
  Simulator* sim;
  std::uint64_t key;
  void operator()() const { sim->after_keyed(SimTime::from_ns(997), key, Tick{*this}); }
};

void expect_steady_cycle_allocates_nothing(bool rank_mode) {
  ASSERT_TRUE(AllocProbe::active());
  Simulator sim;
  std::uint64_t root = 0;
  if (rank_mode) sim.enable_rank_ordering(&root);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    sim.at_keyed(SimTime::from_ns(i % 997), i % 5, Tick{&sim, i % 5});
  }
  sim.run(20'000);  // slab, heap and coalescing index reach their high water
  AllocProbe::reset();
  sim.run(120'000);
  EXPECT_EQ(AllocProbe::allocations(), 0u);
  EXPECT_EQ(sim.queue_depth(), 3000u);
  EXPECT_EQ(sim.max_queue_depth(), 3000u);
}

TEST(EventQueue, SteadyScheduleFireCycleAllocatesNothing) {
  expect_steady_cycle_allocates_nothing(false);
  expect_steady_cycle_allocates_nothing(true);
}

/// Logs "dtor <id>" when a live (not moved-from) instance is destroyed.
struct LifetimeProbe {
  std::vector<std::string>* log;
  int id;
  bool live = true;
  LifetimeProbe(std::vector<std::string>* l, int i) noexcept : log(l), id(i) {}
  LifetimeProbe(LifetimeProbe&& other) noexcept : log(other.log), id(other.id) {
    other.live = false;
  }
  ~LifetimeProbe() {
    if (live) log->push_back("dtor " + std::to_string(id));
  }
  void operator()() { log->push_back("run " + std::to_string(id)); }
};

TEST(EventQueue, ClosureIsDestroyedAfterItReturnsBeforeTheNextEvent) {
  Simulator sim;
  std::vector<std::string> log;
  sim.at(SimTime::from_ns(5), LifetimeProbe(&log, 1));
  sim.at(SimTime::from_ns(5), LifetimeProbe(&log, 2));
  sim.at(SimTime::from_ns(9), LifetimeProbe(&log, 3));
  EXPECT_TRUE(log.empty());  // scheduling moves, never destroys a live closure
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"run 1", "dtor 1", "run 2", "dtor 2", "run 3",
                                           "dtor 3"}));
}

// --- Always-on engine invariants -----------------------------------------

TEST(EngineInvariantDeathTest, SchedulingIntoThePastFailsTheRun) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.run_until(SimTime::from_us(10));
        sim.at(SimTime::from_us(5), [] {});
      },
      "simulator\\.cpp:[0-9]+: check failed: .*cannot schedule into the past");
}

TEST(EngineInvariantDeathTest, OrderedPushIntoThePastFailsTheRun) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.run_until(SimTime::from_us(10));
        sim.at_ordered(SimTime::from_us(5), 0, 42, [] {});
      },
      "simulator\\.cpp:[0-9]+: check failed: .*cannot schedule into the past");
}

}  // namespace
}  // namespace p4auth::netsim
