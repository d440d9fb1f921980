// Deterministic discrete-event simulator.
//
// Events fire in (time, order) order, so every run with the same seeds is
// bit-for-bit reproducible — a requirement for the attack/defence
// experiments where we compare three scenarios.
//
// Two ordering modes share one event loop:
//
//  * Legacy (default): `order` is a global insertion counter, exactly the
//    historical single-threaded tie-break. Used by every experiment that
//    runs on one simulator instance.
//  * Rank ordering (sharded engine): `order` is (rank << 32 | per-rank
//    counter), where a rank is a topology-derived scheduling context
//    (rank 0 = harness/root, rank 1 = controller, rank node.value+2 = a
//    switch). Because each rank lives wholly on one shard, the counter
//    sequence a rank produces is independent of how the topology is
//    partitioned — the property that makes sharded runs byte-identical
//    for any shard count (see docs/DESIGN.md "Sharded simulation").
//
// The queue is index-keyed. A binary heap (std::vector + std::push_heap)
// holds trivially copyable 24-byte {time, order, slot} entries, so a sift
// step moves 24 bytes and never a closure. Each closure (a move-only
// InplaceHandler, inline up to 64 bytes) and its coalescing key live in a
// slot of a slab built from fixed-size chunks that never move; freed
// slots are recycled through a free list. A closure is moved into its
// slot once when scheduled and runs there in place, however deep the
// queue; it is destroyed after it returns and before the next event
// fires. Once the heap and slab reach their high-water marks the
// schedule/fire cycle performs no heap allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "netsim/inplace_handler.hpp"

namespace p4auth::telemetry {
struct Telemetry;
class Histogram;
}  // namespace p4auth::telemetry

namespace p4auth::netsim {

/// Pending-count index over (fire time, coalescing key): an open-addressing
/// flat map used by rank-ordered simulators to answer "are more events with
/// this (time, key) still pending?" without peeking at heap adjacency.
/// Heap-front peeking is partition-variant (whether two same-key events sit
/// adjacent depends on which other events share the heap); the count is a
/// pure function of the schedule, so burst grouping stays byte-identical
/// across shard counts. Allocation-free in steady state (the table grows
/// geometrically and is never shrunk).
class CoalesceIndex {
 public:
  void add(std::uint64_t t_ns, std::uint64_t key);
  void remove(std::uint64_t t_ns, std::uint64_t key) noexcept;
  std::uint32_t count(std::uint64_t t_ns, std::uint64_t key) const noexcept;

 private:
  struct Slot {
    std::uint64_t t = 0;
    std::uint64_t key = 0;
    std::uint32_t n = 0;  ///< 0 = empty slot
  };
  static std::uint64_t hash(std::uint64_t t, std::uint64_t key) noexcept {
    std::uint64_t x = t ^ (key * 0x9E3779B97F4A7C15ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    return x;
  }
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two capacity, linear probing
  std::size_t size_ = 0;     ///< occupied slots
};

class Simulator {
 public:
  using Handler = InplaceHandler;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t`. Scheduling into the past
  /// (t < now()) fails the run in every build type.
  void at(SimTime t, Handler&& fn) { at_keyed(t, 0, std::move(fn)); }
  /// Schedules `fn` `delay` after now().
  void after(SimTime delay, Handler&& fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at `t` under a coalescing key (0 = none). Events
  /// sharing a fire time and a nonzero key form a burst: while one of
  /// them is running, coalesce_continues() reports whether more of the
  /// burst is still pending. Keys affect nothing else — fire order stays
  /// strictly (time, order).
  void at_keyed(SimTime t, std::uint64_t key, Handler&& fn);
  void after_keyed(SimTime delay, std::uint64_t key, Handler&& fn) {
    at_keyed(now_ + delay, key, std::move(fn));
  }

  /// True iff called from an event handler whose event carries a nonzero
  /// key and another pending event fires at the same time with the same
  /// key. The network uses this to decide whether a staged delivery burst
  /// keeps growing or must flush now — purely a peek; the heap order is
  /// untouched, so burst grouping is a deterministic function of the
  /// schedule. Legacy mode preserves the historical heap-front test
  /// (consecutive events only); rank mode counts all pending (time, key)
  /// events, which is the partition-invariant formulation.
  bool coalesce_continues() const noexcept {
    if (firing_key_ == 0) return false;
    if (rank_ordering()) return coalesce_.count(now_.ns(), firing_key_) > 0;
    return !heap_.empty() && heap_.front().time == now_ &&
           slot(heap_.front().slot).key == firing_key_;
  }

  /// Runs until the queue drains (or max_events fires as a runaway guard).
  void run(std::size_t max_events = 100'000'000);
  /// Runs all events with time <= t (inclusive — an event exactly at t
  /// fires), then advances the clock to t even if no events fired. The
  /// clock never moves backwards: run_until(t) with t < now() is a no-op.
  void run_until(SimTime t);

  std::size_t processed() const noexcept { return processed_; }
  bool empty() const noexcept { return heap_.empty(); }

  // --- Rank ordering & sharded execution -----------------------------------

  static constexpr std::uint32_t kRootRank = 0;        ///< harness / quiescent
  static constexpr std::uint32_t kControllerRank = 1;  ///< controller context
  /// Scheduling rank of a switch node (each node is one rank).
  static std::uint32_t rank_of(NodeId node) noexcept {
    return static_cast<std::uint32_t>(node.value) + 2u;
  }

  /// Switches this simulator to rank ordering. `root_counter` is the
  /// engine-owned shared counter for rank-0 (harness) orders; root
  /// allocations only ever happen on the coordinator or on shard 0's
  /// worker (never concurrently), so the pointer needs no synchronisation.
  void enable_rank_ordering(std::uint64_t* root_counter) noexcept {
    root_counter_ = root_counter;
  }
  bool rank_ordering() const noexcept { return root_counter_ != nullptr; }

  /// Overrides the scheduling context. Entry-point closures (frame
  /// delivery, channel legs) call this first thing so every order they
  /// allocate is attributed to the rank that owns their shard.
  void set_context(std::uint32_t rank) noexcept { current_rank_ = rank; }
  std::uint32_t context() const noexcept { return current_rank_; }

  /// Allocates the next (rank-invariant) order for the current context.
  /// Legacy mode: the global insertion counter.
  std::uint64_t allocate_order() {
    if (root_counter_ == nullptr) return next_seq_++;
    if (current_rank_ == kRootRank) return (*root_counter_)++;
    if (current_rank_ >= rank_counters_.size()) rank_counters_.resize(current_rank_ + 1, 0);
    return (static_cast<std::uint64_t>(current_rank_) << 32) |
           static_cast<std::uint64_t>(rank_counters_[current_rank_]++);
  }

  /// Pushes an event whose order was already allocated (cross-shard
  /// mailbox drain). Does not observe scheduling lag — the sender already
  /// observed it into its own shard's bundle at send time.
  void at_ordered(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn);

  /// Observes a scheduling lag on behalf of a cross-shard send (the event
  /// itself is pushed on the destination shard via at_ordered).
  void observe_lag(SimTime lag) {
    if (sched_lag_ns_ != nullptr) observe_lag_value(lag);
  }

  /// Fire time of the earliest pending event; `ok` false when empty.
  SimTime next_event_time(bool& ok) const noexcept {
    ok = !heap_.empty();
    return ok ? heap_.front().time : SimTime{};
  }

  /// Runs every event with time strictly below `horizon` (the conservative
  /// lookahead window), leaving the clock at the last fired event.
  void run_window(SimTime horizon);

  /// Forces the clock forward (never backwards) — the engine uses this to
  /// re-align all shard clocks at quiescence so harness code scheduling
  /// `after()` sees the same "now" regardless of shard count.
  void sync_clock(SimTime t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Order of the event currently firing (0 when quiescent). The span
  /// tracker mixes this into span ids in sharded runs; the pointer stays
  /// valid for the simulator's lifetime.
  const std::uint64_t* firing_order_ptr() const noexcept { return &firing_order_; }

  // --- Self-observability --------------------------------------------------

  /// Current and high-water event-queue depth (scheduled, not yet fired).
  std::size_t queue_depth() const noexcept { return heap_.size(); }
  std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
  std::uint64_t events_scheduled() const noexcept { return scheduled_; }

  /// Attaches the shared telemetry bundle (null = off): every schedule
  /// observes its lag (fire time minus now) into sim.sched_lag_ns. The
  /// lag distribution is a function of simulation state only, so it is
  /// deterministic and safe for byte-identical snapshots.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept;

  /// Writes queue/processing totals into the registry (sim.* series).
  /// Call once per run, before the bundle is stamped/serialised.
  void export_stats();

 private:
  /// Heap entry: the closure stays in its slab slot, so a sift step moves
  /// these 24 bytes only.
  struct Entry {
    SimTime time;
    std::uint64_t order;
    std::uint32_t slot;  ///< index of the closure's slab slot
  };
  static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);

  /// Heap predicate: std::push_heap builds a max-heap, so "later fires
  /// lower" puts the earliest (time, order) at the front. (time, order)
  /// pairs are unique in both ordering modes, which makes the fire order
  /// total and deterministic.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };

  /// A pending event's closure and coalescing key.
  struct Slot {
    Handler fn;
    std::uint64_t key = 0;  ///< coalescing key; the next free slot while free
  };
  static_assert(sizeof(Slot) <= 96, "slab memory per pending event must stay within 96 B");

  static constexpr std::uint32_t kChunkShift = 8;  ///< 256 slots (24 KiB) per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr std::uint32_t kNoSlot = ~0u;

  Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Slot& slot(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;

  void push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn);
  void observe_lag_value(SimTime lag);

  /// Pops the earliest entry, advances the clock, and runs its closure in
  /// its slot; then destroys the closure and recycles the slot.
  void fire_next();

  SimTime now_{};
  std::uint64_t next_seq_ = 0;    ///< legacy insertion-order counter
  std::uint64_t scheduled_ = 0;   ///< total pushes (== next_seq_ in legacy mode)
  std::uint64_t firing_key_ = 0;  ///< key of the event currently running
  std::uint64_t firing_order_ = 0;
  std::size_t processed_ = 0;
  std::vector<Entry> heap_;
  std::size_t max_queue_depth_ = 0;

  // Closure slab: slot i lives at chunks_[i >> kChunkShift][i & kChunkMask].
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;      ///< slots ever handed out (the bump mark)
  std::uint32_t free_head_ = kNoSlot;  ///< LIFO free list threaded through Slot::key

  // Rank-ordering state (engine mode only; root_counter_ null = legacy).
  std::uint64_t* root_counter_ = nullptr;
  std::uint32_t current_rank_ = kRootRank;
  std::vector<std::uint32_t> rank_counters_;
  CoalesceIndex coalesce_;

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Histogram* sched_lag_ns_ = nullptr;  ///< cached series (stable ref)
};

}  // namespace p4auth::netsim
