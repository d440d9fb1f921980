// Conservative parallel discrete-event engine: one topology, many cores.
//
// The fabric's node set is partitioned into shards, each driven by its
// own Simulator (event heap, clock, buffer pool, telemetry bundle). The
// engine advances the whole system in lookahead windows:
//
//   1. barrier: drain every cross-shard mailbox into the target heaps
//   2. t_min  = earliest pending event across all shards
//   3. window = [t_min, t_min + lookahead); every shard runs all its
//      events strictly below the horizon, in parallel on a WorkerPool
//   4. repeat until every heap and mailbox is empty
//
// Lookahead is the minimum cross-shard delivery delay (link latency /
// control-channel base, computed by the Fabric at partition time), so a
// frame sent during a window can only land at or past the horizon —
// no shard can receive an event "in its past" and the barrier needs no
// null-message protocol beyond the window itself.
//
// Determinism: every event carries a (time, order) pair where order =
// (rank << 32 | per-rank counter) is allocated by the *sending* rank
// (see Simulator's rank-ordering mode). Each rank's counter lives on
// exactly one shard, so the orders — and therefore each heap's fire
// sequence — are a pure function of the schedule, not the partition:
// metrics, traces, audit trails, and bench JSON are byte-identical for
// any shard count (pinned by tests/integration/shard_equivalence_test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "netsim/shard_context.hpp"
#include "netsim/simulator.hpp"

namespace p4auth::runner {
class WorkerPool;
}  // namespace p4auth::runner

namespace p4auth::netsim {

class ShardedSimulator {
 public:
  /// `shard0` is the externally-owned simulator (the Fabric's public
  /// `sim`); shards 1..count-1 are created here. `workers` is the
  /// parallelism budget (>= 1, clamped to the shard count); the calling
  /// thread participates, so `workers` == total concurrent shards.
  /// Every shard — including shard0 — is switched to rank ordering
  /// against this engine's shared root counter.
  ShardedSimulator(Simulator& shard0, int count, int workers);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shards() const noexcept { return static_cast<int>(sims_.size()); }
  Simulator& shard(int k) noexcept { return *sims_[static_cast<std::size_t>(k)]; }
  const std::vector<Simulator*>& shard_sims() const noexcept { return sims_; }

  /// Minimum cross-shard delivery delay; must be > 0 before a run with
  /// more than one shard (checked in every build type). The Fabric
  /// computes it from the partition's cut edges.
  void set_lookahead(SimTime lookahead) noexcept { lookahead_ = lookahead; }
  SimTime lookahead() const noexcept { return lookahead_; }

  /// The shared rank-0 (harness/root) order counter. Only touched from
  /// quiescence or from shard 0's window (never concurrently).
  std::uint64_t* root_counter() noexcept { return &root_counter_; }

  /// Routes an event with a pre-allocated order to `dst_shard`. Same
  /// shard or quiescent: straight into the heap. Cross-shard during a
  /// window: into the sender's SPSC mailbox, drained at the next
  /// barrier — legal only at or past the current horizon, which the
  /// lookahead guarantees (a send below it fails the run in every build
  /// type).
  void schedule(int dst_shard, SimTime t, std::uint64_t key, std::uint64_t order,
                Simulator::Handler&& fn);

  /// Runs windows until every heap and mailbox drains, then re-aligns
  /// all shard clocks to the global end time so quiescent harness code
  /// sees one consistent "now" regardless of shard count.
  void run();

  /// Total events processed across all shards.
  std::size_t processed() const noexcept;

 private:
  struct Pending {
    SimTime t{};
    std::uint64_t key = 0;
    std::uint64_t order = 0;
    Simulator::Handler fn;
  };
  /// mail_[src][dst]: written only by the thread running src's window,
  /// drained only by the coordinator at the barrier (the WorkerPool's
  /// dispatch mutex orders the two).
  using Mailbox = std::vector<Pending>;

  void drain_mailboxes();

  Simulator& shard0_;
  std::vector<std::unique_ptr<Simulator>> owned_;  ///< shards 1..
  std::vector<Simulator*> sims_;                   ///< [0] == &shard0_
  std::vector<std::vector<Mailbox>> mail_;         ///< [src][dst]
  SimTime lookahead_{};
  SimTime horizon_{};  ///< exclusive bound of the window in flight
  std::uint64_t root_counter_ = 0;
  std::unique_ptr<runner::WorkerPool> pool_;
};

}  // namespace p4auth::netsim
