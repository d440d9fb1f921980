#include "netsim/sharded.hpp"

#include <utility>

#include "common/check.hpp"
#include "runner/runner.hpp"

namespace p4auth::netsim {

namespace {
/// Shard whose window runs on this thread; kNoShard on the coordinator,
/// on legacy runs, and on campaign workers that never enter a window.
thread_local int t_current_shard = kNoShard;
}  // namespace

int current_shard() noexcept { return t_current_shard; }
void set_current_shard(int shard) noexcept { t_current_shard = shard; }

ShardedSimulator::ShardedSimulator(Simulator& shard0, int count, int workers)
    : shard0_(shard0) {
  if (count < 1) count = 1;
  sims_.push_back(&shard0_);
  for (int k = 1; k < count; ++k) {
    owned_.push_back(std::make_unique<Simulator>());
    sims_.push_back(owned_.back().get());
  }
  for (Simulator* sim : sims_) sim->enable_rank_ordering(&root_counter_);
  mail_.resize(sims_.size());
  for (auto& row : mail_) row.resize(sims_.size());
  if (workers < 1) workers = 1;
  if (workers > count) workers = count;
  pool_ = std::make_unique<runner::WorkerPool>(workers - 1);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::schedule(int dst_shard, SimTime t, std::uint64_t key,
                                std::uint64_t order, Simulator::Handler&& fn) {
  const int src = current_shard();
  if (src < 0 || src == dst_shard) {
    sims_[static_cast<std::size_t>(dst_shard)]->at_ordered(t, key, order, std::move(fn));
    return;
  }
  // Conservative-lookahead invariant: a cross-shard send made during a
  // window can only land at or past the horizon, so the destination —
  // running the same window concurrently — cannot miss it.
  P4AUTH_CHECK(t >= horizon_, "cross-shard send below the lookahead horizon");
  mail_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst_shard)].push_back(
      Pending{t, key, order, std::move(fn)});
}

void ShardedSimulator::drain_mailboxes() {
  for (auto& row : mail_) {
    for (std::size_t dst = 0; dst < row.size(); ++dst) {
      Mailbox& box = row[dst];
      if (box.empty()) continue;
      for (Pending& p : box) sims_[dst]->at_ordered(p.t, p.key, p.order, std::move(p.fn));
      box.clear();  // capacity retained: steady-state drains do not allocate
    }
  }
}

void ShardedSimulator::run() {
  if (sims_.size() == 1) {
    // A lone shard has no cross-shard edges, so no window is needed — and
    // none is possible: with no cut links the lookahead is legitimately
    // zero, which would make the strictly-below-horizon window spin.
    // Draining the heap directly fires the exact same order the windowed
    // schedule would.
    drain_mailboxes();
    set_current_shard(0);
    sims_[0]->run();
    set_current_shard(kNoShard);
    return;
  }
  P4AUTH_CHECK(lookahead_.ns() > 0, "sharded run needs a positive lookahead");
  for (;;) {
    drain_mailboxes();
    bool any = false;
    SimTime t_min{};
    for (Simulator* sim : sims_) {
      bool ok = false;
      const SimTime t = sim->next_event_time(ok);
      if (ok && (!any || t < t_min)) {
        t_min = t;
        any = true;
      }
    }
    if (!any) break;
    horizon_ = t_min + lookahead_;
    pool_->dispatch(sims_.size(), [this](std::size_t k) {
      set_current_shard(static_cast<int>(k));
      sims_[k]->run_window(horizon_);
      set_current_shard(kNoShard);
    });
  }
  // Quiescent: re-align every clock to the global end time so harness
  // code scheduling relative to "now" behaves identically for any shard
  // count.
  SimTime end{};
  for (Simulator* sim : sims_) {
    if (sim->now() > end) end = sim->now();
  }
  for (Simulator* sim : sims_) sim->sync_clock(end);
  horizon_ = SimTime{};
}

std::size_t ShardedSimulator::processed() const noexcept {
  std::size_t n = 0;
  for (const Simulator* sim : sims_) n += sim->processed();
  return n;
}

}  // namespace p4auth::netsim
