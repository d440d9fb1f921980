#include "netsim/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace p4auth::netsim {

void CoalesceIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
  size_ = 0;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.n == 0) continue;
    std::size_t i = hash(s.t, s.key) & mask;
    while (slots_[i].n != 0) i = (i + 1) & mask;
    slots_[i] = s;
    ++size_;
  }
}

void CoalesceIndex::add(std::uint64_t t_ns, std::uint64_t key) {
  if (slots_.empty() || size_ * 10 >= slots_.size() * 7) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(t_ns, key) & mask;
  for (;;) {
    Slot& s = slots_[i];
    if (s.n == 0) {
      s = Slot{t_ns, key, 1};
      ++size_;
      return;
    }
    if (s.t == t_ns && s.key == key) {
      ++s.n;
      return;
    }
    i = (i + 1) & mask;
  }
}

void CoalesceIndex::remove(std::uint64_t t_ns, std::uint64_t key) noexcept {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(t_ns, key) & mask;
  for (;;) {
    Slot& s = slots_[i];
    if (s.n == 0) return;  // not present (only possible on misuse)
    if (s.t == t_ns && s.key == key) {
      if (--s.n > 0) return;
      // Backward-shift deletion keeps probe chains intact without
      // tombstones, so lookup cost never degrades over a long run.
      --size_;
      std::size_t hole = i;
      std::size_t j = (i + 1) & mask;
      while (slots_[j].n != 0) {
        const std::size_t home = hash(slots_[j].t, slots_[j].key) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
          slots_[hole] = slots_[j];
          hole = j;
        }
        j = (j + 1) & mask;
      }
      slots_[hole] = Slot{};
      return;
    }
    i = (i + 1) & mask;
  }
}

std::uint32_t CoalesceIndex::count(std::uint64_t t_ns, std::uint64_t key) const noexcept {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(t_ns, key) & mask;
  for (;;) {
    const Slot& s = slots_[i];
    if (s.n == 0) return 0;
    if (s.t == t_ns && s.key == key) return s.n;
    i = (i + 1) & mask;
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = static_cast<std::uint32_t>(slot(index).key);
    return index;
  }
  if ((slots_used_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kChunkShift));
  }
  return slots_used_++;
}

void Simulator::release_slot(std::uint32_t index) noexcept {
  slot(index).key = free_head_;
  free_head_ = index;
}

void Simulator::push_event(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn) {
  ++scheduled_;
  if (rank_ordering() && key != 0) coalesce_.add(t.ns(), key);
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.key = key;
  heap_.push_back(Entry{t, order, index});
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::observe_lag_value(SimTime lag) {
  sched_lag_ns_->observe(static_cast<double>(lag.ns()));
}

void Simulator::at_keyed(SimTime t, std::uint64_t key, Handler&& fn) {
  P4AUTH_CHECK(t >= now_, "cannot schedule into the past");
  if (sched_lag_ns_ != nullptr) observe_lag_value(t - now_);
  push_event(t, key, allocate_order(), std::move(fn));
}

void Simulator::at_ordered(SimTime t, std::uint64_t key, std::uint64_t order, Handler&& fn) {
  P4AUTH_CHECK(t >= now_, "cannot schedule into the past");
  push_event(t, key, order, std::move(fn));
}

void Simulator::set_telemetry(telemetry::Telemetry* telemetry) noexcept {
  telemetry_ = telemetry;
  sched_lag_ns_ =
      telemetry_ == nullptr ? nullptr : &telemetry_->metrics.histogram("sim.sched_lag_ns");
}

void Simulator::export_stats() {
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics;
  m.counter("sim.events_scheduled").inc(scheduled_);
  m.counter("sim.events_processed").inc(processed_);
  m.gauge("sim.queue_depth").set(static_cast<double>(heap_.size()));
  // High-water heap depth depends on how events split across shard heaps
  // — partition-variant, so rank mode (sharded runs) leaves it out to
  // keep snapshots byte-identical across --shards.
  if (!rank_ordering()) {
    m.gauge("sim.max_queue_depth").set(static_cast<double>(max_queue_depth_));
  }
}

void Simulator::fire_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry next = heap_.back();
  heap_.pop_back();
  Slot& s = slot(next.slot);
  now_ = next.time;
  firing_key_ = s.key;
  firing_order_ = next.order;
  if (rank_ordering()) {
    if (s.key != 0) coalesce_.remove(next.time.ns(), s.key);
    current_rank_ = static_cast<std::uint32_t>(next.order >> 32);
  }
  ++processed_;
  // Runs in place: the closure may schedule more events and grow the
  // slab, but chunks never move and this slot stays taken until it
  // returns. Destroying it here — after it returns, before the next
  // event fires — fixes where captured pool buffers are released.
  s.fn();
  firing_key_ = 0;
  firing_order_ = 0;
  s.fn.reset();
  release_slot(next.slot);
}

void Simulator::run(std::size_t max_events) {
  while (!heap_.empty() && processed_ < max_events) fire_next();
  current_rank_ = kRootRank;
}

void Simulator::run_until(SimTime t) {
  while (!heap_.empty() && heap_.front().time <= t) fire_next();
  current_rank_ = kRootRank;
  // Advance-only: a run_until into the past (t < now()) must not rewind
  // the clock, or subsequent after() calls would schedule "before" events
  // that already fired.
  if (t > now_) now_ = t;
}

void Simulator::run_window(SimTime horizon) {
  while (!heap_.empty() && heap_.front().time < horizon) fire_next();
  current_rank_ = kRootRank;
}

}  // namespace p4auth::netsim
