#include "common/buffer_pool.hpp"

namespace p4auth {

Bytes BufferPool::acquire(std::size_t capacity_hint) {
  ++stats_.acquires;
  if (!free_.empty()) {
    ++stats_.reuses;
    Bytes buffer = std::move(free_.back());
    free_.pop_back();
    buffer.clear();
    if (buffer.capacity() < capacity_hint) buffer.reserve(capacity_hint);
    return buffer;
  }
  ++stats_.misses;
  Bytes buffer;
  buffer.reserve(capacity_hint > config_.min_capacity ? capacity_hint : config_.min_capacity);
  return buffer;
}

void BufferPool::release(Bytes&& buffer) {
  if (buffer.capacity() < config_.min_capacity || buffer.capacity() > max_parked_capacity() ||
      free_.size() >= config_.max_buffers) {
    ++stats_.dropped;
    Bytes discard = std::move(buffer);  // free now, off the list
    return;
  }
  ++stats_.releases;
  // Reserve the whole cap on the first park so steady-state releases
  // never grow the list storage (the zero-alloc window counts those).
  if (free_.capacity() < config_.max_buffers) free_.reserve(config_.max_buffers);
  free_.push_back(std::move(buffer));
  if (free_.size() > stats_.high_water) stats_.high_water = free_.size();
}

}  // namespace p4auth
