#include "sim/event_queue.hpp"

#include <algorithm>
#include <type_traits>

namespace sfly::sim {

static_assert(std::is_trivially_copyable_v<Event>,
              "Event is copied through the slab by value");
static_assert(std::is_default_constructible_v<EventQueue>);
static_assert(sizeof(Event) <= 40, "Event should stay cache-friendly");

void EventQueue::reserve_chunks() {
  high_water_ = size_;
  // Chunks in use never exceed one per 32 events, plus one partly filled
  // chunk per bucket, one for bucket 0's partly read head and one in
  // flight while settle() moves a bucket down.
  const std::size_t need = size_ / kChunkItems + kBuckets + 2;
  if (need <= chunks_.capacity()) return;
  chunks_.reserve(std::max(need, 2 * chunks_.capacity()));
  free_chunks_.reserve(chunks_.capacity());
}

void EventQueue::settle() {
  const int b = lowest();
  const Bucket from = buckets_[b];
  base_ = from.min.key;
  buckets_[b] = Bucket{};
  occupied_[(b - 1) / 64] &= ~(std::uint64_t{1} << ((b - 1) % 64));
  // Every key in `from` now matches the base beyond digit l, and at digit l
  // itself, so each event lands in a lower bucket; the minimum's in bucket 0.
  for (std::uint32_t c = from.head; c != kNone;) {
    const std::uint32_t n = c == from.tail ? from.end : kChunkItems;
    for (std::uint32_t k = 0; k < n; ++k) {
      const Item it = chunks_[c].items[k];  // a copy: append may grow chunks_
      append(bucket_of(it.key), it);
    }
    const std::uint32_t next = chunks_[c].next;
    free_chunks_.push_back(c);
    c = next;
  }
}

}  // namespace sfly::sim
