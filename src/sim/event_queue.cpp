#include "sim/event_queue.hpp"

#include <algorithm>
#include <type_traits>

namespace sfly::sim {

static_assert(std::is_trivially_copyable_v<Event>,
              "Event is copied through the slab by value");
static_assert(std::is_default_constructible_v<EventQueue>);
static_assert(sizeof(Event) <= 40, "Event should stay cache-friendly");

void EventQueue::reserve() {
  high_water_ = size_;
  if (size_ > run_.capacity()) run_.reserve(std::max(size_, 2 * run_.capacity()));
  // Chunks in use never exceed one per 32 events, plus one partly filled
  // chunk per bucket and one in flight while settle() moves a bucket down.
  const std::size_t need = size_ / kChunkItems + kBuckets + 1;
  if (need <= chunks_.capacity()) return;
  chunks_.reserve(std::max(need, 2 * chunks_.capacity()));
  free_chunks_.reserve(chunks_.capacity());
}

void EventQueue::settle() {
  const int b = lowest();
  const Bucket from = buckets_[b];
  buckets_[b] = Bucket{};
  occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  // Any key of `from` can be the base: they all match the old base beyond
  // digit l and share their digit at l, so higher buckets stay valid.
  if (from.head == from.tail) {
    // One chunk: an insertion sort by (key, seq) makes it the run.
    for (std::uint32_t k = 0; k < from.end; ++k) {
      const Item it = chunks_[from.head].items[k];
      std::size_t j = run_.size();
      run_.push_back(it);
      for (; j > 0 && before(it, run_[j - 1]); --j) run_[j] = run_[j - 1];
      run_[j] = it;
    }
    base_ = run_.back().key;
    free_chunks_.push_back(from.head);
    return;
  }
  // Redistribute around the minimum: its equals form the run, sorted by
  // seq, and every other event lands in a lower bucket than b.
  base_ = from.min.key;
  for (std::uint32_t c = from.head; c != kNone;) {
    const std::uint32_t n = c == from.tail ? from.end : kChunkItems;
    for (std::uint32_t k = 0; k < n; ++k) {
      const Item it = chunks_[c].items[k];  // a copy: append may grow chunks_
      if (it.key == base_)
        run_.push_back(it);
      else
        append(bucket_of(it.key), it);
    }
    const std::uint32_t next = chunks_[c].next;
    free_chunks_.push_back(c);
    c = next;
  }
  const auto by_seq = [this](const Item& x, const Item& y) { return before(x, y); };
  if (!std::is_sorted(run_.begin(), run_.end(), by_seq))
    std::sort(run_.begin(), run_.end(), by_seq);
}

}  // namespace sfly::sim
