#pragma once
// Deterministic discrete-event queue: events pop in (time, seq) order.
// push() takes the next seq, so simultaneous events fire in push order;
// draw_seq() takes one without pushing, and push_drawn() later pushes an
// event under that earlier seq, exactly where a push at draw time would
// have put it among its ties.
//
// It is a monotone radix queue (DESIGN.md §4). Each time maps to a 64-bit
// key by an order-preserving bit transform (-0.0 and +0.0 share a key),
// read as 16 hex digits. The events due next form the run: an array sorted
// by (key, seq), read front to back. Every later event sits in a radix
// bucket relative to the base, the run's last key: such a key first
// differs from the base at some digit l, where its own digit d is the
// larger, and goes to bucket 16*l + d, so every event in a lower bucket is
// earlier. That only holds while no event is pushed before the last pop,
// so a push rejects such a time (and NaN, which has no place in the
// order); the simulator never schedules into its past. A push at or below
// the base joins the run at its (key, seq) upper bound.
//
// When the run is empty, pop takes the lowest non-empty bucket. One that
// fits in a chunk is insertion-sorted into the run, and its largest key
// becomes the base. A larger one is redistributed by digit around its
// minimum (each bucket keeps its own as events arrive): the events equal
// to it form the run, sorted by seq, and the rest move to lower buckets.
// Equal times always share a bucket, and equal keys compare the seq
// stored in the slab wherever the order is decided (the run's insert, the
// insertion sort, each bucket's minimum), so the pops are exactly those of
// a (time, seq) heap. A fresh seq is the largest yet, so a push() still
// lands after every equal key.
//
// Buckets are chains of 32-item chunks drawn from one pool; event payloads
// live in a slab with a free list. The pool, the run and the slab grow
// only when the depth passes its high-water mark, so a warmed-up queue
// never allocates.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sfly::sim {

enum class EventKind : std::uint8_t {
  kInjectMessage,  // a = message id
  kArrival,        // a = packet id, b = port it arrives through
  kTryTransmit,    // a = port id
  kCreditReturn,   // a = port id, b = (vc << 32) | bytes
  kDeliver,        // a = packet id
  // Dynamic fault injection (DESIGN.md §7): scheduled by
  // Simulator::inject_failures from a graph-layer FailureSchedule.
  kLinkDown,       // a = router u, b = router v
  kLinkUp,         // a = router u, b = router v
  kRouterDown,     // a = router
  kRouterUp,       // a = router
};
inline constexpr std::size_t kEventKinds = 9;  // one per EventKind

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kInjectMessage;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EventQueue {
 public:
  /// Schedule an event under the next seq. Throws std::invalid_argument
  /// if `time` is NaN or earlier than the last popped event's time.
  void push(double time, EventKind kind, std::uint64_t a, std::uint64_t b = 0) {
    insert(time, seq_++, kind, a, b);
  }
  /// Take the next seq without pushing anything.
  [[nodiscard]] std::uint64_t draw_seq() { return seq_++; }
  /// Schedule an event under a seq drawn earlier by draw_seq() and not
  /// pushed yet; it pops among equal times by that seq. Throws as push()
  /// does.
  void push_drawn(double time, std::uint64_t seq, EventKind kind, std::uint64_t a,
                  std::uint64_t b = 0) {
    insert(time, seq, kind, a, b);
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// The event pop() returns next. Requires !empty().
  [[nodiscard]] const Event& top() const {
    if (!run_.empty()) return slab_[run_[front_].slot];
    return slab_[buckets_[lowest()].min.slot];
  }
  /// Requires !empty().
  Event pop() {
    if (run_.empty()) settle();
    const Item item = run_[front_];
    if (++front_ == run_.size()) {
      run_.clear();
      front_ = 0;
    }
    last_ = item.key;
    --size_;
    free_slots_.push_back(item.slot);
    return slab_[item.slot];
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Calls fn(const Event&) once per queued event, in no set order.  A
  /// test aid (Simulator::audit); it allocates nothing.
  template <class F>
  void for_each(F&& fn) const {
    for (std::size_t i = front_; i < run_.size(); ++i) fn(slab_[run_[i].slot]);
    for (const Bucket& q : buckets_)
      for (std::uint32_t c = q.head; c != kNone; c = chunks_[c].next)
        for (std::uint32_t i = 0; i < (c == q.tail ? q.end : kChunkItems); ++i)
          fn(slab_[chunks_[c].items[i].slot]);
  }

 private:
  static constexpr std::uint32_t kChunkItems = 32;
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr int kDigitBits = 4;
  static constexpr int kBuckets = (64 / kDigitBits) << kDigitBits;
  static_assert(kBuckets % 64 == 0, "occupied_ has one bit per bucket");

  struct Item {
    std::uint64_t key;
    std::uint32_t slot;  // index into slab_
  };
  struct Chunk {
    std::uint32_t next = kNone;
    Item items[kChunkItems];
  };
  // A FIFO chain of chunks; `end` is the fill of the tail chunk, and `min`
  // the item of least (key, seq).
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t end = 0;
    Item min{UINT64_MAX, 0};  // no event has this key: it would be a NaN
  };

  void insert(double time, std::uint64_t seq, EventKind kind, std::uint64_t a,
              std::uint64_t b) {
    const std::uint64_t key = order_key(time);
    if (key < last_)
      throw std::invalid_argument("EventQueue::push: time before the last pop");
    if (++size_ > high_water_) reserve();
    const Item item{key, alloc_slot(Event{time, seq, kind, a, b})};
    if (key <= base_)
      run_insert(item);
    else
      append(bucket_of(key), item);
  }

  // (key, seq) order; the seq is read only to break a tie.
  bool before(const Item& x, const Item& y) const {
    return x.key < y.key || (x.key == y.key && slab_[x.slot].seq < slab_[y.slot].seq);
  }

  static std::uint64_t order_key(double time) {
    if (std::isnan(time)) throw std::invalid_argument("EventQueue::push: NaN time");
    const auto bits = std::bit_cast<std::uint64_t>(time == 0.0 ? 0.0 : time);
    return (bits >> 63) ? ~bits : bits | (std::uint64_t{1} << 63);
  }

  // Requires key > base_.
  int bucket_of(std::uint64_t key) const {
    const int level = (std::bit_width(key ^ base_) - 1) / kDigitBits;
    const auto digit = (key >> (level * kDigitBits)) & ((1u << kDigitBits) - 1);
    return (level << kDigitBits) + static_cast<int>(digit);
  }
  // The lowest non-empty bucket. Requires one.
  int lowest() const {
    int w = 0;
    while (occupied_[w] == 0) ++w;
    return 64 * w + std::countr_zero(occupied_[w]);
  }

  std::uint32_t alloc_slot(const Event& e) {
    if (free_slots_.empty()) {
      slab_.push_back(e);
      // Grown here, so the free list never reallocates inside pop().
      free_slots_.reserve(slab_.capacity());
      return static_cast<std::uint32_t>(slab_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = e;
    return slot;
  }

  std::uint32_t new_chunk() {
    std::uint32_t c = 0;
    if (free_chunks_.empty()) {
      c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    } else {
      c = free_chunks_.back();
      free_chunks_.pop_back();
      chunks_[c].next = kNone;
    }
    return c;
  }

  void append(int b, Item item) {
    Bucket& q = buckets_[b];
    if (q.head == kNone) {
      q.head = q.tail = new_chunk();
      q.end = 0;
      occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    } else if (q.end == kChunkItems) {
      const std::uint32_t c = new_chunk();
      chunks_[q.tail].next = c;
      q.tail = c;
      q.end = 0;
    }
    chunks_[q.tail].items[q.end++] = item;
    // min.key is UINT64_MAX, which no event has, until the first append.
    if (before(item, q.min)) q.min = item;
  }

  // Requires base_ >= item.key >= last_. An item after the run's last
  // appends, as every push at the base does.
  void run_insert(Item item) {
    if (run_.size() == run_.capacity()) {
      // The run never holds more than size_ <= capacity unread items, so
      // dropping the read ones always makes room.
      run_.erase(run_.begin(), run_.begin() + front_);
      front_ = 0;
    }
    auto at = run_.end();
    if (!run_.empty() && before(item, run_.back()))
      at = std::upper_bound(run_.begin() + front_, at, item,
                            [this](const Item& x, const Item& y) { return before(x, y); });
    run_.insert(at, item);
  }
  void reserve();
  void settle();

  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> free_chunks_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Item> run_;       // sorted; [front_, end) not yet popped
  Bucket buckets_[kBuckets];
  std::uint64_t occupied_[kBuckets / 64] = {};  // bit b: bucket b non-empty
  std::uint64_t base_ = 0;      // the run's last key; buckets hold larger keys
  std::uint64_t last_ = 0;      // key of the last pop
  std::uint32_t front_ = 0;     // read index in run_
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace sfly::sim
