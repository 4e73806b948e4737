// Deterministic discrete-event queues.
//
// Ties at equal timestamps are broken by insertion order (a monotone
// sequence number), so simulations replay identically for a given seed.
// Two implementations share that ordering contract:
//
//  * EventQueue      — the reference binary heap.
//  * CalendarQueue   — a calendar queue (a wheel of append-only buckets)
//                      tuned for near-periodic workloads like beacon
//                      timers: schedule is an append, and a bucket is
//                      sorted once, when the cursor reaches it, after which
//                      each pop takes its last element (the ladder-queue
//                      idea: Tang, Goh and Thng, ACM TOMACS 2005). Events
//                      scheduled into the bucket being drained wait in a
//                      small side heap that pop merges. Far-future events
//                      overflow into a plain heap and migrate onto the
//                      wheel as the cursor approaches.
//
// A third structure, FifoLane, holds a stream of events that are scheduled
// in (time, seq) order (each later than every one before it) outside the
// queue; the queue hands out the lane's sequence numbers too (takeSeq), so
// merging the two by (at, seq) gives exactly the order one queue holding
// both would pop.
//
// The queues pop by *moving* the stored event out, so a payload that owns
// memory is never deep-copied on the hot path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "adhoc/sim_time.hpp"

namespace selfstab::adhoc {

namespace detail {

template <typename Event>
struct TimedEntry {
  SimTime at;
  std::uint64_t seq;
  Event event;
};

// Heap comparator: std::push_heap builds a max-heap, so order entries such
// that the earliest (then lowest-seq) entry is the "largest" and sits at
// the front.
template <typename Event>
struct EntryAfter {
  bool operator()(const TimedEntry<Event>& a,
                  const TimedEntry<Event>& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// Removes and returns the minimum entry of a heap-ordered vector, moving
/// it out rather than copying (std::priority_queue cannot do this — its
/// top() is const, which is exactly the deep-copy bug this replaces).
template <typename Event>
TimedEntry<Event> popHeapEntry(std::vector<TimedEntry<Event>>& heap) {
  std::pop_heap(heap.begin(), heap.end(), EntryAfter<Event>{});
  TimedEntry<Event> entry = std::move(heap.back());
  heap.pop_back();
  return entry;
}

template <typename Event>
void pushHeapEntry(std::vector<TimedEntry<Event>>& heap,
                   TimedEntry<Event> entry) {
  heap.push_back(std::move(entry));
  std::push_heap(heap.begin(), heap.end(), EntryAfter<Event>{});
}

}  // namespace detail

template <typename Event>
class EventQueue {
 public:
  /// Schedules `event` at absolute time `at` (must be >= now()).
  void schedule(SimTime at, Event event) {
    assert(at >= now_);
    detail::pushHeapEntry(heap_, Entry{at, nextSeq_++, std::move(event)});
  }

  /// Takes the next sequence number for an event kept outside the queue
  /// (a FifoLane entry), as if that event had been scheduled here.
  [[nodiscard]] std::uint64_t takeSeq() noexcept { return nextSeq_++; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Current simulation time: the timestamp of the last popped event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Timestamp of the next event; queue must be non-empty.
  [[nodiscard]] SimTime nextTime() const {
    assert(!heap_.empty());
    return heap_.front().at;
  }

  /// Sequence number of the next event; queue must be non-empty.
  [[nodiscard]] std::uint64_t nextSeq() const {
    assert(!heap_.empty());
    return heap_.front().seq;
  }

  /// Removes and returns the earliest event, advancing now().
  Event pop() {
    assert(!heap_.empty());
    Entry top = detail::popHeapEntry(heap_);
    now_ = top.at;
    return std::move(top.event);
  }

 private:
  using Entry = detail::TimedEntry<Event>;

  std::vector<Entry> heap_;
  std::uint64_t nextSeq_ = 0;
  SimTime now_ = 0;
};

/// Calendar queue: a wheel of `bucketCount` slots, each holding the events
/// of one `bucketWidth`-wide stretch of simulated time in an append-only
/// vector. The cursor tracks the bucket of the earliest pending event; when
/// it settles on a bucket, that bucket is sorted latest-first once, and
/// pops take its back. An event scheduled into that sorted bucket goes to a
/// side heap instead (pop takes the earlier of the two fronts); events
/// within one revolution of the cursor are appended to their slot, and
/// anything further out waits in an overflow heap and migrates as the
/// cursor advances. Because two events with equal timestamps always share
/// a bucket, the (at, seq) pop order is *identical* to EventQueue's — the
/// differential tests assert exact equality.
///
/// `bucketWidth <= 0` degenerates to a single heap (reference behavior).
template <typename Event>
class CalendarQueue {
 public:
  explicit CalendarQueue(SimTime bucketWidth = 0,
                         std::size_t bucketCount = 64)
      : width_(bucketWidth > 0 ? bucketWidth : 0),
        wheel_(width_ > 0 ? bucketCount : 0) {
    assert(width_ <= 0 || bucketCount > 0);
  }

  /// Schedules `event` at absolute time `at` (must be >= now()).
  void schedule(SimTime at, Event event) {
    assert(at >= now_);
    ++size_;
    place(Entry{at, nextSeq_++, std::move(event)});
  }

  /// Takes the next sequence number for an event kept outside the queue
  /// (a FifoLane entry), as if that event had been scheduled here.
  [[nodiscard]] std::uint64_t takeSeq() noexcept { return nextSeq_++; }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Current simulation time: the timestamp of the last popped event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Timestamp of the next event; queue must be non-empty. Not const: the
  /// cursor settles onto the earliest occupied bucket.
  [[nodiscard]] SimTime nextTime() { return front().at; }

  /// Sequence number of the next event; queue must be non-empty.
  [[nodiscard]] std::uint64_t nextSeq() { return front().seq; }

  /// The earliest event, left in place; queue must be non-empty.
  [[nodiscard]] const Event& peek() { return front().event; }

  /// Removes and returns the earliest event, advancing now().
  Event pop() {
    assert(size_ > 0);
    settle();
    Entry entry = width_ <= 0 ? detail::popHeapEntry(overflow_)
                              : popCurrentBucket();
    now_ = entry.at;
    --size_;
    return std::move(entry.event);
  }

  /// Rebuilds the wheel with `bucketCount` slots of the same width (a
  /// simulator whose beacon intervals may stretch covers them again).
  /// Sequence numbers and the pop order are unchanged.
  void setBucketCount(std::size_t bucketCount) {
    assert(bucketCount > 0);
    if (width_ <= 0 || bucketCount == wheel_.size()) return;
    std::vector<Entry> moved = std::move(side_);
    for (auto& slot : wheel_) {
      for (Entry& entry : slot) moved.push_back(std::move(entry));
    }
    wheel_.assign(bucketCount, {});
    side_.clear();
    sorted_ = kNone;
    onWheel_ = 0;
    moveCursor(cursor_);
    for (Entry& entry : moved) place(std::move(entry));
  }

 private:
  using Entry = detail::TimedEntry<Event>;

  static constexpr std::int64_t kNone =
      std::numeric_limits<std::int64_t>::min();

  [[nodiscard]] std::int64_t span() const noexcept {
    return static_cast<std::int64_t>(wheel_.size());
  }
  [[nodiscard]] std::size_t slotOf(std::int64_t bucket) const noexcept {
    return static_cast<std::size_t>(bucket) % wheel_.size();
  }

  [[nodiscard]] const Entry& front() {
    assert(size_ > 0);
    settle();
    if (width_ <= 0) return overflow_.front();
    const auto& slot = wheel_[cursorSlot_];
    return sideFirst(slot) ? side_.front() : slot.back();
  }

  /// Whether the side heap holds the earliest event of the sorted cursor
  /// bucket `slot`.
  [[nodiscard]] bool sideFirst(const std::vector<Entry>& slot) const {
    return !side_.empty() &&
           (slot.empty() ||
            detail::EntryAfter<Event>{}(slot.back(), side_.front()));
  }

  /// Files an entry at or after the cursor's bucket: the side heap for the
  /// sorted bucket, its slot within one revolution, the overflow beyond.
  void place(Entry entry) {
    if (width_ <= 0) {
      detail::pushHeapEntry(overflow_, std::move(entry));
      return;
    }
    const std::int64_t bucket = entry.at / width_;
    if (bucket < cursor_) {
      // Legal but rare: `at >= now()` bounds the timestamp, not the cursor,
      // which may already have jumped toward a far-future event when
      // nextTime() settled. Rewind the horizon to cover the new event.
      rewind(bucket);
    }
    if (bucket == sorted_) {
      detail::pushHeapEntry(side_, std::move(entry));
      ++onWheel_;
    } else if (bucket < cursor_ + span()) {
      wheel_[slotOf(bucket)].push_back(std::move(entry));
      ++onWheel_;
    } else {
      detail::pushHeapEntry(overflow_, std::move(entry));
    }
  }

  Entry popCurrentBucket() {
    auto& slot = wheel_[cursorSlot_];
    --onWheel_;
    if (sideFirst(slot)) return detail::popHeapEntry(side_);
    Entry entry = std::move(slot.back());
    slot.pop_back();
    return entry;
  }

  /// Establishes the invariant "the cursor's bucket holds the global
  /// minimum and is sorted": migrates overflow events that entered the
  /// horizon, walks the cursor over empty buckets, jumps it when the whole
  /// wheel drained (everything pending lies beyond one revolution), and
  /// sorts the bucket it stops on, once. Every pop and peek calls it, so
  /// the usual case (a sorted, non-empty cursor bucket, an empty overflow)
  /// divides by nothing: the cursor's slot is kept, not recomputed.
  void settle() {
    if (width_ <= 0) return;
    for (;;) {
      while (!overflow_.empty() &&
             overflow_.front().at / width_ < cursor_ + span()) {
        place(detail::popHeapEntry(overflow_));
      }
      auto& slot = wheel_[cursorSlot_];
      if (sorted_ == cursor_) {
        if (!slot.empty() || !side_.empty()) return;
      } else if (!slot.empty()) {
        std::sort(slot.begin(), slot.end(), detail::EntryAfter<Event>{});
        sorted_ = cursor_;
        return;
      }
      sorted_ = kNone;
      if (onWheel_ > 0) {
        ++cursor_;
        if (++cursorSlot_ == wheel_.size()) cursorSlot_ = 0;
        continue;
      }
      moveCursor(overflow_.front().at / width_);
    }
  }

  void moveCursor(std::int64_t bucket) {
    cursor_ = bucket;
    cursorSlot_ = slotOf(bucket);
  }

  /// Pulls the cursor back to `bucket`, evicting wheel entries that no
  /// longer fit the shortened horizon into the overflow heap. Entries that
  /// still fit already sit in their correct slot (slot index depends only
  /// on the bucket number, not the cursor); the sorted bucket takes its
  /// side heap back and is sorted again when the cursor returns to it.
  void rewind(std::int64_t bucket) {
    if (sorted_ != kNone) {
      auto& slot = wheel_[slotOf(sorted_)];
      for (Entry& entry : side_) slot.push_back(std::move(entry));
      side_.clear();
      sorted_ = kNone;
    }
    for (auto& slot : wheel_) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < slot.size(); ++i) {
        if (slot[i].at / width_ >= bucket + span()) {
          detail::pushHeapEntry(overflow_, std::move(slot[i]));
          --onWheel_;
        } else {
          if (keep != i) slot[keep] = std::move(slot[i]);
          ++keep;
        }
      }
      slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(keep),
                 slot.end());
    }
    moveCursor(bucket);
  }

  SimTime width_ = 0;
  std::vector<std::vector<Entry>> wheel_;
  std::vector<Entry> side_;      ///< heap: late arrivals to the sorted bucket
  std::vector<Entry> overflow_;  ///< heap: beyond one revolution
  std::int64_t cursor_ = 0;  ///< absolute bucket index of the earliest event
  std::size_t cursorSlot_ = 0;   ///< slotOf(cursor_)
  std::int64_t sorted_ = kNone;  ///< the cursor's bucket once sorted
  std::size_t onWheel_ = 0;      ///< entries in wheel slots and side_
  std::size_t size_ = 0;
  std::uint64_t nextSeq_ = 0;
  SimTime now_ = 0;
};

/// A FIFO of events kept beside a queue: each entry is pushed with an (at,
/// seq) key greater than every earlier entry's, the seq taken from the
/// queue's takeSeq(), and leads() tells whether the lane's front precedes
/// the queue's next event. `Entry` needs `at` and `seq` members and a
/// default constructor.
///
/// Entries live in a ring of recycled slots: push() hands back a slot with
/// whatever its previous entry left there (buffers included, to be
/// overwritten), and a popped entry stays readable at its position until
/// release() passes it.
template <typename Entry>
class FifoLane {
 public:
  using Position = std::uint64_t;

  /// Appends an entry keyed (at, seq) and returns it; tail() - 1 is its
  /// position.
  Entry& push(SimTime at, std::uint64_t seq) {
    assert(empty() || at > back().at || (at == back().at && seq > back().seq));
    if (tail_ - released_ == slots_.size()) grow();
    Entry& entry = slots_[tail_++ & mask_];
    entry.at = at;
    entry.seq = seq;
    return entry;
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  /// Entries pushed and not yet popped.
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_ - head_);
  }
  /// The position of the next entry to pop.
  [[nodiscard]] Position head() const noexcept { return head_; }
  /// One past the last pushed entry.
  [[nodiscard]] Position tail() const noexcept { return tail_; }

  /// The earliest unpopped entry; lane must be non-empty.
  [[nodiscard]] const Entry& front() const {
    assert(!empty());
    return slots_[head_ & mask_];
  }

  /// Pops the front and returns its position; the entry stays readable
  /// there until released.
  Position pop() {
    assert(!empty());
    return head_++;
  }

  /// An entry pushed and not yet released.
  [[nodiscard]] Entry& operator[](Position at) {
    assert(at >= released_ && at < tail_);
    return slots_[at & mask_];
  }
  [[nodiscard]] const Entry& operator[](Position at) const {
    assert(at >= released_ && at < tail_);
    return slots_[at & mask_];
  }

  /// Lets push() reuse the slots of every popped entry before `end`.
  void release(Position end) noexcept {
    assert(end >= released_ && end <= head_);
    released_ = end;
  }

  /// Whether the front precedes `queue`'s next event by (at, seq).
  template <typename Queue>
  [[nodiscard]] bool leads(Queue& queue) const {
    if (empty()) return false;
    if (queue.empty()) return true;
    const Entry& entry = front();
    const SimTime at = queue.nextTime();
    return entry.at < at || (entry.at == at && entry.seq < queue.nextSeq());
  }

 private:
  [[nodiscard]] const Entry& back() const {
    return slots_[(tail_ - 1) & mask_];
  }

  /// Doubles the ring, moving every slot (live or spare) to its place.
  void grow() {
    const std::size_t size = std::max<std::size_t>(16, 2 * slots_.size());
    std::vector<Entry> slots(size);
    for (Position at = released_; at < released_ + slots_.size(); ++at) {
      slots[at & (size - 1)] = std::move(slots_[at & mask_]);
    }
    slots_ = std::move(slots);
    mask_ = size - 1;
  }

  std::vector<Entry> slots_;
  Position mask_ = 0;
  Position released_ = 0;  ///< slots before this may be reused
  Position head_ = 0;      ///< next entry to pop
  Position tail_ = 0;      ///< next entry to push
};

}  // namespace selfstab::adhoc
