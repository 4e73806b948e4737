// Deterministic discrete-event queues.
//
// Ties at equal timestamps are broken by insertion order (a monotone
// sequence number), so simulations replay identically for a given seed.
// Two implementations share that ordering contract:
//
//  * EventQueue      — the reference binary heap.
//  * CalendarQueue   — a calendar queue (wheel of per-bucket heaps) tuned
//                      for near-periodic workloads like beacon timers:
//                      schedule/pop are O(1) amortized because almost every
//                      event lands within one bucket-wheel revolution of
//                      now. Far-future events overflow into a plain heap
//                      and migrate onto the wheel as the cursor approaches.
//
// Both pop by *moving* the stored event out, so a payload that owns memory
// is never deep-copied on the hot path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
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

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Current simulation time: the timestamp of the last popped event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Timestamp of the next event; queue must be non-empty.
  [[nodiscard]] SimTime nextTime() const {
    assert(!heap_.empty());
    return heap_.front().at;
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

/// Calendar queue: a wheel of `bucketCount` slots, each a small heap holding
/// the events of one `bucketWidth`-wide stretch of simulated time. The
/// cursor tracks the bucket of the earliest pending event; events within one
/// revolution of the cursor go straight onto the wheel (O(1) into a heap
/// that is almost always tiny), anything further out waits in an overflow
/// heap and migrates as the cursor advances. Because two events with equal
/// timestamps always share a bucket, the (at, seq) pop order is *identical*
/// to EventQueue's — the differential tests assert exact equality.
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
    Entry entry{at, nextSeq_++, std::move(event)};
    ++size_;
    if (width_ <= 0) {
      detail::pushHeapEntry(overflow_, std::move(entry));
      return;
    }
    const std::int64_t bucket = at / width_;
    if (bucket < cursor_) {
      // Legal but rare: `at >= now()` bounds the timestamp, not the cursor,
      // which may already have jumped toward a far-future event when
      // nextTime() settled. Rewind the horizon to cover the new event.
      rewind(bucket);
    }
    if (bucket < cursor_ + span()) {
      pushWheel(std::move(entry), bucket);
    } else {
      detail::pushHeapEntry(overflow_, std::move(entry));
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Current simulation time: the timestamp of the last popped event.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Timestamp of the next event; queue must be non-empty. Not const: the
  /// cursor settles onto the earliest occupied bucket.
  [[nodiscard]] SimTime nextTime() {
    assert(size_ > 0);
    settle();
    return width_ <= 0 ? overflow_.front().at
                       : wheel_[slotOf(cursor_)].front().at;
  }

  /// The earliest event, left in place; queue must be non-empty.
  [[nodiscard]] const Event& peek() {
    assert(size_ > 0);
    settle();
    return width_ <= 0 ? overflow_.front().event
                       : wheel_[slotOf(cursor_)].front().event;
  }

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

 private:
  using Entry = detail::TimedEntry<Event>;

  [[nodiscard]] std::int64_t span() const noexcept {
    return static_cast<std::int64_t>(wheel_.size());
  }
  [[nodiscard]] std::size_t slotOf(std::int64_t bucket) const noexcept {
    return static_cast<std::size_t>(bucket) % wheel_.size();
  }

  void pushWheel(Entry entry, std::int64_t bucket) {
    detail::pushHeapEntry(wheel_[slotOf(bucket)], std::move(entry));
    ++onWheel_;
  }

  Entry popCurrentBucket() {
    Entry entry = detail::popHeapEntry(wheel_[slotOf(cursor_)]);
    --onWheel_;
    return entry;
  }

  /// Establishes the invariant "the cursor's bucket holds the global
  /// minimum": migrates overflow events that entered the horizon, walks the
  /// cursor over empty buckets, and jumps it when the whole wheel drained
  /// (everything pending lies beyond one revolution).
  void settle() {
    if (width_ <= 0) return;
    for (;;) {
      while (!overflow_.empty() &&
             overflow_.front().at / width_ < cursor_ + span()) {
        Entry entry = detail::popHeapEntry(overflow_);
        const std::int64_t bucket = entry.at / width_;
        pushWheel(std::move(entry), bucket);
      }
      if (!wheel_[slotOf(cursor_)].empty()) return;
      if (onWheel_ > 0) {
        ++cursor_;
        continue;
      }
      cursor_ = overflow_.front().at / width_;
    }
  }

  /// Pulls the cursor back to `bucket`, evicting wheel entries that no
  /// longer fit the shortened horizon into the overflow heap. Entries that
  /// still fit already sit in their correct slot (slot index depends only
  /// on the bucket number, not the cursor).
  void rewind(std::int64_t bucket) {
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
      std::make_heap(slot.begin(), slot.end(), detail::EntryAfter<Event>{});
    }
    cursor_ = bucket;
  }

  SimTime width_ = 0;
  std::vector<std::vector<Entry>> wheel_;
  std::vector<Entry> overflow_;
  std::int64_t cursor_ = 0;  ///< absolute bucket index of the earliest event
  std::size_t onWheel_ = 0;
  std::size_t size_ = 0;
  std::uint64_t nextSeq_ = 0;
  SimTime now_ = 0;
};

}  // namespace selfstab::adhoc
