#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ccfuzz::sim {

EventId EventQueue::schedule_impl(TimeNs at, EventCallback fn) {
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  const std::uint32_t seq = next_seq_++;
  s.fn = std::move(fn);
  ++s.generation;
  s.seq = seq;
  s.live = true;
  insert(HeapHandle{at.ns(), seq, slot});
  ++live_;
  // slot+1 keeps 0 out of the valid-id range.
  return (static_cast<EventId>(slot + 1) << 32) | s.generation;
}

void EventQueue::cancel(EventId id) {
  if (id == 0) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32) - 1;
  const std::uint32_t generation = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Already fired, already cancelled, recycled, or from before a reset().
  if (!s.live || s.generation != generation) return;
  s.fn.reset();
  s.live = false;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
  // The handle stays behind in whichever band holds it; stale() skips it
  // when it surfaces (heap) or migrates (far band).
}

void EventQueue::insert(HeapHandle h) {
  const std::int64_t epoch = epoch_of(h.at_ns);
  if (epoch <= horizon_) {
    heap_push(h);
  } else {
    far_push(h, epoch);
  }
}

std::uint32_t EventQueue::lane_register(Lane* lane) {
  std::uint32_t id;
  if (free_lane_ != kNil) {
    id = free_lane_;
    free_lane_ = lanes_[id].next_free;
  } else {
    id = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
  }
  lanes_[id] = LaneEntry{lane, 0, 0, kNil};
  return id;
}

void EventQueue::lane_unregister(std::uint32_t id) {
  LaneEntry& e = lanes_[id];
  // Any handle left in a band turns stale: pending is zero now, and a lane
  // that later reuses this id gives its heads fresh seqs.
  live_ -= e.pending;
  e = LaneEntry{nullptr, 0, 0, free_lane_};
  free_lane_ = id;
}

std::uint32_t EventQueue::lane_push(std::uint32_t id, TimeNs at,
                                    std::uint32_t n) {
  assert(n > 0);
  LaneEntry& e = lanes_[id];
  const std::uint32_t seq = next_seq_;
  next_seq_ += n;
  live_ += n;
  if (e.pending == 0) {
    // An idle lane gains a head: it needs a handle again.
    e.head_seq = seq;
    insert(HeapHandle{at.ns(), seq, kLaneTag | id});
  }
  e.pending += n;
  return seq;
}

void EventQueue::lane_rekey(std::uint32_t id, TimeNs at, std::uint32_t seq) {
  assert(!heap_.empty() && heap_[0].slot == (kLaneTag | id));
  lanes_[id].head_seq = seq;
  const HeapHandle h{at.ns(), seq, kLaneTag | id};
  const std::int64_t epoch = epoch_of(h.at_ns);
  if (epoch <= horizon_) {
    heap_replace_top(h);
  } else {
    heap_pop_top();
    far_push(h, epoch);
  }
}

void EventQueue::lane_drained(std::uint32_t id) {
  assert(!heap_.empty() && heap_[0].slot == (kLaneTag | id));
  (void)id;
  heap_pop_top();
}

void EventQueue::heap_push(HeapHandle h) {
  std::size_t i = heap_.size();
  heap_.push_back(h);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(h, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = h;
}

void EventQueue::heap_pop_top() {
  const HeapHandle last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_replace_top(last);
}

void EventQueue::heap_replace_top(HeapHandle h) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], h)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = h;
}

void EventQueue::far_push(HeapHandle h, std::int64_t epoch) {
  if (epoch <= horizon_ + static_cast<std::int64_t>(kWheelSize)) {
    const std::size_t slot = static_cast<std::size_t>(epoch) & kWheelMask;
    wheel_[slot].push_back(h);
    wheel_bits_[slot >> 6] |= 1ull << (slot & 63);
  } else {
    overflow_.push_back(h);
    if (epoch < overflow_min_epoch_) overflow_min_epoch_ = epoch;
  }
  ++far_size_;
  if (epoch < far_min_epoch_) far_min_epoch_ = epoch;
}

std::int64_t EventQueue::first_bucket_epoch() const {
  if (bucket_count() == 0) return kNoEpoch;
  // Parked bucket epochs all lie in (horizon_, horizon_ + kWheelSize], so a
  // circular bitmap scan starting just past the horizon's slot finds the
  // earliest one unambiguously.
  const std::size_t base =
      static_cast<std::size_t>(horizon_ + 1) & kWheelMask;
  const std::size_t wi = base >> 6;
  const unsigned bit = static_cast<unsigned>(base & 63);
  std::uint64_t w = wheel_bits_[wi] & (~0ull << bit);
  for (std::size_t k = 0;;) {
    if (w != 0) {
      const std::size_t slot =
          (((wi + k) & (kWheelWords - 1)) << 6) +
          static_cast<std::size_t>(std::countr_zero(w));
      const std::size_t dist = (slot - base) & kWheelMask;
      return horizon_ + 1 + static_cast<std::int64_t>(dist);
    }
    ++k;
    if (k == kWheelWords) {
      // Wrapped around to the starting word: only its low bits remain.
      w = wheel_bits_[wi] & ~(~0ull << bit);
      if (bit == 0 || w == 0) return kNoEpoch;
    } else if (k > kWheelWords) {
      return kNoEpoch;
    } else {
      w = wheel_bits_[(wi + k) & (kWheelWords - 1)];
    }
  }
}

void EventQueue::redistribute_overflow() {
  std::size_t keep = 0;
  std::int64_t new_min = kNoEpoch;
  for (const HeapHandle& h : overflow_) {
    if (stale(h)) {  // cancelled while parked: drop without migrating
      --far_size_;
      continue;
    }
    const std::int64_t epoch = epoch_of(h.at_ns);
    if (epoch <= horizon_ + static_cast<std::int64_t>(kWheelSize)) {
      const std::size_t slot = static_cast<std::size_t>(epoch) & kWheelMask;
      wheel_[slot].push_back(h);
      wheel_bits_[slot >> 6] |= 1ull << (slot & 63);
    } else {
      overflow_[keep++] = h;
      if (epoch < new_min) new_min = epoch;
    }
  }
  overflow_.resize(keep);
  overflow_min_epoch_ = new_min;
}

void EventQueue::flush_min_far() {
  assert(far_size_ != 0);
  // When the overflow holds (or ties) the earliest far epoch, fold its
  // in-range handles into the wheel first so the bucket flush below always
  // migrates the true minimum. An empty wheel may additionally jump the
  // horizon forward: nothing is parked below overflow_min_epoch_, so the
  // skipped epochs are provably empty.
  const std::int64_t bucket_min = first_bucket_epoch();
  if (!overflow_.empty() && overflow_min_epoch_ <= bucket_min) {
    if (bucket_min == kNoEpoch &&
        overflow_min_epoch_ > horizon_ + static_cast<std::int64_t>(kWheelSize)) {
      horizon_ = overflow_min_epoch_ - 1;
    }
    redistribute_overflow();
  }
  const std::int64_t epoch = first_bucket_epoch();
  if (epoch == kNoEpoch) {
    // Every in-range handle was stale and has been dropped. Recompute the
    // cached minimum before returning: leaving the dropped epoch in
    // far_min_epoch_ would make the next prune() treat the (far-future)
    // overflow remainder as due and jump the horizon out to it, silently
    // disabling the far band for the rest of the run.
    far_min_epoch_ = overflow_.empty() ? kNoEpoch : overflow_min_epoch_;
    return;
  }
  const std::size_t slot = static_cast<std::size_t>(epoch) & kWheelMask;
  std::vector<HeapHandle>& bucket = wheel_[slot];
  far_size_ -= bucket.size();
  for (const HeapHandle& h : bucket) {
    if (!stale(h)) heap_push(h);  // original seq: FIFO ties survive the trip
  }
  bucket.clear();
  wheel_bits_[slot >> 6] &= ~(1ull << (slot & 63));
  if (epoch > horizon_) horizon_ = epoch;
  far_min_epoch_ = first_bucket_epoch();
  if (!overflow_.empty() && overflow_min_epoch_ < far_min_epoch_) {
    far_min_epoch_ = overflow_min_epoch_;
  }
}

void EventQueue::prune() {
  for (;;) {
    while (!heap_.empty() && stale(heap_[0])) heap_pop_top();
    if (far_size_ == 0) break;
    if (heap_.empty()) {
      flush_min_far();
      continue;
    }
    const std::int64_t target = epoch_of(heap_[0].at_ns) + kNearEpochs;
    if (far_min_epoch_ <= target) {
      flush_min_far();
      continue;
    }
    // Nothing due: pull the schedule horizon up to the heap top so events
    // landing within the near window keep going straight into the heap.
    // Safe because every parked epoch is beyond `target`.
    if (horizon_ < target) horizon_ = target;
    break;
  }
  if (!heap_.empty() && heap_[0].slot < kLaneTag) {
    __builtin_prefetch(&slots_[heap_[0].slot]);
  }
}

TimeNs EventQueue::next_time() {
  prune();
  return heap_.empty() ? TimeNs::infinite() : TimeNs(heap_[0].at_ns);
}

bool EventQueue::run_next_due(TimeNs deadline, TimeNs& clock) {
  prune();
  if (heap_.empty()) return false;
  const HeapHandle top = heap_[0];
  // After prune() every far handle fires later than the heap top, so the
  // top is the global minimum across both bands.
  if (TimeNs(top.at_ns) > deadline) return false;
  --live_;
  clock = TimeNs(top.at_ns);
  if (top.slot >= kLaneTag) {
    // The owner detaches its head and re-keys (or drops) this very handle,
    // which is still the heap top, before the head runs.
    LaneEntry& e = lanes_[top.slot - kLaneTag];
    --e.pending;
    e.lane->fire();
    return true;
  }
  heap_pop_top();
  Slot& s = slots_[top.slot];
  // Move the callback out before freeing the slot: the callback may schedule
  // new events, which can reuse this slot or grow the slab.
  EventCallback fn = std::move(s.fn);
  s.live = false;
  s.next_free = free_head_;
  free_head_ = top.slot;
  fn();
  return true;
}

TimeNs EventQueue::run_next() {
  assert(!empty() && "run_next on empty queue");
  TimeNs at = TimeNs::zero();
  run_next_due(TimeNs::infinite(), at);
  return at;
}

void EventQueue::reset() {
  for (Slot& s : slots_) {
    s.fn.reset();
    s.live = false;
  }
  free_head_ = kNil;
  for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size()); i-- > 0;) {
    slots_[i].next_free = free_head_;
    free_head_ = i;
  }
  heap_.clear();
  for (LaneEntry& e : lanes_) {
    if (e.lane == nullptr) continue;
    e.lane->clear();
    e.pending = 0;
  }
  live_ = 0;
  next_seq_ = 0;
  if (far_size_ != 0) {
    // clear() keeps each bucket's capacity, so the next run's far band
    // parks without allocating.
    for (std::vector<HeapHandle>& b : wheel_) b.clear();
    overflow_.clear();
    wheel_bits_.fill(0);
    far_size_ = 0;
  }
  far_min_epoch_ = kNoEpoch;
  overflow_min_epoch_ = kNoEpoch;
  horizon_ = kNearEpochs;
}

}  // namespace ccfuzz::sim
