#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace ccfuzz::sim {

std::uint32_t EventQueue::lane_register(Lane* lane) {
  std::uint32_t id;
  if (free_lane_ != kNil) {
    id = free_lane_;
    free_lane_ = lanes_[id].next_free;
  } else {
    id = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
  }
  lanes_[id] = LaneEntry{.lane = lane};
  return id;
}

void EventQueue::lane_unregister(std::uint32_t id) {
  LaneEntry& e = lanes_[id];
  // Any handle left in the heap turns stale: pending is zero now, and a
  // lane that later reuses this id files its handles with fresh seqs.
  live_ -= e.pending;
  e = LaneEntry{.next_free = free_lane_};
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
    e.head_at = at.ns();
    e.head_seq = e.handle_seq = seq;
    e.filed = true;
    heap_push(HeapHandle{at.ns(), seq, id});
  }
  e.pending += n;
  return seq;
}

void EventQueue::lane_rekey(std::uint32_t id, TimeNs at, std::uint32_t seq) {
  assert(!heap_.empty() && heap_[0].lane == id);
  LaneEntry& e = lanes_[id];
  e.head_at = at.ns();
  e.head_seq = e.handle_seq = seq;
  heap_replace_top(HeapHandle{at.ns(), seq, id});
}

void EventQueue::lane_drained(std::uint32_t id) {
  assert(!heap_.empty() && heap_[0].lane == id);
  lanes_[id].filed = false;
  heap_pop_top();
}

void EventQueue::lane_rearm(std::uint32_t id, TimeNs at) {
  LaneEntry& e = lanes_[id];
  const HeapHandle h{at.ns(), next_seq_++, id};
  if (e.pending == 0) {
    e.pending = 1;
    ++live_;
  }
  // A filed handle's key is no later than the last key (head_at, head_seq),
  // even after a cancel. If the new key is no earlier, that handle surfaces
  // in time and prune() re-keys it then; otherwise file a fresh handle,
  // which orphans the old one.
  if (!e.filed || earlier(h, HeapHandle{e.head_at, e.head_seq, 0})) {
    e.handle_seq = h.seq;
    e.filed = true;
    heap_push(h);
  }
  e.head_at = h.at_ns;
  e.head_seq = h.seq;
}

void EventQueue::lane_discard(std::uint32_t id) {
  LaneEntry& e = lanes_[id];
  live_ -= e.pending;
  e.pending = 0;
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

void EventQueue::prune() {
  while (!heap_.empty()) {
    const HeapHandle top = heap_[0];
    LaneEntry& e = lanes_[top.lane];
    if (e.handle_seq == top.seq) {
      if (e.pending == 0) {
        e.filed = false;  // a cancelled timer's handle
      } else if (e.head_seq == top.seq) {
        return;
      } else {
        // A timer re-armed to a later key since this handle was filed: the
        // handle surfaced early and takes the entry's key in place.
        e.handle_seq = e.head_seq;
        heap_replace_top(HeapHandle{e.head_at, e.head_seq, top.lane});
        continue;
      }
    }
    heap_pop_top();  // stale: orphaned, cancelled or from a dead lane
  }
}

bool EventQueue::run_next_due(TimeNs deadline, TimeNs& clock) {
  prune();
  if (heap_.empty()) return false;
  const HeapHandle top = heap_[0];
  // After prune() the top is live and carries its entry's own key.
  if (TimeNs(top.at_ns) > deadline) return false;
  --live_;
  clock = TimeNs(top.at_ns);
  // The owner detaches its head and re-keys (or drops) this very handle,
  // which is still the heap top, before the head runs.
  LaneEntry& e = lanes_[top.lane];
  --e.pending;
  e.lane->fire();
  return true;
}

void EventQueue::reset() {
  heap_.clear();
  for (LaneEntry& e : lanes_) {
    if (e.lane == nullptr) continue;
    e.lane->clear();
    e.pending = 0;
    e.filed = false;
  }
  live_ = 0;
  next_seq_ = 0;
}

}  // namespace ccfuzz::sim
