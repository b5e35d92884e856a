// Fixed-size drop-tail FIFO queue — the gateway buffer of the paper's
// dumbbell (§3.1). A plain container: whoever enqueues reacts to the result
// (scenario::Dumbbell's gateway records drops, a FixedRateLink starts
// serializing), so the queue calls out to nothing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "util/time.h"

namespace ccfuzz::net {

/// Per-flow enqueue/drop counters.
struct QueueStats {
  std::array<std::int64_t, kFlowCount> enqueued{};
  std::array<std::int64_t, kFlowCount> dropped{};
  std::array<std::int64_t, kFlowCount> dequeued{};
  std::int64_t total_enqueued() const {
    std::int64_t s = 0;
    for (auto v : enqueued) s += v;
    return s;
  }
  std::int64_t total_dropped() const {
    std::int64_t s = 0;
    for (auto v : dropped) s += v;
    return s;
  }
};

/// Drop-tail FIFO with a fixed capacity in packets. Backed by a fixed ring
/// buffer sized at construction, so enqueue/dequeue never allocate (a
/// std::deque backing allocated a fresh chunk every few packets).
class DropTailQueue {
 public:
  /// `capacity` is the maximum number of queued packets (> 0).
  explicit DropTailQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {}

  /// Attempts to enqueue, stamping the arrival time. When full, counts a
  /// drop and returns false with `p` left untouched, so the caller can still
  /// record it.
  bool try_enqueue(Packet&& p, TimeNs now) {
    if (count_ >= capacity_) {
      ++stats_.dropped[static_cast<std::size_t>(p.flow)];
      return false;
    }
    p.enqueued_at = now;
    ++stats_.enqueued[static_cast<std::size_t>(p.flow)];
    ring_[tail_] = std::move(p);
    if (++tail_ == capacity_) tail_ = 0;
    ++count_;
    return true;
  }

  /// Removes and returns the head packet, or nullopt when empty.
  std::optional<Packet> dequeue() {
    if (count_ == 0) return std::nullopt;
    Packet p = std::move(ring_[head_]);
    if (++head_ == capacity_) head_ = 0;
    --count_;
    ++stats_.dequeued[static_cast<std::size_t>(p.flow)];
    return p;
  }

  /// Returns the queue to empty with fresh stats (and a new capacity),
  /// reusing the ring storage when the capacity is unchanged.
  void reset(std::size_t capacity) {
    if (capacity != capacity_) {
      capacity_ = capacity;
      ring_.resize(capacity);
    }
    head_ = tail_ = count_ = 0;
    stats_ = QueueStats{};
  }

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return count_ == 0; }
  const QueueStats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t count_ = 0;
  QueueStats stats_;
};

}  // namespace ccfuzz::net
