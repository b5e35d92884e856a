// Discrete-event core: a priority queue of timestamped events.
//
// Determinism contract: events at equal timestamps fire in insertion order
// (FIFO tie-break via a monotone sequence number). This makes every
// simulation bit-reproducible, which the GA depends on for convergence
// (paper §3.6).
//
// Design — FIFO lanes under one 4-ary heap (zero steady-state allocations):
//
//   * Every event belongs to a Lane: a FIFO event source whose entries
//     arrive in non-decreasing time order and whose owner stores them
//     (payload included) in its own storage. A fixed-delay packet path
//     delivers in send order (net::DelayPipe), the cross-traffic schedule is
//     one pre-sorted stamp list, and a sim::Timer is a lane of at most one
//     entry. The queue keeps one handle per lane — for its head entry — in
//     the heap.
//   * The ordering structure is a 4-ary index heap of 16-byte
//     {time, seq, lane} handles (~half the depth of a binary heap,
//     branch-predictable four-child scan). Its capacity, like the lane
//     table's, is kept across reset(), so a reused queue runs without
//     allocating.
//   * An entry takes its seq from the queue's counter at push (or arm) time,
//     so every (time, seq) pair and tie-break is fixed by the order in which
//     events were created, whichever lane holds them. When a lane head
//     fires, the owner detaches it and the queue re-keys the top handle in
//     place with the next head (one sift-down instead of a pop and a push),
//     then the detached head runs.
//   * seq is 32 bits and restarts on reset() (the heap is empty then),
//     bounding the tie-break at 2^32 events per run — orders of magnitude
//     above any simulation (scenario::RunContext resets per run).
//   * reset() empties every lane. A destroyed lane deregisters; its table
//     entry (and id) is reused, and its leftover handle is stale: nothing is
//     pending, and a lane that reuses the id files its handles with fresh
//     seqs.
//
// Timers — one-entry lanes that move:
//
//   * sim::Timer is a lane with at most one entry, which arm() moves. Each
//     arm() takes a fresh seq, so the (time, seq) of every expiry is the one
//     a freshly created event gets at that moment. The queue records the
//     entry's current key and the seq of the one heap handle that stands for
//     it; that handle's key may be earlier, never later.
//   * A re-arm to a later key only changes the entry's key: the handle
//     already filed surfaces early and prune() re-keys it in place with one
//     sift-down. A re-arm to an earlier key files a new handle; the old one
//     no longer carries the handle seq and is dropped when it surfaces.
//   * Cancelling just empties the lane. Its handle stays filed until it
//     surfaces, and a re-arm to a later key before then reuses it, so the
//     delayed ACK armed and cancelled every other segment files no handle
//     either. Each timer thus keeps at most one current handle, and the heap
//     holds O(flows) timer handles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/time.h"

namespace ccfuzz::sim {

class Lane;

/// Min-queue of (time, seq)-keyed lane heads: O(log n) push/pop, one heap
/// handle per lane, and no steady-state allocations.
class EventQueue {
 public:
  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (pending, not-yet-fired) events.
  std::size_t size() const { return live_; }

  /// If the earliest live event fires at or before `deadline`, stores its
  /// timestamp in `clock` (before the callback runs, so callbacks observe
  /// the advanced clock), runs it and returns true; otherwise leaves `clock`
  /// untouched and returns false. One prune per event — this is the
  /// simulation driver's hot loop.
  bool run_next_due(TimeNs deadline, TimeNs& clock);

  /// Discards all pending events, emptying every registered lane, but keeps
  /// the heap's and the lane table's capacity, so a reused queue
  /// (scenario::RunContext) runs without allocating.
  void reset();

  /// Size of the lane table: registered lanes plus free entries. Ids are
  /// reused, so it is the high-water count of simultaneously live lanes.
  std::size_t lane_slots() const { return lanes_.size(); }

 private:
  friend class Lane;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct LaneEntry {
    Lane* lane = nullptr;          ///< nullptr while the entry is free
    std::int64_t head_at = 0;      ///< key of the lane's current head ...
    std::uint32_t head_seq = 0;    ///< ... (valid while pending != 0)
    std::uint32_t handle_seq = 0;  ///< seq the lane's live heap handle has
    std::uint32_t pending = 0;     ///< entries pushed and not yet fired
    std::uint32_t next_free = kNil;
    bool filed = false;  ///< the handle with handle_seq is in the heap
  };
  struct HeapHandle {  // 16 bytes; what sift operations actually move
    std::int64_t at_ns;
    std::uint32_t seq;
    std::uint32_t lane;
  };

  // if/else (not ?:) so the compiler keeps the highly-predictable time
  // comparison a branch; a cmov dependency chain here measurably slows the
  // sift loops.
  static bool earlier(const HeapHandle& a, const HeapHandle& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }

  void heap_push(HeapHandle h);
  void heap_pop_top();
  /// Replaces the heap top with `h` and sifts it down. Requires !empty.
  void heap_replace_top(HeapHandle h);

  // --- Lane protocol (called by sim::Lane) ---
  std::uint32_t lane_register(Lane* lane);
  void lane_unregister(std::uint32_t id);
  /// Appends `n` entries with consecutive seqs, the first due at `at`;
  /// returns the first seq.
  std::uint32_t lane_push(std::uint32_t id, TimeNs at, std::uint32_t n);
  /// The firing lane's head was detached; its handle (the heap top) takes
  /// the next head's key.
  void lane_rekey(std::uint32_t id, TimeNs at, std::uint32_t seq);
  /// The firing lane's head was its last entry; its handle leaves the heap.
  void lane_drained(std::uint32_t id);
  /// One-entry lanes (Timer): moves the entry to `at` with a fresh seq, or
  /// pushes it if the lane is empty.
  void lane_rearm(std::uint32_t id, TimeNs at);
  /// Drops every pending entry of the lane; its handle stays filed until it
  /// surfaces, so a re-arm may still reuse it.
  void lane_discard(std::uint32_t id);
  /// Discards stale handles at the heap top and re-keys a surfacing timer
  /// handle whose timer was re-armed later, until the top is live and
  /// current.
  void prune();

  std::vector<HeapHandle> heap_;  // 4-ary min-heap; may hold stale handles
  std::vector<LaneEntry> lanes_;
  std::uint32_t free_lane_ = kNil;
  std::uint32_t next_seq_ = 0;
  std::size_t live_ = 0;
};

/// A FIFO event source registered with an EventQueue (see "Design" above).
/// The owner derives from Lane, keeps its entries in push order, and
/// implements fire() and clear(). A lane must not outlive its queue.
class Lane {
 public:
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

 protected:
  explicit Lane(EventQueue& queue)
      : queue_(queue), id_(queue.lane_register(this)) {}
  /// Deregisters; entries still pending are discarded.
  ~Lane() { queue_.lane_unregister(id_); }

  /// Appends one entry due at `at`, which must not precede the lane's last
  /// entry (nor the current time); returns the entry's FIFO seq.
  std::uint32_t push(TimeNs at) { return queue_.lane_push(id_, at, 1); }
  /// Appends `n` (> 0) entries at once with consecutive seqs, the first due
  /// at `first`; returns the first seq. Later entries' times are the
  /// owner's, handed over one at a time through rekey().
  std::uint32_t push_block(TimeNs first, std::uint32_t n) {
    return queue_.lane_push(id_, first, n);
  }
  /// For lanes of at most one entry: moves the entry to `at` (no earlier
  /// than the current time) with a fresh FIFO seq, or pushes it.
  void rearm(TimeNs at) { queue_.lane_rearm(id_, at); }
  /// For lanes of at most one entry: drops it if pending.
  void discard() { queue_.lane_discard(id_); }
  /// Entries pushed and not yet fired.
  std::size_t pending() const { return queue_.lanes_[id_].pending; }

  /// Called from fire() once the head is detached: hands the queue the new
  /// head's (time, seq), or reports that the lane is now empty. Exactly one
  /// of the two, before the detached entry runs.
  void rekey(TimeNs at, std::uint32_t seq) { queue_.lane_rekey(id_, at, seq); }
  void drained() { queue_.lane_drained(id_); }

 private:
  friend class EventQueue;
  /// The head entry is due now (the clock already reads its time): detach
  /// it, call rekey() or drained(), then run it.
  virtual void fire() = 0;
  /// EventQueue::reset(): forget every entry.
  virtual void clear() = 0;

  EventQueue& queue_;
  const std::uint32_t id_;
};

}  // namespace ccfuzz::sim
