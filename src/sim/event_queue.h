// Discrete-event core: a priority queue of timestamped callbacks.
//
// Determinism contract: events at equal timestamps fire in insertion order
// (FIFO tie-break via a monotone sequence number). This makes every
// simulation bit-reproducible, which the GA depends on for convergence
// (paper §3.6).
//
// Design — slab + generation tags + a two-band timer core + FIFO lanes (zero
// steady-state allocations):
//
//   * Callbacks live in a slab of fixed-size slots holding an
//     InlineCallback<kEventCallbackCapacity> (32-byte inline budget,
//     compile-time asserted — capture owners, not payloads). A
//     free list recycles slots, so after the high-water mark is reached
//     schedule()/cancel()/run_next() never touch the allocator.
//   * The ordering structure is split in two bands. The *near band* is a
//     4-ary index heap of 16-byte {time, seq, slot} handles (~half the depth
//     of a binary heap, branch-predictable four-child scan) holding only
//     events within kNearEpochs epochs (~67 ms) of the current heap top.
//     The *far band* parks everything beyond the horizon — RTO timers,
//     sender stop times, trace tail events — in a wheel of kWheelSize epoch
//     buckets (plain vectors, one per 2^kEpochShift ns ≈ 4.2 ms of virtual
//     time) plus a single overflow vector for epochs beyond the wheel span
//     (~1.07 s). Far scheduling is an O(1) vector push; far handles migrate
//     into the heap lazily, whole epochs at a time, as the clock approaches.
//   * Capacity caveat: the wheel's epoch buckets are cleared, not shrunk,
//     at migration, so each bucket's capacity sits at its own high-water
//     mark for the rest of the run. For periodic single-flow traffic the
//     per-bucket HWM converges after about five wheel revolutions (~5 s of
//     virtual time): the periodic pattern must land in every bucket a few
//     times before the deepest phase alignment has been seen. Until then a
//     long-idle bucket can still take one allocator hit when the pattern
//     first drifts into it — relevant to anyone adding a steady-state
//     allocation assertion with a warmup shorter than that.
//   * Why it pays: the dominant far-timer pattern is armed-then-cancelled
//     (the RTO is re-armed on every cumulative ACK, tcp_rearm_rto-style).
//     In a single heap each re-arm left a stale handle that inflated every
//     sift until the clock finally reached it ~1 s later; in the far band
//     the stale handles sit inert in their epoch bucket and are discarded
//     wholesale at migration without ever entering the heap. Heap depth is
//     set by the in-flight near events alone.
//   * An EventId encodes (slot, generation). Each slot counts its
//     occupancies in a generation counter that never resets, so cancel()
//     is an O(1) generation compare — no cancelled-id set, no band
//     knowledge — and cancelling a fired, cancelled or pre-reset() id is a
//     guaranteed no-op even after the slot has been recycled (a single slot
//     would need 2^32 occupancies for an id to alias).
//   * Heap and bucket handles carry a separate 32-bit FIFO sequence number;
//     the slot remembers its current occupant's seq, so a handle whose seq
//     no longer matches is stale and gets skipped when it surfaces (heap) or
//     migrates (far band). Migration preserves the original seq, so events
//     that meet at equal timestamps fire in schedule order no matter which
//     band they travelled through — execution order is bit-identical to a
//     single heap. seq restarts on reset() (both bands are empty then),
//     bounding the tie-break at 2^32 schedules per run — orders of magnitude
//     above any simulation (scenario::RunContext resets per run).
//
// Lanes — a third path beside the two bands:
//
//   * Most events have a simpler shape than "arbitrary callback at arbitrary
//     time": a fixed-delay packet path delivers in send order, and the
//     cross-traffic schedule is one pre-sorted stamp list. A Lane is such a
//     FIFO source: its entries arrive in non-decreasing time order and its
//     owner stores them (payload included) in its own storage, so they
//     never touch the slot slab. The lane keeps exactly one handle — for its
//     head entry — in the heap or far band, tagged with kLaneTag.
//   * Ordering is unchanged by construction: an entry takes its seq from the
//     queue's counter at push time, the moment a schedule() would have, so
//     every (time, seq) pair and tie-break is the one a plain event would
//     get. When a lane head fires, the owner detaches it and the queue
//     re-keys the top handle in place with the next head (one sift-down
//     instead of a pop and a push), then the detached head runs.
//   * Lane entries count in size() and fire through run_next_due() like any
//     other event. reset() empties every lane. A destroyed lane deregisters;
//     its table entry (and id) is reused, and its leftover handle is stale
//     because no live head carries its seq any more.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_callback.h"
#include "util/time.h"

namespace ccfuzz::sim {

/// Opaque handle used to cancel a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

/// Inline-storage budget for event callbacks. 32 bytes keeps one event slot
/// to exactly one cache line and fits every closure in the simulator (the
/// largest are [this, period] pairs) plus typical test lambdas; oversized
/// captures fail to compile — keep payloads in their owner (packets in
/// flight ride a Lane) and capture `this` instead.
inline constexpr std::size_t kEventCallbackCapacity = 32;
using EventCallback = InlineCallback<kEventCallbackCapacity>;

class Lane;

/// Two-band min-queue of (time, seq) → callback: O(log near) push/pop for
/// near events, O(1) amortized parking for far-future ones, O(1)
/// generation-based cancellation, FIFO lanes that share one handle per
/// lane, and no steady-state allocations.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`; returns a cancellation handle.
  template <typename F>
  EventId schedule(TimeNs at, F&& fn) {
    return schedule_impl(at, EventCallback(std::forward<F>(fn)));
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired or unknown
  /// id is a no-op.
  void cancel(EventId id);

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not-yet-fired) events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; TimeNs::infinite() if none.
  TimeNs next_time();

  /// Pops and runs the earliest live event; returns its timestamp.
  /// Requires !empty().
  TimeNs run_next();

  /// If the earliest live event fires at or before `deadline`, stores its
  /// timestamp in `clock` (before the callback runs, so callbacks observe
  /// the advanced clock), runs it and returns true; otherwise leaves `clock`
  /// untouched and returns false. One prune per event — this is the
  /// simulation driver's hot loop.
  bool run_next_due(TimeNs deadline, TimeNs& clock);

  /// Discards all pending events, emptying every registered lane, but keeps
  /// slab/heap/bucket capacity, so a reused queue (scenario::RunContext)
  /// schedules without allocating.
  void reset();

  /// Size of the lane table: registered lanes plus free entries. Ids are
  /// reused, so it is the high-water count of simultaneously live lanes.
  std::size_t lane_slots() const { return lanes_.size(); }

 private:
  friend class Lane;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Handles whose slot field carries this bit stand for a lane's head; the
  /// low bits are the lane id. Slab slots stay far below it.
  static constexpr std::uint32_t kLaneTag = 0x80000000u;
  // --- Two-band geometry ---
  /// Virtual-time width of one far-band epoch: 2^22 ns ≈ 4.19 ms.
  static constexpr int kEpochShift = 22;
  /// Near-band horizon in epochs beyond the heap top (~67 ms): events this
  /// close schedule straight into the heap; farther ones park in the wheel.
  /// Must stay under any realistic RTO (min_rto defaults to 1 s; Linux uses
  /// 200 ms) so re-armed RTO timers never churn the heap.
  static constexpr std::int64_t kNearEpochs = 16;
  /// Wheel span: 256 epochs ≈ 1.07 s. Epochs beyond it overflow into a
  /// single vector and redistribute when the wheel advances within range.
  static constexpr std::size_t kWheelSize = 256;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;
  static constexpr std::int64_t kNoEpoch =
      std::numeric_limits<std::int64_t>::max();

  struct Slot {
    EventCallback fn;
    std::uint32_t generation = 0;  ///< occupancy count; never resets
    std::uint32_t seq = 0;         ///< FIFO seq of the current occupant
    std::uint32_t next_free = kNil;
    bool live = false;
  };
  static_assert(sizeof(Slot) <= 64, "one event slot should fit a cache line");
  struct LaneEntry {
    Lane* lane = nullptr;          ///< nullptr while the entry is free
    std::uint32_t head_seq = 0;    ///< seq of the lane's current head
    std::uint32_t pending = 0;     ///< entries pushed and not yet fired
    std::uint32_t next_free = kNil;
  };
  struct HeapHandle {  // 16 bytes; what sift operations actually move
    std::int64_t at_ns;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  static std::int64_t epoch_of(std::int64_t at_ns) {
    // Arithmetic shift: negative times land in epoch <= 0, i.e. always near.
    return at_ns >> kEpochShift;
  }

  // if/else (not ?:) so the compiler keeps the highly-predictable time
  // comparison a branch; a cmov dependency chain here measurably slows the
  // sift loops.
  static bool earlier(const HeapHandle& a, const HeapHandle& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    return a.seq < b.seq;
  }
  bool stale(const HeapHandle& h) const {
    if (h.slot >= kLaneTag) {
      const LaneEntry& e = lanes_[h.slot - kLaneTag];
      return e.pending == 0 || e.head_seq != h.seq;
    }
    const Slot& s = slots_[h.slot];
    return !s.live || s.seq != h.seq;
  }

  EventId schedule_impl(TimeNs at, EventCallback fn);
  /// Files a new handle in the heap or, beyond the horizon, the far band.
  void insert(HeapHandle h);
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
  /// Parks a handle in the far band (wheel bucket or overflow).
  void far_push(HeapHandle h, std::int64_t epoch);
  /// Migrates the earliest far epoch's handles into the heap (stale handles
  /// are dropped without ever touching it). Requires far_size_ != 0.
  void flush_min_far();
  /// Moves overflow handles whose epoch now fits the wheel into buckets.
  void redistribute_overflow();
  /// Epoch of the earliest non-empty wheel bucket; kNoEpoch if all empty.
  std::int64_t first_bucket_epoch() const;
  /// Discards stale heap-top handles and migrates any far epochs that are
  /// due (or within the near horizon of) the surfacing heap top.
  void prune();

  std::size_t bucket_count() const { return far_size_ - overflow_.size(); }

  std::vector<Slot> slots_;
  std::vector<HeapHandle> heap_;  // 4-ary min-heap; may hold stale handles
  std::vector<LaneEntry> lanes_;
  std::uint32_t free_lane_ = kNil;
  std::uint32_t free_head_ = kNil;
  std::uint32_t next_seq_ = 0;
  std::size_t live_ = 0;

  // --- Far band ---
  /// Every epoch <= horizon_ has been migrated (or was never populated);
  /// schedule() sends events with epoch <= horizon_ straight to the heap.
  /// Monotone within a run; all parked handles have epoch > horizon_ and,
  /// for wheel buckets, epoch <= horizon_ + kWheelSize — which makes the
  /// epoch → bucket mapping (epoch & kWheelMask) collision-free.
  std::int64_t horizon_ = kNearEpochs;
  std::size_t far_size_ = 0;            ///< parked handles, stale included
  std::int64_t far_min_epoch_ = kNoEpoch;       ///< min parked epoch
  std::int64_t overflow_min_epoch_ = kNoEpoch;  ///< min epoch in overflow_
  std::array<std::vector<HeapHandle>, kWheelSize> wheel_;
  std::array<std::uint64_t, kWheelWords> wheel_bits_{};  ///< non-empty map
  std::vector<HeapHandle> overflow_;
};

/// A FIFO event source registered with an EventQueue (see "Lanes" above).
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
