// TCP sender: reliability, SACK scoreboard, loss recovery, RTO with
// exponential backoff, delivery-rate sampling, and CCA-driven transmission
// (windowed and/or paced).
//
// The implementation mirrors the Linux machinery the paper's findings depend
// on:
//  - per-segment delivery snapshots are restamped on *every* transmission
//    (tcp_rate_skb_sent), so a spurious retransmission corrupts the rate
//    sample of a late-arriving SACK for the original copy (§4.1 BBR stall);
//  - tcp_enter_loss marks all non-SACKed outstanding segments lost at RTO
//    and clears retransmission marks, producing those spurious
//    retransmissions in the first place;
//  - FACK-style loss marking (>= dupthresh segments SACKed above) drives
//    fast retransmit; a lost retransmission is only recovered by RTO, which
//    is what the low-rate attack (§4.3) and the CUBIC finding (§4.2) exploit.
//
// Scoreboard cursors. Adversarial traces hold the sender in long recoveries
// with large windows, so the scoreboard walks made on every ACK and at every
// transmission opportunity resume from a cursor instead of rescanning from
// snd_una. Each cursor only skips segments the plain walk would skip, so
// every mark, event and result is the same as with the plain walks:
//  - fack_scanned_ (Linux lost_skb_hint): the FACK marker has examined every
//    seq below it. An examined segment is SACKed, delivered or marked lost
//    (a retransmitted segment carries the lost mark too), and stays so while
//    it is in the window: a SACK swaps the lost mark for the SACK mark, and
//    an RTO clears only retransmission marks. So the marker never has work
//    below the cursor again.
//  - retx_hint_ (Linux retransmit_skb_hint): no seq in [snd_una, retx_hint_)
//    needs a retransmission (lost, not SACKed, no copy in flight). A segment
//    starts to need one only when the FACK marker marks it lost, which
//    lowers the hint to its seq, or when the RTO marks it lost or clears its
//    retransmission mark, which resets the hint to snd_una.
//  - sack_cache_ (Linux recv_sack_cache): the previous ACK's SACK blocks,
//    clamped to the window as they were walked. Every seq in them is
//    SACKed (or cumulatively delivered), and a SACK mark is never cleared
//    inside the window, so the next ACK walks only the parts of its blocks
//    outside them. Clamping keeps seqs sent after that ACK out of the cache.
// reset() rewinds all three to an empty window.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/behavior_sink.h"
#include "tcp/congestion_control.h"
#include "tcp/event_log.h"
#include "tcp/rtt_estimator.h"
#include "tcp/types.h"
#include "util/time.h"

namespace ccfuzz::tcp {

/// Sender endpoint of the CCA flow under test. It is the sink of its ACK
/// path: receive() is on_ack_packet().
class TcpSender final : public net::PacketSink {
 public:
  struct Config {
    /// Application data volume in segments; default: unbounded source.
    std::int64_t total_segments = std::numeric_limits<std::int64_t>::max();
    std::int32_t mss_bytes = net::kDefaultPacketBytes;
    /// Initial congestion window hint passed to the CCA (Linux: 10).
    std::int64_t initial_cwnd = 10;
    /// FACK reordering threshold in segments (classic dupack threshold 3).
    int dupack_threshold = 3;
    /// Peer receive window assumed before the first ACK arrives; ACKs with
    /// TcpHeader::wnd >= 0 update it. A persistent hole at the receiver
    /// closes the window and silences new data — the flow-control half of
    /// the paper's stall scenarios.
    std::int64_t initial_rwnd_segments = 87;
    RttEstimator::Config rtt{};
    /// Record detailed events (timeline figures); counters are always kept.
    bool log_events = false;
    /// Which competing flow this sender is (multi-flow scenarios). Tags every
    /// emitted packet and namespaces transmission ids; flow 0 is bit-
    /// compatible with the single-flow layout.
    net::FlowIndex flow_index = 0;
    /// Absolute stop time: the sender ceases transmitting (and cancels its
    /// timers) at this instant. Infinite = run for the whole simulation.
    TimeNs stop = TimeNs::infinite();
  };

  /// Data packets go to `out` (the access path toward the bottleneck).
  TcpSender(sim::Simulator& sim, const Config& cfg,
            std::unique_ptr<CongestionControl> cca, net::PacketSink& out);

  /// Reinitializes the sender for a fresh run — every observable field is
  /// exactly as after construction with (cfg, cca), but the segment ring
  /// keeps its slab, so warm reuse (scenario::RunContext) replays slow start
  /// without allocator traffic. Every pending timer of this sender is
  /// cancelled, start and stop included, whether or not the simulator was
  /// reset.
  void reset(const Config& cfg, std::unique_ptr<CongestionControl> cca);

  /// Arms connection start (first transmission) at time `at`, and the stop
  /// when Config::stop is finite; a time already past fires now.
  void start(TimeNs at);

  /// Halts the flow: cancels timers and stops all further transmissions.
  /// Arriving ACKs are still processed for bookkeeping. Fires
  /// automatically at Config::stop.
  void stop();

  /// Handles an arriving ACK (cumulative + SACK blocks).
  void on_ack_packet(const net::Packet& ack);
  void receive(net::Packet&& ack) override { on_ack_packet(ack); }

  /// Attaches a passive behavior observer (nullptr detaches). Cleared by
  /// reset(); the harness re-attaches per run. The sink must not mutate the
  /// simulation — golden fingerprints pin sink-on == sink-off.
  void set_behavior_sink(BehaviorSink* sink) { sink_ = sink; }

  // ---- Introspection ----
  const SenderState& state() const { return st_; }
  const RttEstimator& rtt_estimator() const { return rtt_; }
  CongestionControl& cca() { return *cca_; }
  const CongestionControl& cca() const { return *cca_; }
  TcpEventLog& log() { return log_; }
  const TcpEventLog& log() const { return log_; }

  SeqNr snd_una() const { return snd_una_; }
  SeqNr snd_nxt() const { return snd_nxt_; }
  /// Right edge of the peer-advertised window (flow-control limit).
  SeqNr window_right_edge() const { return wnd_right_; }
  std::int64_t delivered() const { return st_.delivered; }
  std::int64_t total_sent() const { return st_.total_sent; }
  std::int64_t total_retransmissions() const { return st_.total_retx; }
  std::int64_t rto_count() const { return rto_count_; }
  std::int64_t fast_retransmit_entries() const { return fast_recovery_count_; }
  std::int64_t spurious_retx_count() const { return spurious_retx_; }
  int rto_backoff() const { return backoff_; }

 private:
  /// Per-segment bookkeeping — the simulated SKB.
  struct Segment {
    TimeNs first_sent = TimeNs::zero();
    TimeNs last_sent = TimeNs::zero();
    // tcp_rate_skb_sent snapshots, restamped on every transmission.
    // tx_delivered_mstamp < 0 means "already consumed for a rate sample".
    TimeNs tx_first_tx_mstamp = TimeNs::zero();
    TimeNs tx_delivered_mstamp = TimeNs(-1);
    std::int64_t tx_delivered = 0;  ///< the paper's "prior delivered"
    std::int64_t last_tx_id = -1;
    int tx_count = 0;
    bool sacked = false;
    bool lost = false;
    bool retrans_out = false;  ///< retransmission currently in flight
    bool delivered_flag = false;
  };

  /// Accumulates the per-ACK rate sample (Linux tcp_rate_skb_delivered).
  struct RateSampleBuilder {
    bool has = false;
    std::int64_t prior_delivered = 0;
    TimeNs prior_mstamp = TimeNs::zero();
    DurationNs interval_snd = DurationNs(-1);
    bool is_retrans = false;
  };

  /// Segment storage keyed by absolute sequence number: a power-of-two slab
  /// where seq `s` lives in slot `s & mask`. Valid while the live window
  /// [snd_una, snd_nxt) fits the capacity, which append() guarantees by
  /// re-homing the window into a doubled slab when needed. Cumulative-ack
  /// advance is pure index arithmetic — unlike the std::deque predecessor,
  /// steady-state sending never touches the allocator (growth stops at the
  /// flow's in-flight high-water mark). reset() keeps the slab as it is:
  /// append() value-initializes every slot before its first use.
  class SegmentRing {
   public:
    Segment& at(SeqNr s) {
      return slots_[static_cast<std::size_t>(s) & mask_];
    }
    const Segment& at(SeqNr s) const {
      return slots_[static_cast<std::size_t>(s) & mask_];
    }
    /// Value-initializes the slot for `s` (the window's right edge); `lo` is
    /// the live left edge, consulted only when the slab must grow.
    Segment& append(SeqNr lo, SeqNr s) {
      if (static_cast<std::size_t>(s - lo) >= slots_.size()) grow(lo, s);
      Segment& sg = at(s);
      sg = Segment{};
      return sg;
    }

   private:
    void grow(SeqNr lo, SeqNr hi) {
      std::size_t want = slots_.empty() ? 128 : slots_.size() * 2;
      const std::size_t need = static_cast<std::size_t>(hi - lo) + 1;
      while (want < need) want *= 2;
      std::vector<Segment> next(want);
      for (SeqNr s = lo; s < hi; ++s) {
        next[static_cast<std::size_t>(s) & (want - 1)] = at(s);
      }
      slots_ = std::move(next);
      mask_ = slots_.size() - 1;
    }

    std::vector<Segment> slots_;
    std::size_t mask_ = 0;
  };

  Segment& seg(SeqNr s) { return segs_.at(s); }
  const Segment& seg(SeqNr s) const { return segs_.at(s); }
  bool has_seg(SeqNr s) const { return s >= snd_una_ && s < snd_nxt_; }

  void refresh_state();
  void deliver_segment(Segment& sg, TimeNs now, RateSampleBuilder& rsb);
  void mark_losses_from_fack(std::int64_t* newly_lost);
  void maybe_enter_recovery(TimeNs now, std::int64_t newly_lost);
  void maybe_exit_recovery(TimeNs now);
  RateSample generate_rate_sample(const RateSampleBuilder& rsb,
                                  std::int64_t acked_sacked,
                                  std::int64_t losses,
                                  std::int64_t prior_in_flight,
                                  DurationNs rtt_sample);

  void sack_range(SeqNr lo, SeqNr hi, TimeNs now, RateSampleBuilder& rsb,
                  std::int64_t* newly_sacked, DurationNs* rtt_sample);

  // Transmission path.
  /// The start timer fired: initializes the CCA and sends the first window.
  void begin();
  bool can_transmit();
  SeqNr next_retransmit_seq();
  void send_segment(SeqNr s, bool is_retx);
  void try_send();
  void pacing_fire();
  void arm_rto(bool force);
  void on_rto_timer();

  sim::Simulator& sim_;
  Config cfg_;
  BehaviorSink* sink_ = nullptr;
  std::unique_ptr<CongestionControl> cca_;
  net::PacketSink& out_;
  RttEstimator rtt_;
  TcpEventLog log_;
  sim::Timer rto_timer_;
  sim::Timer pacing_timer_;
  sim::Timer start_timer_;  // fires begin()
  sim::Timer stop_timer_;   // fires stop()

  SenderState st_{};
  SegmentRing segs_;          // segments [snd_una_, snd_nxt_), keyed by seq
  SeqNr snd_una_ = 0;
  SeqNr snd_nxt_ = 0;
  SeqNr wnd_right_ = 0;       // flow-control right edge (snd_una + rwnd)
  SeqNr fack_ = 0;            // highest SACKed seq + 1 (forward ack)
  SeqNr recovery_point_ = -1; // snd_nxt at recovery entry
  // Scoreboard cursors; the header comment states their invariants.
  SeqNr fack_scanned_ = 0;
  SeqNr retx_hint_ = 0;
  decltype(net::TcpHeader::sacks) sack_cache_{};
  int sack_cache_n_ = 0;
  int backoff_ = 0;           // RTO exponential backoff exponent
  std::int64_t rto_count_ = 0;
  std::int64_t fast_recovery_count_ = 0;
  std::int64_t spurious_retx_ = 0;
  std::int64_t next_tx_id_ = 0;

  // tcp_rate.c flow-level state. Negative mstamp == "pipeline not started".
  std::int64_t delivered_ = 0;
  TimeNs delivered_mstamp_ = TimeNs(-1);
  TimeNs first_tx_mstamp_ = TimeNs(-1);

  bool started_ = false;
};

}  // namespace ccfuzz::tcp
