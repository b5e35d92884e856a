// TCP receiver: cumulative ACK generation, SACK blocks, delayed ACKs.
//
// Follows RFC 5681/2018 receiver behaviour with Linux defaults (paper §4):
//  - delayed ACKs: ACK every 2nd full segment, else arm the delack timer;
//  - immediate ACK for out-of-order data and for segments that fill a hole;
//  - immediate ACK for duplicate (already-received) segments — this is what
//    turns a spurious retransmission into an extra dup-ACK at the sender;
//  - up to 3 SACK blocks, most recently changed first (RFC 2018 §4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/types.h"
#include "util/time.h"

namespace ccfuzz::tcp {

/// Receiver endpoint for the CCA flow. Data packets arrive via
/// on_data_packet() (receive() as a sink); ACKs leave into the sink given at
/// construction.
class TcpReceiver final : public net::PacketSink {
 public:
  struct Config {
    bool delayed_ack = true;
    /// ACK after this many unacknowledged in-order segments (Linux: 2).
    int ack_every = 2;
    /// Delack timer (ns-3 default 200 ms; Linux adapts in 40–200 ms).
    DurationNs delack_timeout = DurationNs::millis(200);
    /// Max SACK blocks per ACK (3 when timestamps take header room).
    int max_sack_blocks = 3;
    std::int32_t ack_bytes = 40;
    /// Receive buffer in segments (ns-3's default RcvBufSize of 128 KiB is
    /// ~87 MSS segments). In-order data is consumed immediately; only
    /// out-of-order segments occupy the buffer, so a persistent hole
    /// (paper §4.1/§4.3) eventually closes the advertised window and
    /// silences the sender until the hole is repaired.
    std::int64_t rwnd_segments = 87;
    /// Which competing flow this receiver terminates (multi-flow scenarios);
    /// tags emitted ACKs. Flow 0 keeps the single-flow id layout.
    net::FlowIndex flow_index = 0;
  };

  TcpReceiver(sim::Simulator& sim, const Config& cfg, net::PacketSink& acks);

  /// Reinitializes the receiver for a fresh run, keeping buffer capacity
  /// (out-of-order ranges, SACK recency list). The simulator must have been
  /// reset.
  void reset(const Config& cfg);

  /// Handles an arriving data segment (possibly out of order or duplicate).
  void on_data_packet(const net::Packet& p);
  void receive(net::Packet&& p) override { on_data_packet(p); }

  /// Next expected sequence number (left edge of the receive window).
  SeqNr rcv_nxt() const { return rcv_nxt_; }

  /// Segments currently buffered out of order.
  std::int64_t buffered_out_of_order() const;

  /// Advertised window: buffer capacity minus out-of-order occupancy.
  std::int64_t advertised_window() const {
    return std::max<std::int64_t>(cfg_.rwnd_segments - buffered_out_of_order(),
                                  0);
  }

  /// Data segments that reached the receiver, duplicates and out-of-order
  /// arrivals included.
  std::int64_t packets_arrived() const { return packets_arrived_; }
  /// Total in-order segments delivered to the "application".
  std::int64_t segments_received() const { return segments_received_; }
  /// Duplicate segments seen (spurious retransmissions arriving late).
  std::int64_t duplicates_received() const { return duplicates_; }
  /// Total ACK packets emitted.
  std::int64_t acks_sent() const { return acks_sent_; }

 private:
  /// One buffered out-of-order range [start, end).
  struct OooRange {
    SeqNr start;
    SeqNr end;
  };

  void send_ack_now(std::int64_t acked_tx_id);
  void on_delack_timer();
  /// Registers [seq, seq+1) out of order and refreshes the SACK block list.
  void add_out_of_order(SeqNr seq);
  /// Absorbs buffered segments now contiguous with rcv_nxt.
  void absorb_in_order();
  /// Most-recent-first SACK blocks for the ACK header.
  void fill_sacks(net::TcpHeader& h) const;
  /// Index of the range containing or first past `seq`, like map::lower/
  /// upper_bound over starts.
  std::size_t first_range_past(SeqNr seq) const;
  /// Pre-sizes the flat buffers to the receive window (their hard bound), so
  /// loss episodes never touch the allocator on a warm receiver.
  void reserve_buffers();
  void forget_recent(SeqNr start);

  sim::Simulator& sim_;
  Config cfg_;
  net::PacketSink& acks_;
  sim::Timer delack_timer_;

  SeqNr rcv_nxt_ = 0;
  // Out-of-order ranges, sorted by start, non-overlapping and non-adjacent.
  // Flat storage: occupancy is bounded by the receive window (at most
  // ~rwnd/2 ranges), so inserts are small memmoves — the std::map
  // predecessor allocated a node per loss-induced hole, which was the last
  // allocation source in the steady-state fuzzing path.
  std::vector<OooRange> ooo_;
  // SACK block starts, most recently updated first (bounded like ooo_).
  std::vector<SeqNr> recent_blocks_;
  int pending_ack_segments_ = 0;  // in-order segments not yet ACKed
  std::int64_t packets_arrived_ = 0;
  std::int64_t segments_received_ = 0;
  std::int64_t duplicates_ = 0;
  std::int64_t acks_sent_ = 0;
  std::uint64_t next_ack_id_ = 0;
};

}  // namespace ccfuzz::tcp
