#include "tcp/receiver.h"

#include <cassert>

namespace ccfuzz::tcp {

TcpReceiver::TcpReceiver(sim::Simulator& sim, const Config& cfg,
                         net::PacketSink& acks)
    : sim_(sim),
      cfg_(cfg),
      acks_(acks),
      delack_timer_(sim, [this] { on_delack_timer(); }) {
  reserve_buffers();
}

void TcpReceiver::reset(const Config& cfg) {
  cfg_ = cfg;
  // In a reused context Simulator::reset has already emptied the timer;
  // cancelling also stops it when the simulator was not reset.
  delack_timer_.cancel();
  rcv_nxt_ = 0;
  ooo_.clear();
  recent_blocks_.clear();
  pending_ack_segments_ = 0;
  packets_arrived_ = 0;
  segments_received_ = 0;
  duplicates_ = 0;
  acks_sent_ = 0;
  next_ack_id_ = 0;
  reserve_buffers();
}

void TcpReceiver::reserve_buffers() {
  // Out-of-order occupancy cannot exceed the advertised buffer, and distinct
  // ranges need a gap between them, so rwnd/2 + 1 is the hard bound; reserve
  // a little over it so warm loss recovery never allocates.
  const auto bound =
      static_cast<std::size_t>(std::max<std::int64_t>(cfg_.rwnd_segments, 0)) /
          2 +
      2;
  ooo_.reserve(bound);
  recent_blocks_.reserve(bound);
}

std::size_t TcpReceiver::first_range_past(SeqNr seq) const {
  // Smallest index whose range starts after `seq` (map::upper_bound).
  std::size_t lo = 0;
  std::size_t hi = ooo_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (ooo_[mid].start <= seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void TcpReceiver::forget_recent(SeqNr start) {
  std::erase(recent_blocks_, start);
}

void TcpReceiver::on_data_packet(const net::Packet& p) {
  const SeqNr seq = p.tcp.seq;
  assert(seq >= 0 && "data packet without sequence number");
  ++packets_arrived_;

  if (seq < rcv_nxt_) {
    // Old/duplicate segment (e.g. a spurious retransmission arriving after
    // the original). RFC 5681: ACK immediately so the sender can resync.
    ++duplicates_;
    send_ack_now(p.tcp.tx_id);
    return;
  }

  if (seq == rcv_nxt_) {
    // RFC 5681: an immediate ACK when the segment fills all or part of a
    // gap. This covers the post-RTO head retransmission whose cumulative
    // ACK must not sit behind the delack timer.
    const bool filled_gap = !ooo_.empty();
    ++rcv_nxt_;
    ++segments_received_;
    absorb_in_order();
    if (filled_gap) {
      pending_ack_segments_ = 0;
      send_ack_now(p.tcp.tx_id);
      return;
    }
    ++pending_ack_segments_;
    if (!cfg_.delayed_ack || pending_ack_segments_ >= cfg_.ack_every) {
      pending_ack_segments_ = 0;
      send_ack_now(p.tcp.tx_id);
    } else if (!delack_timer_.pending()) {
      // 200 ms out, and usually cancelled by the next full segment long
      // before it is due; its queue handle is dropped when it surfaces.
      delack_timer_.arm(cfg_.delack_timeout);
    }
    return;
  }

  // Out of order: duplicate delivery of a buffered seq also lands here.
  const std::size_t past = first_range_past(seq);
  const bool already_buffered =
      past > 0 && seq >= ooo_[past - 1].start && seq < ooo_[past - 1].end;
  if (already_buffered) {
    ++duplicates_;
  } else {
    add_out_of_order(seq);
  }
  pending_ack_segments_ = 0;
  send_ack_now(p.tcp.tx_id);
}

void TcpReceiver::absorb_in_order() {
  // Ranges are sorted: everything absorbable sits at the front.
  std::size_t n = 0;
  while (n < ooo_.size() && ooo_[n].start <= rcv_nxt_) {
    if (ooo_[n].end > rcv_nxt_) {
      segments_received_ += ooo_[n].end - rcv_nxt_;
      rcv_nxt_ = ooo_[n].end;
    }
    forget_recent(ooo_[n].start);
    ++n;
  }
  if (n > 0) {
    ooo_.erase(ooo_.begin(), ooo_.begin() + static_cast<std::ptrdiff_t>(n));
  }
}

void TcpReceiver::add_out_of_order(SeqNr seq) {
  // Insert [seq, seq+1), merging with neighbours.
  SeqNr start = seq;
  SeqNr end = seq + 1;
  std::size_t pos = first_range_past(seq);
  // Merge with predecessor block ending at seq.
  if (pos > 0 && ooo_[pos - 1].end == seq) {
    start = ooo_[pos - 1].start;
    forget_recent(ooo_[pos - 1].start);
    ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(pos - 1));
    --pos;
  }
  // Merge with successor block starting at seq+1.
  if (pos < ooo_.size() && ooo_[pos].start == end) {
    end = ooo_[pos].end;
    forget_recent(ooo_[pos].start);
    ooo_.erase(ooo_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  ooo_.insert(ooo_.begin() + static_cast<std::ptrdiff_t>(pos),
              OooRange{start, end});
  // Most recently changed block goes first (RFC 2018 §4).
  forget_recent(start);
  recent_blocks_.insert(recent_blocks_.begin(), start);
}

void TcpReceiver::fill_sacks(net::TcpHeader& h) const {
  h.n_sacks = 0;
  for (const SeqNr start : recent_blocks_) {
    if (h.n_sacks >= cfg_.max_sack_blocks) break;
    const std::size_t past = first_range_past(start);
    if (past == 0 || ooo_[past - 1].start != start) continue;
    h.sacks[h.n_sacks++] = net::SackBlock{start, ooo_[past - 1].end};
  }
}

std::int64_t TcpReceiver::buffered_out_of_order() const {
  std::int64_t n = 0;
  for (const OooRange& r : ooo_) n += r.end - r.start;
  return n;
}

void TcpReceiver::send_ack_now(std::int64_t acked_tx_id) {
  delack_timer_.cancel();
  pending_ack_segments_ = 0;
  net::Packet ack;
  ack.id = 0xA000000000000000ULL +
           (static_cast<std::uint64_t>(cfg_.flow_index) << 48) + next_ack_id_++;
  ack.flow = net::FlowId::kAck;
  ack.flow_index = cfg_.flow_index;
  ack.size_bytes = cfg_.ack_bytes;
  ack.created_at = sim_.now();
  ack.tcp.ack = rcv_nxt_;
  ack.tcp.acked_tx_id = acked_tx_id;
  ack.tcp.wnd = advertised_window();
  fill_sacks(ack.tcp);
  ++acks_sent_;
  acks_.receive(std::move(ack));
}

void TcpReceiver::on_delack_timer() {
  if (pending_ack_segments_ > 0) send_ack_now(-1);
}

}  // namespace ccfuzz::tcp
