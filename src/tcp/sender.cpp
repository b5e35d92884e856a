#include "tcp/sender.h"

#include <algorithm>
#include <cassert>

namespace ccfuzz::tcp {

TcpSender::TcpSender(sim::Simulator& sim, const Config& cfg,
                     std::unique_ptr<CongestionControl> cca,
                     net::PacketSink& out)
    : sim_(sim),
      cfg_(cfg),
      cca_(std::move(cca)),
      out_(out),
      rtt_(cfg.rtt),
      log_(cfg.log_events),
      rto_timer_(sim, [this] { on_rto_timer(); }),
      pacing_timer_(sim, [this] { pacing_fire(); }),
      start_timer_(sim, [this] { begin(); }),
      stop_timer_(sim, [this] { stop(); }) {
  st_.mss_bytes = cfg_.mss_bytes;
  wnd_right_ = cfg_.initial_rwnd_segments;
  assert(cca_ && "sender requires a congestion control instance");
  cca_->attach_event_log(&log_);
}

void TcpSender::reset(const Config& cfg, std::unique_ptr<CongestionControl> cca) {
  cfg_ = cfg;
  cca_ = std::move(cca);
  assert(cca_ && "sender requires a congestion control instance");
  rtt_ = RttEstimator(cfg_.rtt);
  log_.reset(cfg_.log_events);
  // In a reused context Simulator::reset has already emptied every timer;
  // cancelling also stops them when the simulator was not reset.
  rto_timer_.cancel();
  pacing_timer_.cancel();
  start_timer_.cancel();
  stop_timer_.cancel();

  st_ = SenderState{};
  st_.mss_bytes = cfg_.mss_bytes;
  sink_ = nullptr;  // observers are per run; the harness re-attaches
  snd_una_ = 0;
  snd_nxt_ = 0;
  wnd_right_ = cfg_.initial_rwnd_segments;
  fack_ = 0;
  recovery_point_ = -1;
  fack_scanned_ = 0;
  retx_hint_ = 0;
  sack_cache_n_ = 0;
  backoff_ = 0;
  rto_count_ = 0;
  fast_recovery_count_ = 0;
  spurious_retx_ = 0;
  next_tx_id_ = 0;
  delivered_ = 0;
  delivered_mstamp_ = TimeNs(-1);
  first_tx_mstamp_ = TimeNs(-1);
  started_ = false;
  cca_->attach_event_log(&log_);
}

void TcpSender::start(TimeNs at) {
  start_timer_.arm_at(at);
  if (!cfg_.stop.is_infinite()) stop_timer_.arm_at(cfg_.stop);
}

void TcpSender::begin() {
  refresh_state();
  cca_->init(st_);
  started_ = true;
  try_send();
}

void TcpSender::stop() {
  started_ = false;
  rto_timer_.cancel();
  pacing_timer_.cancel();
}

void TcpSender::refresh_state() {
  st_.now = sim_.now();
  st_.delivered = delivered_;
  st_.packets_out = snd_nxt_ - snd_una_;
  st_.srtt = rtt_.srtt();
  st_.last_rtt = rtt_.last_rtt();
  st_.min_rtt = rtt_.min_rtt();
  // sacked_out / lost_out / retrans_out / in_recovery / in_loss / counters
  // are maintained incrementally where they change.
}

// ---------------------------------------------------------------------------
// Transmission path
// ---------------------------------------------------------------------------

SeqNr TcpSender::next_retransmit_seq() {
  // lost_out counts exactly the segments with the lost mark still set in
  // [snd_una, snd_nxt) (marking increments it; SACK/cumulative delivery
  // decrement it), so the common no-loss case skips the window scan — this
  // predicate runs on every transmission opportunity and was the single
  // hottest function in the simulated-second profile.
  if (st_.lost_out == 0) return -1;
  // Lowest lost segment without an outstanding retransmission. Nothing
  // below retx_hint_ qualifies, so the scan resumes there.
  for (SeqNr s = std::max(retx_hint_, snd_una_); s < snd_nxt_; ++s) {
    const Segment& sg = seg(s);
    if (sg.lost && !sg.retrans_out && !sg.sacked && !sg.delivered_flag) {
      retx_hint_ = s;
      return s;
    }
  }
  retx_hint_ = snd_nxt_;
  return -1;
}

bool TcpSender::can_transmit() {
  if (!started_) return false;
  if (st_.in_flight() >= cca_->cwnd_segments()) return false;
  if (next_retransmit_seq() >= 0) return true;
  // New data also needs room in the peer's advertised window. With a
  // persistent hole the window closes and only retransmissions may flow
  // (the RTO on the lost head doubles as the zero-window probe).
  return snd_nxt_ < cfg_.total_segments && snd_nxt_ < wnd_right_;
}

void TcpSender::send_segment(SeqNr s, bool is_retx) {
  const TimeNs now = sim_.now();
  const bool was_idle = (snd_nxt_ == snd_una_);  // Linux: !tp->packets_out
  if (!is_retx) {
    assert(s == snd_nxt_);
    segs_.append(snd_una_, s);
    ++snd_nxt_;
    st_.packets_out = snd_nxt_ - snd_una_;
  }
  Segment& sg = seg(s);

  // tcp_rate_skb_sent: on an idle (re)start, reset the rate pipeline clock.
  if (was_idle || delivered_mstamp_ < TimeNs::zero()) {
    first_tx_mstamp_ = now;
    delivered_mstamp_ = now;
  }
  sg.tx_first_tx_mstamp = first_tx_mstamp_;
  sg.tx_delivered_mstamp = delivered_mstamp_;
  sg.tx_delivered = delivered_;  // the "prior delivered" snapshot
  sg.last_sent = now;
  sg.last_tx_id = next_tx_id_++;
  if (sg.tx_count == 0) sg.first_sent = now;
  ++sg.tx_count;

  ++st_.total_sent;
  if (is_retx) {
    ++st_.total_retx;
    if (!sg.retrans_out) {
      sg.retrans_out = true;
      ++st_.retrans_out;
    }
    log_.emit(now, TcpEventType::kRetransmit, s);
  } else {
    log_.emit(now, TcpEventType::kSend, s);
  }

  net::Packet p;
  // Transmission ids are per flow; the flow index in the top bits keeps ids
  // simulation-unique (flow 0 keeps the single-flow id layout).
  p.id = (static_cast<std::uint64_t>(cfg_.flow_index) << 48) |
         (static_cast<std::uint64_t>(sg.last_tx_id) + 1);
  p.flow = net::FlowId::kCcaData;
  p.flow_index = cfg_.flow_index;
  p.size_bytes = cfg_.mss_bytes;
  p.created_at = now;
  p.tcp.seq = s;
  p.tcp.tx_id = sg.last_tx_id;
  out_.receive(std::move(p));

  refresh_state();
  cca_->on_sent(st_, s, is_retx);

  // RTO management: arm if idle; reset fully when retransmitting the head
  // (Linux tcp_xmit_retransmit_queue → tcp_rearm_rto). This produces the
  // paper's "RTO timer set for T1 + minRTO" after a fast retransmit at T1.
  if (is_retx && s == snd_una_) {
    arm_rto(/*force=*/true);
  } else {
    arm_rto(/*force=*/false);
  }
}

void TcpSender::try_send() {
  if (!started_) return;
  const DataRate rate = cca_->pacing_rate();
  if (rate.is_zero()) {
    // Pure ACK clocking: transmit everything the window allows.
    while (can_transmit()) {
      const SeqNr r = next_retransmit_seq();
      send_segment(r >= 0 ? r : snd_nxt_, r >= 0);
    }
    return;
  }
  // Paced: if the pacing timer is idle, release one segment now and arm the
  // timer for the next; otherwise the pending timer will pick up the work.
  if (!pacing_timer_.pending() && can_transmit()) {
    const SeqNr r = next_retransmit_seq();
    send_segment(r >= 0 ? r : snd_nxt_, r >= 0);
    const DataRate after = cca_->pacing_rate();
    if (!after.is_zero()) {
      pacing_timer_.arm(after.transfer_time(cfg_.mss_bytes));
    }
  }
}

void TcpSender::pacing_fire() {
  if (!can_transmit()) return;  // go idle; next ACK/RTO restarts pacing
  const SeqNr r = next_retransmit_seq();
  send_segment(r >= 0 ? r : snd_nxt_, r >= 0);
  const DataRate after = cca_->pacing_rate();
  if (!after.is_zero()) {
    pacing_timer_.arm(after.transfer_time(cfg_.mss_bytes));
  }
}

void TcpSender::arm_rto(bool force) {
  if (snd_nxt_ == snd_una_ || !started_) {
    rto_timer_.cancel();
    return;
  }
  if (force || !rto_timer_.pending()) {
    // Restarted on every cumulative ACK (tcp_rearm_rto). A re-arm to a
    // later time changes only the timer's key; its one queue handle is
    // re-keyed when it surfaces, and no stale handle is left behind — the
    // pattern BM_TimerRearmHeavy tracks.
    rto_timer_.arm(rtt_.rto_backed_off(backoff_));
  }
}

// ---------------------------------------------------------------------------
// RTO
// ---------------------------------------------------------------------------

void TcpSender::on_rto_timer() {
  const TimeNs now = sim_.now();
  ++rto_count_;
  ++backoff_;
  log_.emit(now, TcpEventType::kRto, snd_una_, static_cast<double>(backoff_));

  // tcp_enter_loss: clear retransmission marks (those copies are presumed
  // lost) and mark every non-SACKed outstanding segment lost. SACKed marks
  // are retained (SACK is enabled, per the paper's Linux-default setup).
  for (SeqNr s = snd_una_; s < snd_nxt_; ++s) {
    Segment& sg = seg(s);
    if (sg.retrans_out) sg.retrans_out = false;
    if (!sg.sacked && !sg.lost && !sg.delivered_flag) {
      sg.lost = true;
      ++st_.lost_out;
      log_.emit(now, TcpEventType::kMarkLost, s);
    }
  }
  st_.retrans_out = 0;
  retx_hint_ = snd_una_;

  st_.in_loss = true;
  st_.in_recovery = false;
  recovery_point_ = snd_nxt_;
  refresh_state();
  cca_->on_congestion_event(st_, CongestionEvent::kRto);
  if (sink_) sink_->on_congestion(CongestionEvent::kRto, backoff_);

  // Back off the timer for the next expiry, then retransmit the head.
  arm_rto(/*force=*/true);
  try_send();
}

// ---------------------------------------------------------------------------
// ACK processing
// ---------------------------------------------------------------------------

void TcpSender::deliver_segment(Segment& sg, TimeNs now, RateSampleBuilder& rsb) {
  sg.delivered_flag = true;
  ++delivered_;
  delivered_mstamp_ = now;
  // tcp_rate_skb_delivered: keep the sample from the skb that was sent with
  // the highest delivered-count snapshot.
  if (sg.tx_delivered_mstamp >= TimeNs::zero()) {
    if (!rsb.has || sg.tx_delivered > rsb.prior_delivered) {
      rsb.has = true;
      rsb.prior_delivered = sg.tx_delivered;
      rsb.prior_mstamp = sg.tx_delivered_mstamp;
      rsb.is_retrans = sg.tx_count > 1;
      rsb.interval_snd = sg.last_sent - sg.tx_first_tx_mstamp;
      first_tx_mstamp_ = sg.last_sent;
    }
    sg.tx_delivered_mstamp = TimeNs(-1);  // sample each skb once
  }
  // Spurious-retransmission detection (diagnostic): the segment was
  // retransmitted but this delivery must have been triggered by an earlier
  // copy — the ACK arrived sooner than any network round trip could allow.
  if (sg.tx_count > 1 && rtt_.min_rtt() >= DurationNs::zero() &&
      now - sg.last_sent < rtt_.min_rtt()) {
    ++spurious_retx_;
    log_.emit(now, TcpEventType::kSpuriousRetx, -1,
              static_cast<double>(sg.tx_count));
  }
}

void TcpSender::sack_range(SeqNr lo, SeqNr hi, TimeNs now,
                           RateSampleBuilder& rsb, std::int64_t* newly_sacked,
                           DurationNs* rtt_sample) {
  for (SeqNr s = lo; s < hi; ++s) {
    Segment& sg = seg(s);
    if (sg.sacked || sg.delivered_flag) continue;
    sg.sacked = true;
    ++st_.sacked_out;
    if (sg.lost) {
      sg.lost = false;
      --st_.lost_out;
    }
    if (sg.retrans_out) {
      sg.retrans_out = false;
      --st_.retrans_out;
    }
    deliver_segment(sg, now, rsb);
    if (sg.tx_count == 1) *rtt_sample = now - sg.last_sent;
    ++(*newly_sacked);
    fack_ = std::max(fack_, s + 1);
    log_.emit(now, TcpEventType::kSack, s);
  }
}

void TcpSender::mark_losses_from_fack(std::int64_t* newly_lost) {
  // FACK: segments more than dupack_threshold below the forward-most SACK
  // are lost. Retransmitted copies are not re-marked; their loss is only
  // detectable by RTO (this is what the shrew attack leans on). Every seq
  // below fack_scanned_ was examined before and needs no mark.
  const SeqNr limit = std::min(fack_ - cfg_.dupack_threshold, snd_nxt_);
  for (SeqNr s = std::max(fack_scanned_, snd_una_); s < limit; ++s) {
    Segment& sg = seg(s);
    if (sg.sacked || sg.lost || sg.delivered_flag || sg.retrans_out) continue;
    sg.lost = true;
    ++st_.lost_out;
    ++(*newly_lost);
    retx_hint_ = std::min(retx_hint_, s);
    log_.emit(sim_.now(), TcpEventType::kMarkLost, s);
  }
  fack_scanned_ = std::max(fack_scanned_, limit);
}

void TcpSender::maybe_enter_recovery(TimeNs now, std::int64_t newly_lost) {
  if (newly_lost <= 0 || st_.in_recovery || st_.in_loss) return;
  st_.in_recovery = true;
  recovery_point_ = snd_nxt_;
  ++fast_recovery_count_;
  log_.emit(now, TcpEventType::kEnterRecovery, recovery_point_);
  refresh_state();
  cca_->on_congestion_event(st_, CongestionEvent::kEnterRecovery);
  if (sink_) sink_->on_congestion(CongestionEvent::kEnterRecovery, backoff_);
}

void TcpSender::maybe_exit_recovery(TimeNs now) {
  if (!(st_.in_recovery || st_.in_loss)) return;
  if (snd_una_ < recovery_point_) return;
  const bool was_loss = st_.in_loss;
  st_.in_recovery = false;
  st_.in_loss = false;
  recovery_point_ = -1;
  log_.emit(now, was_loss ? TcpEventType::kExitLoss : TcpEventType::kExitRecovery,
            snd_una_);
  refresh_state();
  const CongestionEvent ev =
      was_loss ? CongestionEvent::kExitLoss : CongestionEvent::kExitRecovery;
  cca_->on_congestion_event(st_, ev);
  if (sink_) sink_->on_congestion(ev, backoff_);
}

RateSample TcpSender::generate_rate_sample(const RateSampleBuilder& rsb,
                                           std::int64_t acked_sacked,
                                           std::int64_t losses,
                                           std::int64_t prior_in_flight,
                                           DurationNs rtt_sample) {
  RateSample rs;
  rs.acked_sacked = acked_sacked;
  rs.losses = losses;
  rs.prior_in_flight = prior_in_flight;
  rs.rtt = rtt_sample;
  if (!rsb.has) return rs;  // delivered = -1: no sample this ACK
  rs.prior_delivered = rsb.prior_delivered;
  rs.prior_time = rsb.prior_mstamp;
  rs.is_retrans = rsb.is_retrans;
  rs.delivered = delivered_ - rsb.prior_delivered;
  const DurationNs ack_interval = delivered_mstamp_ - rsb.prior_mstamp;
  rs.interval = std::max(rsb.interval_snd, ack_interval);
  // Linux flags samples shorter than the observed min RTT as unreliable
  // (tcp_rate_gen invalidates them). We keep the data and set the flag so
  // the CCA can apply either the strict Linux policy or the looser ns-3 one
  // the paper's findings exercise (RateSample::below_min_rtt).
  rs.below_min_rtt =
      rtt_.min_rtt() >= DurationNs::zero() && rs.interval < rtt_.min_rtt();
  if (rs.interval.ns() > 0) {
    rs.delivery_rate_pps =
        static_cast<double>(rs.delivered) / rs.interval.to_seconds();
  }
  return rs;
}

void TcpSender::on_ack_packet(const net::Packet& ack) {
  const TimeNs now = sim_.now();
  const SeqNr ack_seq = ack.tcp.ack;
  const std::int64_t prior_in_flight = st_.in_flight();

  // 0. Flow-control window update. The right edge never retreats
  // (RFC 793); ACKs without a window field mean "unlimited".
  if (ack.tcp.wnd >= 0) {
    wnd_right_ = std::max(wnd_right_, ack_seq + ack.tcp.wnd);
  } else {
    wnd_right_ = std::numeric_limits<SeqNr>::max();
  }

  RateSampleBuilder rsb;
  std::int64_t newly_acked = 0;
  std::int64_t newly_sacked = 0;
  std::int64_t newly_lost = 0;
  DurationNs rtt_sample(-1);

  // 1. Cumulative acknowledgement.
  if (ack_seq > snd_una_) {
    for (SeqNr s = snd_una_; s < std::min(ack_seq, snd_nxt_); ++s) {
      Segment& sg = seg(s);
      if (!sg.delivered_flag) deliver_segment(sg, now, rsb);
      if (sg.sacked) --st_.sacked_out;
      if (sg.lost) --st_.lost_out;
      if (sg.retrans_out) --st_.retrans_out;
      if (sg.tx_count == 1) rtt_sample = now - sg.last_sent;  // Karn
      ++newly_acked;
    }
    // Ring storage is keyed by absolute seq: advancing the left edge is pure
    // index arithmetic, the retired slots are recycled on wrap-around.
    const std::int64_t advance = std::min(ack_seq, snd_nxt_) - snd_una_;
    snd_una_ += advance;
    st_.packets_out = snd_nxt_ - snd_una_;
    backoff_ = 0;  // Karn: fresh data acknowledged resets backoff
    fack_ = std::max(fack_, snd_una_);
  }

  // 2. SACK blocks. Each block is walked in ascending seq order, minus the
  // parts the previous ACK's blocks (sack_cache_) already SACKed.
  decltype(sack_cache_) walked{};
  int n_walked = 0;
  for (int i = 0; i < ack.tcp.n_sacks; ++i) {
    const net::SackBlock& b = ack.tcp.sacks[i];
    const SeqNr lo = std::max<SeqNr>(b.start, snd_una_);
    const SeqNr hi = std::min<SeqNr>(b.end, snd_nxt_);
    if (lo >= hi) continue;
    walked[n_walked++] = {lo, hi};
    SeqNr s = lo;
    while (s < hi) {
      // Skip to the end of a cached block that holds s, or walk up to the
      // start of the next cached block above s.
      SeqNr skip_to = s;
      SeqNr walk_to = hi;
      for (int c = 0; c < sack_cache_n_; ++c) {
        const net::SackBlock& cb = sack_cache_[c];
        if (cb.start <= s && s < cb.end) {
          skip_to = std::max(skip_to, cb.end);
        } else if (cb.start > s) {
          walk_to = std::min(walk_to, cb.start);
        }
      }
      if (skip_to > s) {
        s = skip_to;
        continue;
      }
      sack_range(s, walk_to, now, rsb, &newly_sacked, &rtt_sample);
      s = walk_to;
    }
  }
  sack_cache_ = walked;
  sack_cache_n_ = n_walked;

  // 3. RTT estimation (never from retransmitted segments).
  if (rtt_sample >= DurationNs::zero()) rtt_.on_measurement(rtt_sample);

  // 4. SACK-scoreboard loss marking.
  mark_losses_from_fack(&newly_lost);

  // 5. Recovery state machine.
  maybe_enter_recovery(now, newly_lost);
  maybe_exit_recovery(now);

  // 6. Rate sample (tcp_rate_gen) + CCA callback.
  refresh_state();
  const RateSample rs = generate_rate_sample(
      rsb, newly_acked + newly_sacked, newly_lost, prior_in_flight, rtt_sample);

  AckEvent ev;
  ev.now = now;
  ev.cumulative_ack = snd_una_;
  ev.newly_acked = newly_acked;
  ev.newly_sacked = newly_sacked;
  ev.is_duplicate = (newly_acked == 0);
  log_.emit(now, ev.is_duplicate ? TcpEventType::kDupAck : TcpEventType::kAck,
            snd_una_, static_cast<double>(newly_acked + newly_sacked));

  cca_->on_ack(st_, ev, rs);
  if (sink_) sink_->on_ack_sample(st_, *cca_, rtt_sample);

  // 7. RTO maintenance: restart on forward progress, stop when idle.
  if (newly_acked > 0) {
    arm_rto(/*force=*/true);
  }
  if (snd_nxt_ == snd_una_) rto_timer_.cancel();

  // 8. Transmit whatever the window / pacer now allows.
  try_send();
}

}  // namespace ccfuzz::tcp
