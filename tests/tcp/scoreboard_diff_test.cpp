// Differential test of the sender's SACK scoreboard. TcpSender resumes its
// FACK loss marking, retransmit selection and SACK marking from cursors
// instead of rescanning the window. PlainScoreboard below is a reference
// model that keeps the plain O(window) walks. Both take the same random
// ACK/SACK/RTO sequences, and the sender's event log must show exactly the
// marks, SACKs, transmissions and retransmission order the model gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cca/fixed_window.h"
#include "../net/sinks.h"
#include "sim/simulator.h"
#include "tcp/sender.h"
#include "util/rng.h"

namespace ccfuzz::tcp {
namespace {

struct Ev {
  TcpEventType type;
  SeqNr seq;
  bool operator==(const Ev&) const = default;
};

std::string describe(const Ev& e) {
  return std::string(to_string(e.type)) + " " + std::to_string(e.seq);
}

/// The scoreboard of an unpaced sender under a fixed window, with every walk
/// from snd_una as the sender made it before it kept cursors.
class PlainScoreboard {
 public:
  PlainScoreboard(std::int64_t cwnd, const TcpSender::Config& cfg)
      : cwnd_(cwnd),
        total_(cfg.total_segments),
        dupthresh_(cfg.dupack_threshold),
        wnd_right_(cfg.initial_rwnd_segments) {}

  void start() { try_send(); }

  void on_rto() {
    events.push_back({TcpEventType::kRto, una});
    for (SeqNr s = una; s < nxt; ++s) {
      Seg& sg = seg(s);
      sg.retrans = false;
      if (!sg.sacked && !sg.lost && !sg.delivered) {
        sg.lost = true;
        ++lost_out;
        events.push_back({TcpEventType::kMarkLost, s});
      }
    }
    retrans_out = 0;
    try_send();
  }

  void on_ack(const net::Packet& ack) {
    const SeqNr cum = ack.tcp.ack;
    if (ack.tcp.wnd >= 0) {
      wnd_right_ = std::max(wnd_right_, cum + ack.tcp.wnd);
    } else {
      wnd_right_ = std::numeric_limits<SeqNr>::max();
    }
    if (cum > una) {
      const SeqNr to = std::min(cum, nxt);
      for (SeqNr s = una; s < to; ++s) {
        Seg& sg = seg(s);
        if (sg.sacked) --sacked_out;
        if (sg.lost) --lost_out;
        if (sg.retrans) --retrans_out;
      }
      una = to;
      fack_ = std::max(fack_, una);
    }
    for (int i = 0; i < ack.tcp.n_sacks; ++i) {
      const net::SackBlock& b = ack.tcp.sacks[static_cast<std::size_t>(i)];
      for (SeqNr s = std::max(b.start, una); s < std::min(b.end, nxt); ++s) {
        Seg& sg = seg(s);
        if (sg.sacked || sg.delivered) continue;
        sg.sacked = sg.delivered = true;
        ++sacked_out;
        if (sg.lost) --lost_out;
        if (sg.retrans) --retrans_out;
        sg.lost = sg.retrans = false;
        fack_ = std::max(fack_, s + 1);
        events.push_back({TcpEventType::kSack, s});
      }
    }
    for (SeqNr s = una; s < std::min(fack_ - dupthresh_, nxt); ++s) {
      Seg& sg = seg(s);
      if (sg.sacked || sg.lost || sg.delivered || sg.retrans) continue;
      sg.lost = true;
      ++lost_out;
      events.push_back({TcpEventType::kMarkLost, s});
    }
    try_send();
  }

  std::vector<Ev> events;
  SeqNr una = 0;
  SeqNr nxt = 0;
  std::int64_t sacked_out = 0;
  std::int64_t lost_out = 0;
  std::int64_t retrans_out = 0;

 private:
  struct Seg {
    bool sacked = false;
    bool lost = false;
    bool retrans = false;
    bool delivered = false;
  };

  Seg& seg(SeqNr s) { return segs_[static_cast<std::size_t>(s)]; }

  SeqNr next_retransmit() {
    if (lost_out == 0) return -1;
    for (SeqNr s = una; s < nxt; ++s) {
      const Seg& sg = seg(s);
      if (sg.lost && !sg.retrans && !sg.sacked && !sg.delivered) return s;
    }
    return -1;
  }

  void try_send() {
    while ((nxt - una) - sacked_out - lost_out + retrans_out < cwnd_) {
      const SeqNr r = next_retransmit();
      if (r >= 0) {
        Seg& sg = seg(r);
        if (!sg.retrans) {
          sg.retrans = true;
          ++retrans_out;
        }
        events.push_back({TcpEventType::kRetransmit, r});
      } else if (nxt < total_ && nxt < wnd_right_) {
        segs_.emplace_back();
        events.push_back({TcpEventType::kSend, nxt});
        ++nxt;
      } else {
        break;
      }
    }
  }

  std::int64_t cwnd_;
  std::int64_t total_;
  int dupthresh_;
  SeqNr wnd_right_;
  SeqNr fack_ = 0;
  std::vector<Seg> segs_;
};

/// Random ACKs in the style of a reordering, lossy path: mostly duplicate
/// ACKs whose SACK blocks grow, shift or repeat the previous ACK's, plus
/// cumulative jumps, stale ACKs, blocks straddling the window edges and
/// empty or inverted blocks. The previous ACK carries over into the next
/// episode, so a new run's first ACK often repeats the last run's blocks.
class AckGenerator {
 public:
  explicit AckGenerator(Rng& rng) : rng_(rng) {}

  net::Packet next(SeqNr una, SeqNr nxt) {
    net::Packet a;
    a.flow = net::FlowId::kAck;
    net::TcpHeader& h = a.tcp;
    const double u = rng_.next_double();
    if (u < 0.6 || nxt == una) {
      h.ack = una;
    } else if (u < 0.92) {
      h.ack = rng_.uniform_int(una + 1, nxt);
    } else if (u < 0.97) {
      h.ack = una - rng_.uniform_int(1, 5);  // stale
    } else {
      h.ack = nxt + rng_.uniform_int(0, 3);
    }
    h.wnd = rng_.bernoulli(0.7) ? -1 : rng_.uniform_int(0, 120);
    h.n_sacks = static_cast<int>(rng_.uniform_int(0, 4));
    for (int i = 0; i < h.n_sacks; ++i) {
      net::SackBlock& b = h.sacks[static_cast<std::size_t>(i)];
      if (i < prev_.n_sacks && rng_.bernoulli(0.6)) {
        b = prev_.sacks[static_cast<std::size_t>(i)];
        const double v = rng_.next_double();
        if (v < 0.5) {
          b.end += rng_.uniform_int(0, 4);
        } else if (v < 0.7) {
          b.start -= rng_.uniform_int(0, 3);
        } else if (v < 0.8) {
          b.start += rng_.uniform_int(0, 3);
        }
      } else {
        b.start = rng_.uniform_int(una - 4, nxt + 2);
        b.end = b.start + rng_.uniform_int(-1, 24);
      }
    }
    prev_ = h;
    return a;
  }

 private:
  Rng& rng_;
  net::TcpHeader prev_;
};

/// The sender's scoreboard events since `from` in the log.
void collect(const TcpEventLog& log, std::size_t* from, std::vector<Ev>* out) {
  const std::vector<TcpEvent>& events = log.events();
  for (; *from < events.size(); ++*from) {
    const TcpEvent& e = events[*from];
    switch (e.type) {
      case TcpEventType::kSend:
      case TcpEventType::kRetransmit:
      case TcpEventType::kMarkLost:
      case TcpEventType::kSack:
      case TcpEventType::kRto:
        out->push_back({e.type, e.seq});
        break;
      default:
        break;
    }
  }
}

/// Empty if `got` and `want` agree from `from` on, else the first mismatch.
std::string first_mismatch(const std::vector<Ev>& got,
                           const std::vector<Ev>& want, std::size_t from) {
  const std::size_t n = std::max(got.size(), want.size());
  for (std::size_t i = from; i < n; ++i) {
    const bool g = i < got.size();
    const bool w = i < want.size();
    if (g && w && got[i] == want[i]) continue;
    std::ostringstream os;
    os << "event " << i << ": sender " << (g ? describe(got[i]) : "(none)")
       << ", plain walks " << (w ? describe(want[i]) : "(none)");
    return os.str();
  }
  return {};
}

TEST(ScoreboardDiff, RandomRecoveriesMatchPlainWalks) {
  Rng rng(0x5c0de);
  AckGenerator acks(rng);
  sim::Simulator sim;
  TcpSender::Config cfg;
  cfg.log_events = true;
  cfg.rtt.min_rto = DurationNs::seconds(1);
  net::FnSink discard([](net::Packet&&) {});
  TcpSender tx(sim, cfg, std::make_unique<cca::FixedWindow>(1), discard);

  std::int64_t checked_events = 0;
  std::int64_t checked_rtos = 0;
  for (int episode = 0; episode < 600; ++episode) {
    // One sender object serves every episode through reset(), as a warm
    // RunContext does, so state kept across reset() shows as a mismatch.
    const std::int64_t cwnd = rng.uniform_int(1, 96);
    cfg.dupack_threshold = static_cast<int>(rng.uniform_int(1, 5));
    cfg.total_segments = rng.uniform_int(20, 800);
    cfg.initial_rwnd_segments = rng.uniform_int(1, 120);
    // Short episodes end with SACK blocks low in the window, where the
    // next episode's first ACK can meet them.
    const int steps = static_cast<int>(
        rng.bernoulli(0.3) ? rng.uniform_int(1, 5) : rng.uniform_int(1, 400));
    sim.reset();
    tx.reset(cfg, std::make_unique<cca::FixedWindow>(cwnd));
    PlainScoreboard model(cwnd, cfg);

    std::size_t log_pos = 0;
    std::vector<Ev> got;
    std::int64_t rtos = 0;
    auto sync_rtos = [&] {
      for (; rtos < tx.rto_count(); ++rtos) model.on_rto();
    };
    tx.start(TimeNs::zero());
    sim.run_until(TimeNs::zero());
    model.start();

    for (int step = 0; step < steps; ++step) {
      if (rng.bernoulli(0.04) && tx.snd_nxt() > tx.snd_una()) {
        // Run out the clock until the RTO fires (at most one per second).
        const std::int64_t before = tx.rto_count();
        for (int i = 0; i < 70 && tx.rto_count() == before; ++i) {
          sim.run_until(sim.now() + DurationNs::seconds(1));
        }
        ASSERT_GT(tx.rto_count(), before);
      } else {
        sim.run_until(sim.now() + DurationNs::millis(1));
        sync_rtos();  // an RTO due before this ACK fires first
        const net::Packet a = acks.next(model.una, model.nxt);
        tx.on_ack_packet(a);
        model.on_ack(a);
      }
      sync_rtos();

      const std::size_t from = got.size();
      collect(tx.log(), &log_pos, &got);
      const std::string diff = first_mismatch(got, model.events, from);
      ASSERT_TRUE(diff.empty())
          << "episode " << episode << " step " << step << ": " << diff;
      ASSERT_EQ(tx.snd_una(), model.una) << "episode " << episode;
      ASSERT_EQ(tx.snd_nxt(), model.nxt) << "episode " << episode;
      ASSERT_EQ(tx.state().sacked_out, model.sacked_out) << "episode " << episode;
      ASSERT_EQ(tx.state().lost_out, model.lost_out) << "episode " << episode;
      ASSERT_EQ(tx.state().retrans_out, model.retrans_out)
          << "episode " << episode;
    }
    checked_events += static_cast<std::int64_t>(got.size());
    checked_rtos += rtos;
  }
  // A generator change that stopped driving the sender into long
  // recoveries would leave little to compare; keep the volume up.
  EXPECT_GT(checked_events, 100'000);
  EXPECT_GT(checked_rtos, 600);
}

}  // namespace
}  // namespace ccfuzz::tcp
