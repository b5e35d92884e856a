#include "fuzz/state_io.h"

#include "coverage/probe.h"
#include "trace/trace_io.h"

namespace ccfuzz::fuzz::state_io {

void write_descriptor(record::Writer& w,
                      const coverage::BehaviorDescriptor& d) {
  w << ' ' << d.state_transitions << ' ' << d.rtt_spread << ' '
    << d.max_backoff << ' ' << d.cwnd_span << ' ' << d.event_mask << ' '
    << d.cca_states;
}

void read_descriptor(record::Reader& r, coverage::BehaviorDescriptor& d) {
  r >> d.state_transitions >> d.rtt_spread >> d.max_backoff >> d.cwnd_span >>
      d.event_mask >> d.cca_states;
}

void write_eval(record::Writer& w, const Evaluation& e) {
  w << "# eval " << e.score.performance << ' ' << e.score.trace << ' '
    << e.goodput_mbps << ' ' << e.cca_sent << ' ' << e.cca_delivered << ' '
    << e.cca_drops << ' ' << e.cross_sent << ' ' << e.cross_drops << ' '
    << e.rto_count << ' ' << e.p10_delay_s << ' ' << e.stalled << ' '
    << e.truncated << ' ' << static_cast<int>(e.truncation) << ' '
    << e.quarantined << ' ' << e.jain_fairness << ' '
    << e.flow_goodput_mbps.size();
  for (const double g : e.flow_goodput_mbps) w << ' ' << g;
  w << '\n';
  const auto& c = e.coverage;
  w << "# cov " << c.valid << ' ' << c.bits;
  write_descriptor(w, c.descriptor);
  w << "\n# covmap ";
  w.hex(c.bitmap.words) << '\n';
}

Error read_eval(record::Reader& r, Evaluation& e) {
  std::uint8_t truncation = 0;
  r.read("eval", e.score.performance, e.score.trace, e.goodput_mbps,
         e.cca_sent, e.cca_delivered, e.cca_drops, e.cross_sent, e.cross_drops,
         e.rto_count, e.p10_delay_s, e.stalled, e.truncated, truncation,
         e.quarantined, e.jain_fairness, e.flow_goodput_mbps);
  e.truncation = static_cast<sim::TruncationReason>(truncation);
  r.expect("cov") >> e.coverage.valid >> e.coverage.bits;
  read_descriptor(r, e.coverage.descriptor);
  r.done();
  r.read("covmap", record::Hex(e.coverage.bitmap.words));
  return r.error();
}

void write_member(record::Writer& w, const Member& m) {
  static const Evaluation kUnevaluated;
  w << "# member " << m.evaluated << ' ' << m.novelty << '\n';
  write_eval(w, m.evaluated ? m.eval : kUnevaluated);
  trace::write_trace(w, m.genome);
  w << "# end member\n";
}

Error read_member(record::Reader& r, Member& m) {
  r.read("member", m.evaluated, m.novelty);
  read_eval(r, m.eval);
  if (Result<trace::Trace> genome = trace::try_read_trace(r)) {
    m.genome = std::move(*genome);
  }
  r.end("member");
  return r.error();
}

void write_genstats(record::Writer& w, const GenStats& gs) {
  w << "# gen " << gs.generation << ' ' << gs.best_score << ' '
    << gs.mean_score << ' ' << gs.topk_mean_packets_sent << ' '
    << gs.topk_mean_goodput_mbps << ' ' << gs.topk_mean_jain_fairness << ' '
    << gs.stalled_count << ' ' << gs.evaluations << ' ' << gs.archive_cells
    << ' ' << gs.archive_new_cells << ' ' << gs.archive_improved << ' '
    << gs.coverage_bits << ' ' << gs.topk_mean_flow_goodput_mbps.size();
  for (const double g : gs.topk_mean_flow_goodput_mbps) w << ' ' << g;
  w << '\n';
}

Error read_genstats(record::Reader& r, GenStats& gs) {
  r.read("gen", gs.generation, gs.best_score, gs.mean_score,
         gs.topk_mean_packets_sent, gs.topk_mean_goodput_mbps,
         gs.topk_mean_jain_fairness, gs.stalled_count, gs.evaluations,
         gs.archive_cells, gs.archive_new_cells, gs.archive_improved,
         gs.coverage_bits, gs.topk_mean_flow_goodput_mbps);
  return r.error();
}

}  // namespace ccfuzz::fuzz::state_io
