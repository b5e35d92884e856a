#include "scenario/runner.h"

#include <algorithm>
#include <stdexcept>

namespace ccfuzz::scenario {

namespace {

/// Interval between live-state audits on runs with invariants armed.
constexpr DurationNs kAuditPeriod = DurationNs::millis(5);

}  // namespace

double FlowResult::goodput_mbps() const {
  const DurationNs span = active();
  if (span <= DurationNs::zero()) return 0.0;
  const double bits = static_cast<double>(segments_delivered) *
                      static_cast<double>(packet_bytes) * 8.0;
  return bits / span.to_seconds() * 1e-6;
}

const FlowResult& RunResult::flow(std::size_t i) const {
  static const FlowResult kEmpty;
  return i < flows.size() ? flows[i] : kEmpty;
}

void RunResult::windowed_throughput_mbps_into(std::size_t i,
                                              std::vector<double>& out) const {
  metrics.windowed_throughput_mbps_into(i, config.net.packet_bytes, out);
}

std::vector<double> RunResult::windowed_throughput_mbps(std::size_t i) const {
  std::vector<double> out;
  windowed_throughput_mbps_into(i, out);
  return out;
}

double RunResult::queue_delay_percentile_s(double pct, std::size_t i) const {
  return metrics.flow(i).delay.percentile_s(pct);
}

bool RunResult::stalled(DurationNs tail, std::size_t i) const {
  const FlowResult& f = flow(i);
  if (f.sent == 0) return false;  // never started: not "stuck", just idle
  const TimeNs last = metrics.flow(i).last_egress;
  return !(last >= TimeNs::zero() && last >= f.stop - tail);
}

double RunResult::jain_fairness() const {
  if (flows.size() < 2) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const FlowResult& f : flows) {
    const double g = f.goodput_mbps();
    sum += g;
    sum_sq += g * g;
  }
  if (sum_sq <= 0.0) return 1.0;  // all idle: nothing to be unfair about
  return sum * sum / (static_cast<double>(flows.size()) * sum_sq);
}

RunContext::RunContext()
    : db_(sim_, result_.recorder, result_.metrics), audit_timer_(sim_, [this] {
        audit_live_state();
        audit_timer_.arm(kAuditPeriod);
      }) {}

const RunResult& RunContext::run(const ScenarioConfig& cfg,
                                 const tcp::CcaFactory& cca,
                                 std::span<const TimeNs> trace_times) {
  // The link and the cross-traffic lane consume the stamps in order; an
  // unsorted trace would misorder events rather than fail.
  if (!std::is_sorted(trace_times.begin(), trace_times.end())) {
    throw std::invalid_argument("run: trace_times must be sorted ascending");
  }
  // Reset every piece of reused state; capacities (event heap, component
  // buffers, metric bins) survive, contents don't.
  sim_.reset();
  result_.recorder.clear();
  result_.probe.reset(cfg.coverage);
  result_.invariants.reset(cfg.invariants);
  db_.set_behavior_probe(&result_.probe);

  // setup() clears/rebinds the metrics and rebuilds the components in place.
  db_.setup(cfg, cca, trace_times);
  db_.start();

  // Armed invariant oracle: periodic audits of live sender/queue state.
  // Disarmed runs never arm the audit timer, so they stay bit-identical;
  // armed audits do count toward the run's event budget.
  if (cfg.invariants) audit_timer_.arm(kAuditPeriod);

  // Run guards: cap the deadline at the sim-time budget, and arm the
  // event/wall guards inside the simulator. All of this is branch-only when
  // the budget is unlimited (the default), so guarded-but-unhit runs stay
  // bit-identical to unguarded ones.
  TimeNs deadline = cfg.duration;
  bool sim_time_capped = false;
  if (cfg.budget.max_sim_time > DurationNs::zero() &&
      TimeNs::zero() + cfg.budget.max_sim_time < deadline) {
    deadline = TimeNs::zero() + cfg.budget.max_sim_time;
    sim_time_capped = true;
  }
  sim_.arm_budget(cfg.budget);
  sim_.run_until(deadline);
  result_.truncation = sim_.truncation();
  if (result_.truncation == sim::TruncationReason::kNone && sim_time_capped) {
    result_.truncation = sim::TruncationReason::kSimTimeLimit;
  }
  result_.truncated = result_.truncation != sim::TruncationReason::kNone;
  result_.probe.finalize();

  // The recorder and metrics were written in place (they live inside
  // result_); only counters remain to collect. All assignments below reuse
  // existing capacity, so the handoff allocates nothing when warm.
  result_.config = cfg;
  result_.flows.resize(db_.flow_count());
  for (std::size_t i = 0; i < db_.flow_count(); ++i) {
    const auto idx = static_cast<net::FlowIndex>(i);
    FlowResult& f = result_.flows[i];
    f.cca = db_.flow_spec(i).cca;
    f.start = db_.flow_spec(i).start;
    f.stop = db_.flow_spec(i).stop;
    f.packet_bytes = cfg.net.packet_bytes;
    f.segments_delivered = db_.receiver(i).segments_received();
    f.egress_packets = db_.recorder().flow_egress_count(idx);
    f.sent = db_.sender(i).total_sent();
    f.retransmissions = db_.sender(i).total_retransmissions();
    f.drops = db_.recorder().flow_drop_count(idx);
    f.rto_count = db_.sender(i).rto_count();
    f.fast_recovery_count = db_.sender(i).fast_retransmit_entries();
    f.spurious_retx_count = db_.sender(i).spurious_retx_count();
    f.final_rto_backoff = db_.sender(i).rto_backoff();
    f.final_bw_estimate_pps = db_.sender(i).cca().bw_estimate_pps();
    f.final_min_rtt_estimate = db_.sender(i).cca().min_rtt_estimate();
    f.tcp_log = db_.sender(i).log();
  }
  result_.queue_stats = db_.queue().stats();
  const auto* ct = db_.cross_traffic();
  result_.cross_sent = ct != nullptr ? ct->packets_sent() : 0;
  result_.cross_drops = result_.queue_stats.dropped[static_cast<std::size_t>(
      net::FlowId::kCrossTraffic)];
  if (cfg.invariants) {
    audit_live_state();  // final scoreboard/cwnd/queue state
    check_conservation();
  }
  return result_;
}

void RunContext::audit_live_state() {
  sim::Invariants& inv = result_.invariants;
  const TimeNs now = sim_.now();
  for (std::size_t i = 0; i < db_.flow_count(); ++i) {
    const tcp::TcpSender& s = db_.sender(i);
    const tcp::SenderState& st = s.state();
    inv.check(st.packets_out >= 0 && st.sacked_out >= 0 && st.lost_out >= 0 &&
                  st.retrans_out >= 0,
              now, "scoreboard: negative outstanding-segment counter");
    inv.check(st.in_flight() >= 0, now,
              "scoreboard: negative in-flight (sacked+lost exceed "
              "outstanding+retrans)");
    inv.check(st.sacked_out + st.lost_out <= st.packets_out, now,
              "scoreboard: sacked+lost exceeds outstanding window");
    inv.check(s.snd_una() <= s.snd_nxt(), now, "sequence: snd_una > snd_nxt");
    inv.check(st.packets_out == s.snd_nxt() - s.snd_una(), now,
              "scoreboard: packets_out != snd_nxt - snd_una");
    inv.check(s.cca().cwnd_segments() >= 1, now, "cwnd below 1 MSS");
    inv.check(st.now >= TimeNs::zero() && st.now <= now, now,
              "timestamp: sender clock outside [0, now]");
    inv.check(st.total_sent >= st.total_retx, now,
              "counters: retransmissions exceed total transmissions");
    inv.check(st.delivered >= 0, now, "counters: negative delivered");
  }
  inv.check(db_.queue().size() <= db_.queue().capacity(), now,
            "queue: occupancy exceeds capacity");
  check_packet_ledger(now);
}

void RunContext::check_packet_ledger(TimeNs now) {
  result_.invariants.check(db_.packet_ledger().balanced(), now,
                           "packet conservation: CCA data sent != in access + "
                           "queued + in service + dropped + propagating + "
                           "arrived");
}

void RunContext::check_conservation() {
  sim::Invariants& inv = result_.invariants;
  const TimeNs end = sim_.now();
  check_packet_ledger(end);
  const net::QueueStats& qs = db_.queue().stats();
  std::int64_t dequeued = 0;
  for (std::size_t k = 0; k < net::kFlowCount; ++k) {
    inv.check(qs.enqueued[k] >= 0 && qs.dropped[k] >= 0 && qs.dequeued[k] >= 0,
              end, "queue conservation: negative per-kind counter");
    inv.check(qs.dequeued[k] <= qs.enqueued[k], end,
              "queue conservation: dequeued exceeds enqueued");
    dequeued += qs.dequeued[k];
  }
  inv.check(qs.total_enqueued() ==
                dequeued + static_cast<std::int64_t>(db_.queue().size()),
            end, "queue conservation: enqueued != dequeued + resident");
  for (const FlowResult& f : result_.flows) {
    inv.check(f.segments_delivered >= 0 && f.egress_packets >= 0 &&
                  f.sent >= 0 && f.drops >= 0 && f.rto_count >= 0,
              end, "flow conservation: negative counter");
    inv.check(f.sent >= f.retransmissions, end,
              "flow conservation: retransmissions exceed transmissions");
    inv.check(f.segments_delivered <= f.sent, end,
              "flow conservation: delivered exceeds transmissions");
    inv.check(f.egress_packets <= f.sent, end,
              "flow conservation: bottleneck egress exceeds transmissions");
  }
}

RunContext& thread_run_context() {
  thread_local RunContext ctx;
  return ctx;
}

RunResult run_scenario(const ScenarioConfig& cfg, const tcp::CcaFactory& cca,
                       std::span<const TimeNs> trace_times) {
  return thread_run_context().run(cfg, cca, trace_times);
}

}  // namespace ccfuzz::scenario
