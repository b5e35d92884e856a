#include "scenario/crafted.h"

#include <algorithm>

namespace ccfuzz::scenario::crafted {
namespace {

/// Inserts a kill burst targeted at a packet arriving shortly after `at`:
/// an instantaneous queue-filling burst 1 ms early (fills the gateway
/// regardless of current occupancy; the excess is dropped as cross-traffic
/// loss) followed by a 2 packets/ms trickle that out-paces the 1 packet/ms
/// drain, pinning the queue full across the target's arrival window.
void add_burst(std::vector<TimeNs>& trace, TimeNs at, int n) {
  std::vector<TimeNs> burst;
  const TimeNs start = at - DurationNs::millis(1);
  // Instant fill: `n` packets fill the gateway outright no matter how full
  // it already is (the surplus is dropped as cross-traffic loss).
  burst.insert(burst.end(), static_cast<std::size_t>(n), start);
  // Pinning trickle: 10 packets/ms for 5 ms re-takes every slot the
  // 1 packet/ms drain opens, within 0.1 ms — faster than any service
  // boundary the target's arrival could ride in on (equal-time injections
  // also win the event-queue tie against delivery events).
  for (int i = 1; i <= 50; ++i) {
    burst.push_back(start + DurationNs::micros(100) * i);
  }
  std::vector<TimeNs> merged;
  merged.reserve(trace.size() + burst.size());
  std::merge(trace.begin(), trace.end(), burst.begin(), burst.end(),
             std::back_inserter(merged));
  trace = std::move(merged);
}

/// First transmission (original or retransmission) of `seq` at or after
/// `after`, from the detailed event log. Returns TimeNs(-1) if none.
TimeNs next_transmission_of(const tcp::TcpEventLog& log, std::int64_t seq,
                            TimeNs after) {
  for (const auto& ev : log.events()) {
    if (ev.seq != seq) continue;
    if (ev.type != tcp::TcpEventType::kSend &&
        ev.type != tcp::TcpEventType::kRetransmit) {
      continue;
    }
    if (ev.time >= after) return ev.time;
  }
  return TimeNs(-1);
}

}  // namespace

CraftResult craft_retransmission_killer(const ScenarioConfig& cfg,
                                        const tcp::CcaFactory& cca,
                                        const KillerConfig& kcfg) {
  ScenarioConfig run_cfg = cfg;
  run_cfg.mode = FuzzMode::kTraffic;
  run_cfg.log_tcp_events = true;  // the crafter reads transmission times
  // Crafted findings feed figures and diagnostics that read raw events.
  run_cfg.record_mode = RecordMode::kFullEvents;

  CraftResult result;
  add_burst(result.trace, kcfg.first_burst, kcfg.burst_packets);
  result.bursts = 1;

  // The burst fills the gateway, so the first CCA packet arriving right
  // after it is the head of the hole. Identify it from the first run.
  scenario::RunResult run = run_scenario(run_cfg, cca, result.trace);
  result.pinned_seq = -1;
  for (const auto& ev : run.primary().tcp_log.events()) {
    if (ev.type == tcp::TcpEventType::kMarkLost && ev.time > kcfg.first_burst) {
      result.pinned_seq = ev.seq;
      break;
    }
  }
  if (result.pinned_seq < 0) {
    // The burst did not induce a loss (e.g. tiny windows); nothing to pin.
    result.final_run = std::move(run);
    return result;
  }

  // Iteratively kill every subsequent (re)transmission of the pinned head.
  TimeNs last_burst = kcfg.first_burst;
  while (result.bursts < kcfg.max_bursts) {
    const TimeNs retx = next_transmission_of(
        run.primary().tcp_log, result.pinned_seq,
        last_burst + kcfg.burst_lead + DurationNs::millis(2));
    if (retx < TimeNs::zero()) break;  // head never retransmitted again
    if (retx >= run_cfg.duration) break;
    // Saturate the gateway across the retransmission's arrival. The flood
    // starts within burst_lead of the send instant, which is below the
    // feedback delay (one round trip), so the retransmission time observed
    // in the previous run is unchanged by the new flood.
    add_burst(result.trace, retx - kcfg.burst_lead + DurationNs::millis(1),
              kcfg.burst_packets);
    ++result.bursts;
    last_burst = retx;
    run = run_scenario(run_cfg, cca, result.trace);
    if (run.stalled(kcfg.dead_tail)) break;  // flow already dead
  }

  result.final_run = std::move(run);
  return result;
}

std::vector<TimeNs> shrew_trace(TimeNs first_burst, DurationNs period,
                                int burst_packets, TimeNs until) {
  std::vector<TimeNs> trace;
  for (TimeNs t = first_burst; t < until; t += period) {
    trace.insert(trace.end(), static_cast<std::size_t>(burst_packets), t);
  }
  return trace;
}

std::vector<TimeNs> standing_queue_trace(TimeNs start,
                                         std::size_t queue_capacity,
                                         DurationNs refill_period,
                                         int refill_packets, TimeNs until) {
  std::vector<TimeNs> trace;
  // Fill the queue just before the flow starts: the SYN-time RTT already
  // includes one full queue of delay.
  const TimeNs fill_at =
      start > TimeNs::millis(1) ? start - DurationNs::millis(1) : TimeNs::zero();
  trace.insert(trace.end(), queue_capacity, fill_at);
  for (TimeNs t = fill_at + refill_period; t < until; t += refill_period) {
    trace.insert(trace.end(), static_cast<std::size_t>(refill_packets), t);
  }
  return trace;
}

}  // namespace ccfuzz::scenario::crafted
