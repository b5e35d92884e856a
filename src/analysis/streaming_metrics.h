// Streaming per-flow metrics, maintained during the run instead of derived
// from per-packet event vectors afterwards.
//
// The GA's scoring functions (fuzz/score) need only O(windows) summaries per
// flow — windowed egress bins, queue-delay aggregates, the last-progress
// timestamp, goodput inputs — yet the legacy observation path materialized
// four O(packets) event vectors per run (net::BottleneckRecorder) and
// re-scanned them per score. This sink is fed directly by the Dumbbell's
// egress stage and maintains those summaries incrementally, so
// scenario::RunResult can answer windowed_throughput / stalled / delay
// percentile queries without any packet records. It is always on (the
// per-packet cost is a few adds); ScenarioConfig::record_mode only controls
// whether the raw recorder event vectors are *also* kept.
//
// Equivalence contract: the windowed bins reproduce the legacy post-hoc
// computation (util/stats windowed_rate over per-packet egress times) bit
// for bit — each packet is binned with the same double arithmetic the old
// path applied, and the bin→Mbps conversion happens in the same operation
// order. The record-mode golden test pins this.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/time.h"

namespace ccfuzz::analysis {

/// Log-bucket queue-delay aggregate: count/sum/min/max plus a log-scale
/// histogram for percentile estimates. Identical in metrics_only and
/// full_events runs, so scores built on it cannot diverge across modes.
///
/// Bucket layout (HDR-histogram style): delays are measured in 1.024 µs
/// units (ns >> kUnitShift); the first 32 units are exact 1-unit buckets,
/// after which each octave splits into 32 sub-buckets, giving a constant
/// ~3 % relative resolution from ~1 µs to >2000 s. The predecessor was
/// linear 1 ms × 1024, which collapsed every sub-millisecond delay of a
/// high-rate scenario into bucket 0 — mid-range percentiles there were pure
/// interpolation artifacts. Log buckets keep the error proportional to the
/// value at every scale while using fewer buckets (864 vs 1024).
class DelayDigest {
 public:
  /// One histogram unit is 2^kUnitShift ns ≈ 1.024 µs — the resolution
  /// floor (queueing delays below a microsecond read as 0-1 units).
  static constexpr int kUnitShift = 10;
  /// Sub-buckets per octave: 2^5 = 32 → worst-case relative error 1/32.
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Octaves beyond the exact range; the last bucket starts at
  /// 63 × 2^25 units ≈ 2163 s. Anything longer clamps into it (max stays
  /// exact regardless).
  static constexpr int kOctaves = 26;
  static constexpr int kBuckets = kSubBuckets * (kOctaves + 1);

  /// Histogram bucket of a non-negative delay in ns.
  static int bucket_of(std::int64_t ns) {
    const std::uint64_t u = static_cast<std::uint64_t>(ns) >> kUnitShift;
    if (u < kSubBuckets) return static_cast<int>(u);  // exact 1-unit buckets
    const int msb = 63 - std::countl_zero(u);
    const int octave = msb - kSubBits + 1;
    const int mantissa =
        static_cast<int>((u >> (msb - kSubBits)) & (kSubBuckets - 1));
    const int b = (octave << kSubBits) + mantissa;
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Lower bound of bucket `b`, in units.
  static std::uint64_t bucket_lo(int b) {
    const int octave = b >> kSubBits;
    const std::uint64_t mantissa = static_cast<std::uint64_t>(b) & (kSubBuckets - 1);
    if (octave == 0) return mantissa;
    return (static_cast<std::uint64_t>(kSubBuckets) + mantissa)
           << (octave - 1);
  }

  /// Width of bucket `b`, in units.
  static std::uint64_t bucket_width(int b) {
    const int octave = b >> kSubBits;
    return octave == 0 ? 1 : 1ull << (octave - 1);
  }

  void add(DurationNs d) {
    const std::int64_t ns = d.ns() < 0 ? 0 : d.ns();
    ++count_;
    sum_ns_ += ns;
    if (count_ == 1 || ns < min_ns_) min_ns_ = ns;
    if (ns > max_ns_) max_ns_ = ns;
    ++buckets_[static_cast<std::size_t>(bucket_of(ns))];
  }

  std::int64_t count() const { return count_; }
  double mean_s() const {
    return count_ ? static_cast<double>(sum_ns_) /
                        static_cast<double>(count_) * 1e-9
                  : 0.0;
  }
  double min_s() const { return count_ ? static_cast<double>(min_ns_) * 1e-9 : 0.0; }
  double max_s() const { return count_ ? static_cast<double>(max_ns_) * 1e-9 : 0.0; }

  /// Histogram-estimated percentile in seconds, p in [0, 100]; exact at the
  /// extremes (min/max are tracked precisely). In between, the rank is
  /// located in its bucket and interpolated linearly across that bucket, so
  /// the estimate tracks the nearest-rank sample to within ~3 % of its
  /// value (one log bucket) — unlike the legacy exact percentile it does
  /// NOT interpolate linearly *between* samples, so for sparse/bimodal
  /// distributions mid-range percentiles sit near the flanking sample
  /// rather than between the two. Monotone in p; 0 for an empty digest.
  double percentile_s(double p) const;

  void clear() {
    count_ = 0;
    sum_ns_ = 0;
    min_ns_ = 0;
    max_ns_ = 0;
    buckets_.fill(0);
  }

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ns_ = 0;
  std::int64_t min_ns_ = 0;
  std::int64_t max_ns_ = 0;
  std::array<std::int32_t, kBuckets> buckets_{};
};

/// One CCA flow's streaming summary for a run.
struct FlowSeries {
  // Binning interval [start_s, end_s) and window width, in seconds — stored
  // as the exact doubles the legacy post-hoc path used, so per-packet bin
  // assignment is bit-identical.
  double start_s = 0.0;
  double end_s = 0.0;
  double window_s = 0.0;
  /// Total bottleneck egress packets of this flow (whole run).
  std::int64_t egress_packets = 0;
  /// Time of the flow's last bottleneck egress; -1 if none (stalled()).
  TimeNs last_egress = TimeNs(-1);
  /// Egress packets per window over [start_s, end_s).
  std::vector<std::int32_t> bins;
  /// Queue-delay aggregate over the flow's egress packets.
  DelayDigest delay;
};

/// The streaming sink. One per scenario::RunContext (it lives inside
/// RunResult so the warm storage *is* the result — no copy on handoff);
/// begin_run/set_flow_interval reuse capacity across runs.
class StreamingMetrics {
 public:
  /// Starts a run with `flows` CCA flows, bin width `window` and horizon
  /// `duration`. Flow slots are kept warm across runs; call
  /// set_flow_interval for every flow afterwards.
  void begin_run(std::size_t flows, DurationNs window, TimeNs duration);

  /// (Re)initializes flow `i`'s summary for this run, binning over
  /// [start, duration).
  void set_flow_interval(std::size_t i, TimeNs start);

  /// Feed from the dumbbell's egress stage. Packets that are not CCA
  /// data, or whose flow index is out of range, are ignored.
  void on_egress(const net::Packet& p, TimeNs now, DurationNs queue_delay) {
    if (p.flow != net::FlowId::kCcaData || p.flow_index >= active_) return;
    FlowSeries& f = flows_[p.flow_index];
    ++f.egress_packets;
    f.last_egress = now;
    f.delay.add(queue_delay);
    const double t = now.to_seconds();
    if (t >= f.start_s && t < f.end_s && f.window_s > 0.0) {
      const std::size_t w =
          static_cast<std::size_t>((t - f.start_s) / f.window_s);
      if (w < f.bins.size()) ++f.bins[w];
    }
  }

  std::size_t flow_count() const { return active_; }
  DurationNs window() const { return window_; }

  /// Flow `i`'s summary, or a neutral empty one when out of range.
  const FlowSeries& flow(std::size_t i) const;

  /// The flow's per-window egress throughput in Mbps — the same series the
  /// legacy events path computed, without touching per-packet data. The
  /// `_into` variant reuses caller storage (allocation-free when warm).
  void windowed_throughput_mbps_into(std::size_t i, std::int32_t packet_bytes,
                                     std::vector<double>& out) const;
  std::vector<double> windowed_throughput_mbps(std::size_t i,
                                               std::int32_t packet_bytes) const {
    std::vector<double> out;
    windowed_throughput_mbps_into(i, packet_bytes, out);
    return out;
  }

 private:
  std::vector<FlowSeries> flows_;  // slots persist; first `active_` in use
  std::size_t active_ = 0;
  DurationNs window_ = DurationNs::zero();
  double duration_s_ = 0.0;
};

}  // namespace ccfuzz::analysis
