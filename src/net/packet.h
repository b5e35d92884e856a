// Packet representation shared by the network and TCP layers.
//
// Sequence numbers are segment-granularity (1 seq == 1 MSS-sized segment),
// matching the paper's packet-count trace model. The TCP header carries a
// unique per-transmission id so retransmissions of the same segment are
// distinguishable end-to-end (needed to reproduce the BBR spurious-
// retransmission interaction, §4.1).
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "util/time.h"

namespace ccfuzz::net {

/// Identifies which *kind* of source a packet belongs to on the shared
/// bottleneck. Multi-flow scenarios additionally carry a per-flow index
/// (Packet::flow_index) distinguishing the competing CCA flows.
enum class FlowId : std::uint8_t {
  kCcaData = 0,      ///< data segments of a CCA flow under test
  kCrossTraffic = 1, ///< fuzzer-injected cross traffic
  kAck = 2,          ///< reverse-path acknowledgements
};

/// Number of distinct FlowId values (for per-kind stat arrays).
inline constexpr std::size_t kFlowCount = 3;

/// Index type for real flows sharing the bottleneck. CCA flows are numbered
/// 0..N-1 in ScenarioConfig::flows order; the cross-traffic aggregate is
/// assigned index N by the scenario wiring.
using FlowIndex = std::uint16_t;

/// Half-open SACK block [start, end) in segment sequence numbers.
struct SackBlock {
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool empty() const { return end <= start; }
  bool operator==(const SackBlock&) const = default;
};

/// Transport header carried by data segments and ACKs.
struct TcpHeader {
  std::int64_t seq = -1;    ///< data: segment sequence number; -1 if n/a
  std::int64_t tx_id = -1;  ///< data: unique transmission instance id
  std::int64_t ack = -1;    ///< ack: next expected segment seq; -1 if n/a
  std::int64_t acked_tx_id = -1;  ///< ack: tx_id of the segment that triggered it
  /// ack: advertised receive window in segments from `ack` (flow control);
  /// -1 means "not carried" (treated as unlimited).
  std::int64_t wnd = -1;
  std::array<SackBlock, 4> sacks{};  ///< ack: SACK blocks (most recent first)
  int n_sacks = 0;
};

/// A simulated packet. Value type; moved through queues and links.
struct Packet {
  std::uint64_t id = 0;          ///< unique per simulation
  FlowId flow = FlowId::kCcaData;
  FlowIndex flow_index = 0;      ///< which real flow (see FlowIndex)
  std::int32_t size_bytes = 1500;
  TimeNs created_at;             ///< when the source emitted it
  TimeNs enqueued_at;            ///< arrival time at the bottleneck queue
  TcpHeader tcp;
};

/// Default frame size used throughout (1500 B ⇒ 1 ms at 12 Mbps).
inline constexpr std::int32_t kDefaultPacketBytes = 1500;

/// A stage of the packet path: a pipe, an endpoint, or one of the dumbbell's
/// gateway, egress and delivery stages. Every component takes the sink
/// downstream of it by reference in its constructor, so a topology is wired
/// once, when it is built, and the sink must outlive the component.
class PacketSink {
 public:
  virtual void receive(Packet&& p) = 0;

 protected:
  ~PacketSink() = default;  // sinks are never owned through this interface
};

/// Adapts a member function to PacketSink, for an owner with several input
/// stages (scenario::Dumbbell).
template <class Owner, void (Owner::*Stage)(Packet&&)>
class PortSink final : public PacketSink {
 public:
  explicit PortSink(Owner& owner) : owner_(owner) {}
  void receive(Packet&& p) override { (owner_.*Stage)(std::move(p)); }

 private:
  Owner& owner_;
};

}  // namespace ccfuzz::net
