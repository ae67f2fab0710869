//===- Interconnect.h - Typed message fabric between engines ----*- C++ -*-===//
///
/// \file
/// The modeled interconnect of the engine grid (docs/grid.md). Engines and
/// the ingress node sit on a chain: node 0 is the ingress (packet source /
/// credit sink), engine E occupies node E+1. A message from node S to node
/// D travels |S - D| hops at a fixed per-hop latency, so its arrival cycle
/// is SendCycle + HopLatency * hops — cross-engine traffic therefore costs
/// real simulated cycles, which the simulator books as InterconnectStall
/// when a thread has to wait for them.
///
/// Three message types implement a credit-based work protocol:
///
///  * WorkDispatch — ingress -> engine: one work item (packet) for a
///    specific (engine, thread); arrival adds one credit, waking the
///    thread if it blocked at its `loopend`.
///  * Completion   — engine -> ingress: a thread retired one main-loop
///    iteration; the ingress answers with the next WorkDispatch.
///  * Credit       — engine -> ingress: backpressure return of a work item
///    delivered to a thread that has already halted (the token is recycled
///    instead of being lost).
///
/// Delivery is deterministic: messages are ordered by (ArriveCycle,
/// sequence number). An EngineGrid gives every engine its own Interconnect
/// to the ingress (its lane) and delivers only at boundaries the engine has
/// reached.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_GRID_INTERCONNECT_H
#define NPRAL_GRID_INTERCONNECT_H

#include <cstdint>
#include <vector>

namespace npral {

class CycleTrace;

enum class MsgType { WorkDispatch, Completion, Credit };

const char *msgTypeName(MsgType T);

struct Message {
  MsgType Type = MsgType::WorkDispatch;
  /// Chain nodes: 0 = ingress, engine E = node E + 1.
  int SrcNode = 0;
  int DstNode = 0;
  /// The (engine, thread) the message concerns — the destination of a
  /// WorkDispatch, the source of a Completion/Credit.
  int Engine = 0;
  int Thread = 0;
  int64_t SendCycle = 0;
  int64_t ArriveCycle = 0;
  /// Send order on this fabric; ties on ArriveCycle deliver in send order.
  uint64_t Seq = 0;
};

class Interconnect {
public:
  /// \p HopLatency must be >= 1: a message never arrives at the cycle it
  /// was sent, so delivering at boundaries never goes back in time.
  explicit Interconnect(int HopLatency);

  int hopLatency() const { return HopLatency; }

  /// Cycles from node \p Src to node \p Dst.
  int64_t latency(int Src, int Dst) const {
    int Hops = Src < Dst ? Dst - Src : Src - Dst;
    return static_cast<int64_t>(HopLatency) * Hops;
  }

  /// Mirror fabric traffic into a cycle-domain trace (null detaches):
  /// every message becomes an 'X' slice on the fabric track (pid 0, tid =
  /// engine lane) spanning its modeled latency, and each WorkDispatch
  /// additionally opens a flow ('s' at the send, 'f' at the delivery on
  /// the destination thread's track, id = the message sequence number;
  /// a grid renumbers them when it merges its lanes' traces), so
  /// dispatch -> delivery renders as arrows in Perfetto.
  void setCycleTrace(CycleTrace *T) { Trace = T; }

  /// Inject a message at \p Cycle; the arrival cycle is stamped from the
  /// node distance.
  void send(MsgType Type, int SrcNode, int DstNode, int Engine, int Thread,
            int64_t Cycle);

  /// Remove and return every message with ArriveCycle <= \p Now, ordered by
  /// (ArriveCycle, Seq).
  std::vector<Message> deliverUpTo(int64_t Now);

  /// Earliest pending arrival cycle, or -1 when the fabric is empty.
  int64_t nextArrival() const;

  int64_t messagesSent() const { return Sent; }
  int64_t messagesDelivered() const { return Delivered; }
  /// Messages currently in the fabric (sent, not yet delivered) — the
  /// telemetry sampler's outstanding-message gauge.
  int64_t inFlightCount() const { return static_cast<int64_t>(InFlight.size()); }

private:
  int HopLatency;
  std::vector<Message> InFlight;
  uint64_t NextSeq = 0;
  int64_t Sent = 0;
  int64_t Delivered = 0;
  CycleTrace *Trace = nullptr;
};

} // namespace npral

#endif // NPRAL_GRID_INTERCONNECT_H
