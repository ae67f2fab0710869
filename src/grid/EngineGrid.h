//===- EngineGrid.h - Multi-micro-engine grid, one lane each ---*- C++ -*-===//
///
/// \file
/// Scale-out of the single-micro-engine model: an EngineGrid runs 2-16
/// MicroEngines, each exchanging typed messages with the ingress over a
/// modeled Interconnect (mgsim's Processor grid + Network is the design
/// exemplar). Each MicroEngine owns one complete Simulator — its own GPR
/// file, memory image, thread set and SimResult — and implements the
/// simulator's GridPort: every main-loop iteration consumes one work
/// credit, completions flow to the ingress node, and the ingress answers
/// each completion with the next work dispatch. A thread that outruns its
/// credit window blocks at its `loopend` and the wait is booked in the
/// InterconnectStall cycle bucket.
///
/// Independent lanes: the ingress answers a completion from (E, T) with a
/// dispatch to the same (E, T) and keeps no other state, so engine E's
/// inbound traffic depends only on its own outbound traffic. Every engine
/// therefore gets a lane — its own Interconnect to the ingress, at the same
/// chain distance — and the lanes run as independent tasks on a run-local
/// ThreadPool. Delivery happens at multiples of the hop latency (the
/// boundaries), ordered by (ArriveCycle, Seq). A lane stops only where
/// something is due: the first boundary at or after its earliest in-flight
/// arrival, the next sample boundary, and the boundary at which the ingress
/// takes a completion the engine just sent (the engine's port pulls the
/// running advance's stop there). Since advanceUntil(a) then
/// advanceUntil(b) equals advanceUntil(b) when nothing is delivered at a,
/// every engine's run is exactly the one a global per-boundary lockstep
/// would give (docs/grid.md).
///
/// A single-engine grid attaches no GridPort at all: the engine's run is
/// the plain Simulator::run() sequence and its result is cycle-identical
/// to the non-grid path.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_GRID_ENGINEGRID_H
#define NPRAL_GRID_ENGINEGRID_H

#include "grid/Interconnect.h"
#include "sim/Simulator.h"

#include <memory>
#include <string>
#include <vector>

namespace npral {

class CycleTrace;
class TelemetrySampler;

/// One micro-engine of the grid: wraps a Simulator over its own program,
/// register file and memory, plus the per-thread credit state of the work
/// protocol. Owns the MultiThreadProgram so the Simulator's reference stays
/// valid for the engine's lifetime.
class MicroEngine : public GridPort {
public:
  MicroEngine(int Id, MultiThreadProgram Program, const SimConfig &Config,
              int InitialCredits);
  MicroEngine(const MicroEngine &) = delete;
  MicroEngine &operator=(const MicroEngine &) = delete;

  int id() const { return Id; }
  int numThreads() const { return static_cast<int>(Credits.size()); }
  Simulator &sim() { return Sim; }
  const Simulator &sim() const { return Sim; }

  /// Join the fabric as chain node \p NodeId (ingress = \p IngressNode) and
  /// start consuming work credits. Must be called before the run begins;
  /// never called for a single-engine grid.
  void attach(Interconnect *Fabric, int IngressNode, int NodeId);

  /// A WorkDispatch for \p Thread arrived at \p ArriveCycle: wake the
  /// thread if it blocked on the interconnect, bank a credit otherwise. A
  /// dispatch for an already-halted thread bounces back to the ingress as a
  /// Credit message.
  void deliverWork(int Thread, int64_t ArriveCycle);

  // GridPort: called by the owned Simulator during advanceUntil(). A
  // completion pulls the stop to the boundary at which the ingress takes it.
  int64_t onIterationComplete(int Thread, int64_t Cycle) override;
  bool tryAcquireWork(int Thread, int64_t Cycle) override;

  /// Work tokens currently banked across all threads — the telemetry
  /// sampler's per-engine credit gauge.
  int64_t creditsInHand() const;

private:
  int Id;
  MultiThreadProgram MTP;
  Simulator Sim;
  Interconnect *Fabric = nullptr;
  int IngressNode = 0;
  int NodeId = -1;
  /// Work tokens in hand per thread; `loopend` consumes one.
  std::vector<int> Credits;
  /// Threads blocked at a `loopend` with no token (mirrors the simulator's
  /// GridBlocked state so deliverWork knows whether to wake or to bank).
  std::vector<char> Blocked;
};

/// Aggregate outcome of one grid run.
struct GridRunResult {
  /// True when every engine's run completed (no failure anywhere).
  bool Completed = false;
  /// First failing engine's reason, prefixed with its id.
  std::string FailReason;
  /// Per-engine simulation results, indexed by engine id.
  std::vector<SimResult> Engines;
  /// Max over engines of TotalCycles — the grid's wall-clock.
  int64_t MaxEngineCycles = 0;
  int64_t MessagesSent = 0;
  int64_t MessagesDelivered = 0;
  /// Work tokens bounced back to the ingress by halted threads.
  int64_t CreditsReturned = 0;

  /// Per-engine fabric traffic, indexed by engine id (empty for a
  /// single-engine grid, which has no fabric). Also published as the
  /// grid.engine<E>.* metrics.
  struct EngineTraffic {
    /// Messages the engine sent to the ingress (completions + credits).
    int64_t MessagesSent = 0;
    /// WorkDispatches delivered to the engine.
    int64_t MessagesReceived = 0;
    /// Credits this engine bounced back off halted threads.
    int64_t CreditsReturned = 0;
  };
  std::vector<EngineTraffic> Traffic;
};

/// Runs N engines, each on its own lane to the ingress. Engines are added
/// fully configured (program, SimConfig, initial credits); memory and entry
/// values are seeded through engine.sim() before run().
class EngineGrid {
public:
  /// \p HopLatency is both the per-hop message latency and the spacing of
  /// the delivery boundaries; \p InitialCredits is each thread's work
  /// window.
  EngineGrid(int HopLatency, int InitialCredits);

  MicroEngine &addEngine(MultiThreadProgram Program, const SimConfig &Config);

  int numEngines() const { return static_cast<int>(Engines.size()); }
  MicroEngine &engine(int Id) { return *Engines[static_cast<size_t>(Id)]; }

  /// Attach cycle-domain telemetry for the next run(). \p Trace receives
  /// every engine's thread-state slices (engine E on pid E + 1; run() wires
  /// each engine's simulator itself) plus the fabric's message slices and
  /// dispatch->delivery flow events. \p Sampler (optional) is driven once
  /// per sample boundary — the first delivery boundary at or after each
  /// due cycle — with per-engine occupancy / ready depth / credits plus the
  /// fabric's in-flight message count. Either may be null. For a
  /// single-engine grid (no fabric, no boundaries) the sampler is delegated
  /// to the engine's own scheduler loop under the same grid.engine0.*
  /// counter names.
  void setTelemetry(CycleTrace *Trace, TelemetrySampler *Sampler);

  /// Run every engine to completion. Single engine: plain simulator run, no
  /// fabric. Multiple engines: one lane per engine, run in parallel; each
  /// lane records into its own trace and sample rows, merged after the
  /// join (traces appended in engine order with flow ids renumbered, sample
  /// rows replayed through the sampler in boundary order).
  GridRunResult run();

private:
  int HopLatency;
  int InitialCredits;
  std::vector<std::unique_ptr<MicroEngine>> Engines;
  CycleTrace *Trace = nullptr;
  TelemetrySampler *Sampler = nullptr;
};

} // namespace npral

#endif // NPRAL_GRID_ENGINEGRID_H
