//===- Simulator.h - IXP-style micro-engine simulator -----------*- C++ -*-===//
///
/// \file
/// A cycle-level simulator of one micro-engine in the paper's machine model
/// (§1.1/§2):
///
///  * Nthd non-preemptive threads share the CPU and (in physical mode) one
///    register file; a thread yields only at `ctx` or a memory operation.
///  * ALU/branch/move instructions complete in 1 cycle.
///  * `load`/`store` block the issuing thread for the full memory latency
///    (default 20 cycles) and yield the CPU; the scheduler runs another
///    ready thread meanwhile.
///  * Switching to a different thread costs CtxSwitchPenalty (default 1)
///    cycles — only the PC is saved, nothing else.
///  * A `load`'s destination register is written when the thread *resumes*,
///    modelling the IXP's transfer registers: while the thread is blocked
///    the destination GPR still holds its old value, so other threads may
///    safely use it if it is a shared register.
///
/// Threads count main-loop iterations via `loopend` markers; the standard
/// experiment runs every thread to a target iteration count and reports
/// cycles/iteration, mirroring the paper's per-iteration cycle counts.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SIM_SIMULATOR_H
#define NPRAL_SIM_SIMULATOR_H

#include "ir/Program.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace npral {

class CycleTrace;
class TelemetrySampler;
enum class ThreadPhase;

struct SimConfig {
  /// Cycles until a memory operation completes (paper: ~20).
  int MemLatency = 20;
  /// Extra cycles charged when the CPU switches to a different thread.
  int CtxSwitchPenalty = 1;
  /// Size of the word-addressed memory. Only the pages a run stores to are
  /// allocated (Simulator::MemPageWords); the rest read as zero.
  uint32_t MemWords = 1u << 20;
  /// Abort the run after this many cycles.
  int64_t MaxCycles = 200'000'000;
  /// Number of inter-thread signal channels (`signal`/`wait` operands must
  /// be below this).
  int NumChannels = 16;
  /// Stop once every thread has completed this many `loopend` iterations
  /// (threads keep running while others catch up). 0 = run until all halt.
  int64_t TargetIterations = 0;
  /// Halt each thread exactly at its target iteration instead of letting it
  /// keep running while other threads catch up. Timing runs want the
  /// steady-state contention of false; semantic-equivalence runs want true,
  /// so the final memory image is independent of thread interleaving.
  bool HaltAtTarget = false;
  /// Record every dispatch of a thread different from the previous one into
  /// SimResult::CtxTrace (the determinism tests compare traces run-to-run).
  bool RecordCtxTrace = false;
};

/// Execution observer interface. The simulator reports control-flow events
/// to an attached observer; `src/profile`'s ProfileCollector implements it
/// to build per-thread block execution profiles. Callbacks fire on the
/// simulator's thread, in deterministic execution order.
class SimObserver {
public:
  virtual ~SimObserver() = default;
  /// Control of thread \p Thread transferred to block \p Block (initial
  /// dispatch, branch, or fallthrough) of that thread's program.
  virtual void onBlockEntered(int Thread, int Block) = 0;
};

/// Work-source interface for multi-engine grids (src/grid). When a port is
/// attached, every main-loop iteration consumes one work token: at each
/// `loopend` the simulator reports the completed iteration and asks for the
/// next token. A thread with no token available blocks — those cycles land
/// in the ThreadStats::InterconnectStallCycles bucket — until the port
/// owner wakes it with Simulator::grantWork(). Without a port (the default,
/// and any single-engine run) none of this is consulted and behaviour is
/// bit-identical to the pre-grid simulator.
class GridPort {
public:
  virtual ~GridPort() = default;
  /// Thread \p Thread finished a main-loop iteration at \p Cycle (its
  /// `loopend` retired). Typically sends a completion message upstream.
  /// Returns the cycle by which the port's owner must get control back to
  /// act on what was sent: the running advanceUntil() lowers its stop to
  /// it (a later cycle leaves the stop as it is).
  virtual int64_t onIterationComplete(int Thread, int64_t Cycle) = 0;
  /// Consume a work token for thread \p Thread's next iteration. Returning
  /// false blocks the thread on the interconnect; the owner must later call
  /// Simulator::grantWork(Thread, cycle) when a token arrives.
  virtual bool tryAcquireWork(int Thread, int64_t Cycle) = 0;
};

/// One recorded context switch: at \p Cycle the CPU started running
/// \p Thread (after any switch penalty was charged).
struct CtxSwitchEvent {
  int64_t Cycle = 0;
  int Thread = -1;

  bool operator==(const CtxSwitchEvent &O) const {
    return Cycle == O.Cycle && Thread == O.Thread;
  }
};

struct ThreadStats {
  int64_t Iterations = 0;
  /// Cycle at which the target iteration count was reached (-1 if never).
  int64_t CyclesAtTarget = -1;
  int64_t InstrsExecuted = 0;
  /// Times this thread yielded the CPU (ctx + memory ops).
  int64_t CtxEvents = 0;
  int64_t MemOps = 0;
  /// Absolute-address memory ops (`loada`/`storea`) executed — the spill
  /// traffic a degraded (spill-fallback) allocation adds. Subset of MemOps;
  /// 0 for programs with no absolute accesses.
  int64_t AbsMemOps = 0;
  bool Halted = false;

  /// Cycle breakdown: every simulated cycle lands in exactly one bucket per
  /// thread, so for a completed run the seven buckets sum to
  /// SimResult::TotalCycles (asserted by the simulator). A cycle is
  /// classified by the thread's state at that cycle:
  ///  * RunCycles          — this thread was executing on the CPU;
  ///  * SwitchPenaltyCycles— the CPU charged the context-switch penalty to
  ///                         dispatch this thread;
  ///  * MemStallCycles     — blocked waiting for a memory operation
  ///                         (latency not yet elapsed);
  ///  * ChannelWaitCycles  — blocked on a `wait` for a signal channel;
  ///  * InterconnectStallCycles — blocked at a `loopend` waiting for a work
  ///                         token from the engine grid's interconnect
  ///                         (always 0 without an attached GridPort, in
  ///                         particular for every single-engine run);
  ///  * ReadyWaitCycles    — runnable, but another thread held the CPU
  ///                         (the paper's switch-wait component);
  ///  * HaltedCycles       — already halted while others kept running.
  ///
  /// The simulator charges a thread when its own state changes, not at
  /// every clock advance. Off the CPU, a thread's bucket depends only on
  /// its Halted, GridBlocked and WaitingChannel flags and its ReadyAt
  /// cycle, and only its own dispatch or a grantWork() for it changes
  /// them. So the simulator settles a thread at those two points and at
  /// the run's end: the span [S, now) since its last settle goes to one
  /// bucket or, for a thread that is neither halted nor blocked on the
  /// grid or a channel, splits at its ReadyAt: MemStall gets
  /// min(now, max(ReadyAt, S)) - S and ReadyWait the rest. Cutting the
  /// span at every clock advance in between and classifying each piece
  /// gives the same totals, because every piece splits at the same cycle.
  int64_t RunCycles = 0;
  int64_t SwitchPenaltyCycles = 0;
  int64_t MemStallCycles = 0;
  int64_t ChannelWaitCycles = 0;
  int64_t InterconnectStallCycles = 0;
  int64_t ReadyWaitCycles = 0;
  int64_t HaltedCycles = 0;

  /// Sum of the seven cycle buckets; equals the run's TotalCycles once the
  /// run completed.
  int64_t accountedCycles() const {
    return RunCycles + SwitchPenaltyCycles + MemStallCycles +
           ChannelWaitCycles + InterconnectStallCycles + ReadyWaitCycles +
           HaltedCycles;
  }

  /// Average cycles per main-loop iteration up to the target.
  double cyclesPerIteration(int64_t Target) const {
    if (Target <= 0 || CyclesAtTarget < 0)
      return 0.0;
    return static_cast<double>(CyclesAtTarget) / static_cast<double>(Target);
  }
};

struct SimResult {
  bool Completed = false;
  std::string FailReason;
  int64_t TotalCycles = 0;
  /// Cycles during which no thread was runnable (all blocked on memory).
  int64_t IdleCycles = 0;
  std::vector<ThreadStats> Threads;
  /// Context-switch trace, including the first dispatch; only filled when
  /// SimConfig::RecordCtxTrace is set.
  std::vector<CtxSwitchEvent> CtxTrace;

  double cpuUtilisation() const {
    return TotalCycles > 0
               ? 1.0 - static_cast<double>(IdleCycles) / TotalCycles
               : 0.0;
  }
};

class Simulator {
public:
  /// \p MTP's threads must verify. Physical threads share one register
  /// file; virtual threads each get a private file (reference mode).
  Simulator(const MultiThreadProgram &MTP, SimConfig Config);

  /// Provide initial values for thread \p T's entry-live registers, aligned
  /// with its Program::EntryLiveRegs.
  void setEntryValues(int T, const std::vector<uint32_t> &Values);

  /// Bulk-initialise memory starting at word address \p Base.
  void writeMemory(uint32_t Base, const std::vector<uint32_t> &Words);

  /// Attach \p O to receive execution events (null detaches). The observer
  /// must outlive every subsequent run().
  void setObserver(SimObserver *O) { Observer = O; }

  /// Attach \p P as the work source consulted at every `loopend` (null
  /// detaches; the default). The port must outlive every subsequent run.
  void setGridPort(GridPort *P) { Port = P; }

  /// Attach a cycle-domain trace (trace/CycleTrace.h): every cycle span
  /// charged to a thread's bucket is mirrored as a thread-state slice on
  /// process track \p Pid (tid = thread index), so per-thread slice
  /// durations sum to the seven cycle buckets by construction. Null
  /// detaches; the default. Disabled cost is one branch per charged span
  /// (bounded by bench/trace_overhead).
  void setCycleTrace(CycleTrace *T, int64_t Pid) {
    Trace = T;
    TracePid = Pid;
  }

  /// Attach a telemetry sampler driven from the scheduler loop: when a
  /// sample comes due it records occupancy (non-halted threads) and
  /// ready-queue depth as `<Prefix>occupancy` / `<Prefix>ready` on the
  /// cycle-trace pid. Null detaches. Multi-engine grids sample at their
  /// lanes' sample boundaries instead and leave this unset.
  void setSampler(TelemetrySampler *S, std::string Prefix) {
    Sampler = S;
    SamplePrefix = std::move(Prefix);
  }

  /// Threads that have not halted.
  int liveThreadCount() const;
  /// Threads that could be dispatched right now: not halted, not blocked on
  /// the grid port or an empty channel, memory latency elapsed.
  int readyThreadCount() const;

  /// Run to the end. A simulator with a grid port attached is driven
  /// through the incremental interface below instead: its port may stop an
  /// advance early.
  SimResult run();

  //===--- Incremental interface (engine grids) ---------------------------===//
  //
  // run() is exactly beginRun() + advanceUntil(forever) + takeResult(); the
  // split exists so src/grid can stop an engine at delivery boundaries and
  // hand it interconnect messages in between. Stopping changes nothing by
  // itself: advanceUntil(a) then advanceUntil(b) equals advanceUntil(b)
  // when nothing is delivered at a.

  /// Reset per-run state (clock, result accumulators) and arm the run.
  void beginRun();
  /// Advance the run until every thread is done, a simulation error occurs,
  /// or the clock reaches the stop: \p StopAt, lowered by the grid port
  /// whenever a completed iteration asks for an earlier one. The clock may
  /// pass the stop inside the step that crossed it; an idle CPU never jumps
  /// past it. Returns true while the run is still in progress (clock hit
  /// the stop), false once it ended either way.
  bool advanceUntil(int64_t StopAt);
  /// The stop of the last advanceUntil(): its StopAt, or the earlier cycle
  /// the grid port lowered it to.
  int64_t stopCycle() const { return RunStop; }
  /// Wake thread \p T, blocked on the grid port, with a work token that
  /// arrived at \p Cycle. Only legal between advanceUntil() calls.
  void grantWork(int T, int64_t Cycle);
  /// True once the run ended (completed or failed).
  bool runEnded() const { return Ended; }
  /// True once thread \p T halted (grids bounce work for halted threads
  /// back to the ingress as credits).
  bool threadHalted(int T) const {
    return Threads[static_cast<size_t>(T)].Halted;
  }
  /// Current simulation clock of an in-progress run.
  int64_t currentCycle() const { return RunClock; }
  /// Finalise and return the run's result. Call after advanceUntil()
  /// returned false.
  SimResult takeResult();

  /// Words per memory page: the unit in which engine memory is allocated.
  static constexpr uint32_t MemPageWords = 1024;

  uint32_t readMemoryWord(uint32_t Address) const;
  /// FNV-1a hash of [Base, Base+Len) — used for output equivalence checks.
  uint64_t hashMemoryRange(uint32_t Base, uint32_t Len) const;
  /// Memory pages allocated so far: those holding a stored or
  /// writeMemory() word. Reads never allocate.
  int memoryPages() const;

private:
  struct ThreadState {
    const Program *Prog = nullptr;
    int Block = 0;
    int Index = 0;
    /// Cycle at which the thread becomes runnable again.
    int64_t ReadyAt = 0;
    /// Channel this thread is blocked on (-1 when not waiting).
    int WaitingChannel = -1;
    /// Blocked at a `loopend` until the grid port delivers a work token.
    bool GridBlocked = false;
    bool Halted = false;
    /// Entry-block dispatch already reported to the observer.
    bool EntryReported = false;
    /// Pending transfer-register write applied on resume.
    bool HasPendingWrite = false;
    Reg PendingReg = NoReg;
    uint32_t PendingValue = 0;
    /// Register file: shared (all threads alias one) or private.
    std::vector<uint32_t> *Regs = nullptr;
    /// The cycle up to which this thread's buckets are charged.
    int64_t Settled = 0;
  };

  const MultiThreadProgram &MTP;
  SimConfig Config;
  /// Memory as a directory of MemPageWords-word pages, one entry per page
  /// of [0, MemWords). A page is allocated, zeroed, on its first store; a
  /// null entry reads as zero.
  std::vector<std::unique_ptr<uint32_t[]>> MemPages;
  std::vector<uint32_t> SharedRegs;
  std::vector<std::vector<uint32_t>> PrivateRegs;
  std::vector<ThreadState> Threads;
  std::vector<ThreadStats> Stats;
  std::vector<int64_t> Channels;
  bool UseSharedFile = false;
  SimObserver *Observer = nullptr;
  GridPort *Port = nullptr;
  CycleTrace *Trace = nullptr;
  int64_t TracePid = 1;
  TelemetrySampler *Sampler = nullptr;
  std::string SamplePrefix = "sim.";

  //===--- Per-run state (between beginRun and takeResult) ----------------===//
  SimResult RunResult;
  int64_t RunClock = 0;
  /// The running advanceUntil()'s stop (see stopCycle()).
  int64_t RunStop = std::numeric_limits<int64_t>::max();
  int RunLastThread = -1;
  /// Threads that halted or reached the target iteration count.
  int RunFinished = 0;
  bool Active = false;
  bool Ended = false;

  /// The word at \p Address (< MemWords); zero on an absent page.
  uint32_t loadWord(uint32_t Address) const {
    const std::unique_ptr<uint32_t[]> &Page = MemPages[Address / MemPageWords];
    return Page ? Page[Address % MemPageWords] : 0;
  }
  /// The word at \p Address (< MemWords), allocating its page if absent.
  uint32_t &storeWord(uint32_t Address);

  /// Run thread \p T from \p Clock until it yields/halts; returns false on
  /// a simulation error (\p Error set).
  bool step(int T, int64_t &Clock, std::string &Error);

  /// Charge [\p C0, \p C1) to thread \p T's bucket for phase \p P and
  /// mirror it to the cycle trace: the one path into the buckets.
  void charge(int T, ThreadPhase P, int64_t C0, int64_t C1);
  /// Charge thread \p T, off the CPU, from its Settled cycle to RunClock
  /// by its current state (see ThreadStats). Call before that state
  /// changes.
  void settle(int T);
  /// A finished thread no longer keeps the run going: it halted or
  /// reached the target iteration count.
  bool finished(const ThreadStats &S) const {
    return S.Halted || (Config.TargetIterations > 0 && S.CyclesAtTarget >= 0);
  }
  /// Terminate the run with \p Reason (Completed stays false).
  void failRun(const std::string &Reason);
  /// Terminate the run successfully: asserts the breakdown invariant and
  /// publishes the sim.thread<T>.* metrics.
  void completeRun();
  /// Settle every thread at the final clock and publish the result.
  void endRun();
};

} // namespace npral

#endif // NPRAL_SIM_SIMULATOR_H
