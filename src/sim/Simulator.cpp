//===- Simulator.cpp ------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/StringUtils.h"
#include "trace/CycleTrace.h"
#include "trace/MetricsRegistry.h"
#include "trace/Telemetry.h"
#include "trace/TraceEngine.h"

#include <algorithm>
#include <cassert>

using namespace npral;

Simulator::Simulator(const MultiThreadProgram &MTP, SimConfig Config)
    : MTP(MTP), Config(Config) {
  MemPages.resize((static_cast<size_t>(Config.MemWords) + MemPageWords - 1) /
                  MemPageWords);
  Channels.assign(static_cast<size_t>(Config.NumChannels), 0);
  const int Nthd = MTP.getNumThreads();
  Stats.assign(static_cast<size_t>(Nthd), ThreadStats());
  Threads.assign(static_cast<size_t>(Nthd), ThreadState());

  UseSharedFile = true;
  for (const Program &P : MTP.Threads)
    if (!P.IsPhysical)
      UseSharedFile = false;

  if (UseSharedFile) {
    int FileSize = 0;
    for (const Program &P : MTP.Threads)
      FileSize = std::max(FileSize, P.NumRegs);
    SharedRegs.assign(static_cast<size_t>(FileSize), 0);
  } else {
    PrivateRegs.resize(static_cast<size_t>(Nthd));
    for (int T = 0; T < Nthd; ++T)
      PrivateRegs[static_cast<size_t>(T)].assign(
          static_cast<size_t>(MTP.Threads[static_cast<size_t>(T)].NumRegs), 0);
  }

  for (int T = 0; T < Nthd; ++T) {
    ThreadState &TS = Threads[static_cast<size_t>(T)];
    TS.Prog = &MTP.Threads[static_cast<size_t>(T)];
    TS.Block = TS.Prog->getEntryBlock();
    TS.Index = 0;
    TS.Regs = UseSharedFile ? &SharedRegs : &PrivateRegs[static_cast<size_t>(T)];
  }
}

void Simulator::setEntryValues(int T, const std::vector<uint32_t> &Values) {
  ThreadState &TS = Threads[static_cast<size_t>(T)];
  const std::vector<Reg> &EntryRegs = TS.Prog->EntryLiveRegs;
  assert(Values.size() == EntryRegs.size() &&
         "entry value count does not match EntryLiveRegs");
  for (size_t I = 0; I < Values.size(); ++I)
    (*TS.Regs)[static_cast<size_t>(EntryRegs[I])] = Values[I];
}

void Simulator::writeMemory(uint32_t Base, const std::vector<uint32_t> &Words) {
  assert(static_cast<size_t>(Base) + Words.size() <= Config.MemWords &&
         "memory initialisation out of range");
  for (size_t I = 0; I < Words.size(); ++I)
    storeWord(Base + static_cast<uint32_t>(I)) = Words[I];
}

uint32_t Simulator::readMemoryWord(uint32_t Address) const {
  assert(Address < Config.MemWords && "memory read out of range");
  return loadWord(Address);
}

uint64_t Simulator::hashMemoryRange(uint32_t Base, uint32_t Len) const {
  assert(static_cast<size_t>(Base) + Len <= Config.MemWords && "range oob");
  // fnv1aHash of the words' bytes, least significant first, walked a
  // buffer at a time.
  uint64_t Hash = fnv1aHash({});
  char Bytes[256];
  size_t N = 0;
  for (uint32_t I = 0; I < Len; ++I) {
    uint32_t W = loadWord(Base + I);
    for (int Byte = 0; Byte < 4; ++Byte)
      Bytes[N++] = static_cast<char>((W >> (8 * Byte)) & 0xFF);
    if (N == sizeof(Bytes)) {
      Hash = fnv1aAppend(Hash, std::string_view(Bytes, N));
      N = 0;
    }
  }
  return fnv1aAppend(Hash, std::string_view(Bytes, N));
}

int Simulator::memoryPages() const {
  return static_cast<int>(std::count_if(
      MemPages.begin(), MemPages.end(),
      [](const std::unique_ptr<uint32_t[]> &Page) { return Page != nullptr; }));
}

uint32_t &Simulator::storeWord(uint32_t Address) {
  std::unique_ptr<uint32_t[]> &Page = MemPages[Address / MemPageWords];
  if (!Page)
    Page = std::make_unique<uint32_t[]>(MemPageWords);
  return Page[Address % MemPageWords];
}

bool Simulator::step(int T, int64_t &Clock, std::string &Error) {
  ThreadState &TS = Threads[static_cast<size_t>(T)];
  ThreadStats &TSt = Stats[static_cast<size_t>(T)];
  uint32_t *const R = TS.Regs->data();
  const Program &P = *TS.Prog;

  if (TS.HasPendingWrite) {
    R[static_cast<size_t>(TS.PendingReg)] = TS.PendingValue;
    TS.HasPendingWrite = false;
  }

  if (Observer && !TS.EntryReported) {
    TS.EntryReported = true;
    Observer->onBlockEntered(T, TS.Block);
  }

  // The clock, position and executed count live in locals until the thread
  // yields; every return goes through yield(), which stores them back.
  int64_t Now = Clock;
  int Block = TS.Block;
  int Index = TS.Index;
  const BasicBlock *BB = &P.block(Block);
  int64_t Executed = 0;
  const int64_t MaxCycles = Config.MaxCycles;
  auto yield = [&](bool Ok) {
    Clock = Now;
    TS.Block = Block;
    TS.Index = Index;
    TSt.InstrsExecuted += Executed;
    return Ok;
  };
  auto fail = [&](std::string Reason) {
    Error = std::move(Reason);
    return yield(false);
  };
  auto oob = [&](uint64_t Address) {
    return fail(formatString("thread %d: memory access out of range (0x%llx)",
                             T, static_cast<unsigned long long>(Address)));
  };
  auto enter = [&](int Target) {
    Block = Target;
    Index = 0;
    BB = &P.block(Block);
    if (Observer)
      Observer->onBlockEntered(T, Block);
  };

  for (;;) {
    if (Now >= MaxCycles)
      return fail("cycle budget exhausted");
    if (Index >= static_cast<int>(BB->Instrs.size())) {
      if (BB->FallThrough == NoBlock)
        return fail(formatString("thread %d: fell off block '%s'", T,
                                 std::string(P.blockName(Block)).c_str()));
      enter(BB->FallThrough);
      continue;
    }
    const Instruction &I = BB->Instrs[static_cast<size_t>(Index)];
    ++Index;
    ++Executed;

    auto u32 = [&](Reg Slot) { return R[static_cast<size_t>(Slot)]; };
    auto setReg = [&](Reg Slot, uint32_t V) {
      R[static_cast<size_t>(Slot)] = V;
    };

    switch (I.Op) {
    case Opcode::Imm:
      setReg(I.Def, static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::Mov:
      setReg(I.Def, u32(I.Use1));
      break;
    case Opcode::Add:
      setReg(I.Def, u32(I.Use1) + u32(I.Use2));
      break;
    case Opcode::Sub:
      setReg(I.Def, u32(I.Use1) - u32(I.Use2));
      break;
    case Opcode::And:
      setReg(I.Def, u32(I.Use1) & u32(I.Use2));
      break;
    case Opcode::Or:
      setReg(I.Def, u32(I.Use1) | u32(I.Use2));
      break;
    case Opcode::Xor:
      setReg(I.Def, u32(I.Use1) ^ u32(I.Use2));
      break;
    case Opcode::Shl:
      setReg(I.Def, u32(I.Use1) << (u32(I.Use2) & 31));
      break;
    case Opcode::Shr:
      setReg(I.Def, u32(I.Use1) >> (u32(I.Use2) & 31));
      break;
    case Opcode::Mul:
      setReg(I.Def, u32(I.Use1) * u32(I.Use2));
      break;
    case Opcode::AddI:
      setReg(I.Def, u32(I.Use1) + static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::SubI:
      setReg(I.Def, u32(I.Use1) - static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::AndI:
      setReg(I.Def, u32(I.Use1) & static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::OrI:
      setReg(I.Def, u32(I.Use1) | static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::XorI:
      setReg(I.Def, u32(I.Use1) ^ static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::ShlI:
      setReg(I.Def, u32(I.Use1) << (static_cast<uint32_t>(I.Imm) & 31));
      break;
    case Opcode::ShrI:
      setReg(I.Def, u32(I.Use1) >> (static_cast<uint32_t>(I.Imm) & 31));
      break;
    case Opcode::MulI:
      setReg(I.Def, u32(I.Use1) * static_cast<uint32_t>(I.Imm));
      break;
    case Opcode::Not:
      setReg(I.Def, ~u32(I.Use1));
      break;
    case Opcode::Neg:
      setReg(I.Def, 0u - u32(I.Use1));
      break;

    case Opcode::Load:
    case Opcode::LoadA: {
      uint64_t Address =
          I.Op == Opcode::Load
              ? static_cast<uint64_t>(u32(I.Use1)) +
                    static_cast<uint64_t>(static_cast<int64_t>(I.Imm))
              : static_cast<uint64_t>(I.Imm);
      if (Address >= Config.MemWords)
        return oob(Address);
      TS.HasPendingWrite = true;
      TS.PendingReg = I.Def;
      TS.PendingValue = loadWord(static_cast<uint32_t>(Address));
      ++Now;
      ++TSt.MemOps;
      if (I.Op == Opcode::LoadA)
        ++TSt.AbsMemOps;
      ++TSt.CtxEvents;
      TS.ReadyAt = Now + Config.MemLatency;
      return yield(true);
    }
    case Opcode::Store:
    case Opcode::StoreA: {
      uint64_t Address =
          I.Op == Opcode::Store
              ? static_cast<uint64_t>(u32(I.Use1)) +
                    static_cast<uint64_t>(static_cast<int64_t>(I.Imm))
              : static_cast<uint64_t>(I.Imm);
      if (Address >= Config.MemWords)
        return oob(Address);
      Reg Value = I.Op == Opcode::Store ? I.Use2 : I.Use1;
      storeWord(static_cast<uint32_t>(Address)) = u32(Value);
      ++Now;
      ++TSt.MemOps;
      if (I.Op == Opcode::StoreA)
        ++TSt.AbsMemOps;
      ++TSt.CtxEvents;
      TS.ReadyAt = Now + Config.MemLatency;
      return yield(true);
    }

    case Opcode::Ctx:
      ++Now;
      ++TSt.CtxEvents;
      TS.ReadyAt = Now;
      return yield(true);

    case Opcode::Signal: {
      if (I.Imm < 0 || I.Imm >= Config.NumChannels)
        return fail(formatString("thread %d: signal channel %lld out of range",
                                 T, static_cast<long long>(I.Imm)));
      ++Channels[static_cast<size_t>(I.Imm)];
      ++Now;
      ++TSt.CtxEvents;
      TS.ReadyAt = Now;
      return yield(true);
    }
    case Opcode::Wait: {
      if (I.Imm < 0 || I.Imm >= Config.NumChannels)
        return fail(formatString("thread %d: wait channel %lld out of range",
                                 T, static_cast<long long>(I.Imm)));
      ++Now;
      ++TSt.CtxEvents;
      // The token is consumed by the scheduler when it finds the channel
      // non-empty and wakes this thread.
      TS.WaitingChannel = static_cast<int>(I.Imm);
      TS.ReadyAt = Now;
      return yield(true);
    }

    case Opcode::Br:
      ++Now;
      enter(I.Target);
      continue;
    case Opcode::BrEq:
      ++Now;
      if (u32(I.Use1) == u32(I.Use2))
        enter(I.Target);
      continue;
    case Opcode::BrNe:
      ++Now;
      if (u32(I.Use1) != u32(I.Use2))
        enter(I.Target);
      continue;
    case Opcode::BrLt:
      ++Now;
      if (static_cast<int32_t>(u32(I.Use1)) <
          static_cast<int32_t>(u32(I.Use2)))
        enter(I.Target);
      continue;
    case Opcode::BrGe:
      ++Now;
      if (static_cast<int32_t>(u32(I.Use1)) >=
          static_cast<int32_t>(u32(I.Use2)))
        enter(I.Target);
      continue;
    case Opcode::BrZ:
      ++Now;
      if (u32(I.Use1) == 0)
        enter(I.Target);
      continue;
    case Opcode::BrNz:
      ++Now;
      if (u32(I.Use1) != 0)
        enter(I.Target);
      continue;

    case Opcode::Call:
    case Opcode::Ret:
      return fail(formatString("thread %d: unexpanded call/ret reached the "
                               "simulator", T));

    case Opcode::Halt:
      TS.Halted = true;
      TSt.Halted = true;
      return yield(true);

    case Opcode::LoopEnd: {
      ++TSt.Iterations;
      if (Port)
        RunStop = std::min(RunStop, Port->onIterationComplete(T, Now));
      const bool AtTarget = Config.TargetIterations > 0 &&
                            TSt.Iterations == Config.TargetIterations;
      if (AtTarget) {
        TSt.CyclesAtTarget = Now;
        if (Config.HaltAtTarget) {
          TS.Halted = true;
          TSt.Halted = true;
          return yield(true);
        }
      }
      // With a grid port attached, the next iteration consumes one work
      // token; a thread with no token yields and blocks on the
      // interconnect (InterconnectStall bucket) until grantWork().
      if (Port && !Port->tryAcquireWork(T, Now)) {
        TS.GridBlocked = true;
        TS.ReadyAt = Now;
        ++TSt.CtxEvents;
        return yield(true);
      }
      if (AtTarget) {
        // Yield (at no cost) so the scheduler can notice that every thread
        // has reached its target even when this thread never touches
        // memory.
        TS.ReadyAt = Now;
        return yield(true);
      }
      continue;
    }

    case Opcode::Nop:
      ++Now;
      continue;
    }
    // Non-control instructions cost one cycle and fall through here.
    ++Now;
  }
}

namespace {

/// The ThreadStats bucket of each ThreadPhase, in enumerator order.
constexpr int64_t ThreadStats::*PhaseBucket[NumThreadPhases] = {
    &ThreadStats::RunCycles,
    &ThreadStats::SwitchPenaltyCycles,
    &ThreadStats::MemStallCycles,
    &ThreadStats::ChannelWaitCycles,
    &ThreadStats::InterconnectStallCycles,
    &ThreadStats::ReadyWaitCycles,
    &ThreadStats::HaltedCycles,
};

} // namespace

void Simulator::charge(int T, ThreadPhase P, int64_t C0, int64_t C1) {
  Stats[static_cast<size_t>(T)].*PhaseBucket[static_cast<size_t>(P)] +=
      C1 - C0;
  if (Trace)
    Trace->extendPhase(TracePid, T, P, C0, C1);
}

// Why settling is exact: see the bucket docs on ThreadStats.
void Simulator::settle(int T) {
  ThreadState &TS = Threads[static_cast<size_t>(T)];
  const int64_t C0 = TS.Settled;
  TS.Settled = RunClock;
  if (TS.Halted) {
    charge(T, ThreadPhase::Halted, C0, RunClock);
  } else if (TS.GridBlocked) {
    charge(T, ThreadPhase::InterconnectStall, C0, RunClock);
  } else if (TS.WaitingChannel >= 0) {
    charge(T, ThreadPhase::ChannelWait, C0, RunClock);
  } else {
    const int64_t MemEnd = std::min(RunClock, std::max(TS.ReadyAt, C0));
    charge(T, ThreadPhase::MemStall, C0, MemEnd);
    charge(T, ThreadPhase::ReadyWait, MemEnd, RunClock);
  }
}

int Simulator::liveThreadCount() const {
  int N = 0;
  for (const ThreadState &TS : Threads)
    N += TS.Halted ? 0 : 1;
  return N;
}

int Simulator::readyThreadCount() const {
  int N = 0;
  for (const ThreadState &TS : Threads) {
    if (TS.Halted || TS.GridBlocked)
      continue;
    if (TS.WaitingChannel >= 0 &&
        Channels[static_cast<size_t>(TS.WaitingChannel)] == 0)
      continue;
    if (TS.ReadyAt <= RunClock)
      ++N;
  }
  return N;
}

void Simulator::endRun() {
  for (int T = 0; T < MTP.getNumThreads(); ++T)
    settle(T);
  RunResult.TotalCycles = RunClock;
  RunResult.Threads = Stats;
  Ended = true;
  if (Trace)
    Trace->closeTrack(TracePid);
}

void Simulator::failRun(const std::string &Reason) {
  RunResult.FailReason = Reason;
  endRun();
}

void Simulator::completeRun() {
  RunResult.Completed = true;
  endRun();
  for (int T = 0; T < MTP.getNumThreads(); ++T) {
    assert(Stats[static_cast<size_t>(T)].accountedCycles() == RunClock &&
           "cycle breakdown does not sum to total cycles");
    const std::string Prefix = "sim.thread" + std::to_string(T) + ".";
    MetricsRegistry &MR = MetricsRegistry::global();
    const ThreadStats &S = Stats[static_cast<size_t>(T)];
    MR.counter(Prefix + "run_cycles").add(S.RunCycles);
    MR.counter(Prefix + "switch_penalty_cycles").add(S.SwitchPenaltyCycles);
    MR.counter(Prefix + "mem_stall_cycles").add(S.MemStallCycles);
    MR.counter(Prefix + "channel_wait_cycles").add(S.ChannelWaitCycles);
    if (S.InterconnectStallCycles > 0)
      MR.counter(Prefix + "interconnect_stall_cycles")
          .add(S.InterconnectStallCycles);
    MR.counter(Prefix + "ready_wait_cycles").add(S.ReadyWaitCycles);
    MR.counter(Prefix + "halted_cycles").add(S.HaltedCycles);
    MR.counter(Prefix + "ctx_events").add(S.CtxEvents);
  }
}

void Simulator::beginRun() {
  RunResult = SimResult();
  RunClock = 0;
  RunLastThread = -1;
  RunFinished = 0;
  for (size_t T = 0; T < Threads.size(); ++T) {
    Threads[T].Settled = 0;
    RunFinished += finished(Stats[T]) ? 1 : 0;
  }
  Active = true;
  Ended = false;
}

void Simulator::grantWork(int T, int64_t Cycle) {
  ThreadState &TS = Threads[static_cast<size_t>(T)];
  assert(TS.GridBlocked && "grantWork on a thread not blocked on the grid");
  settle(T);
  TS.GridBlocked = false;
  TS.ReadyAt = Cycle;
}

bool Simulator::advanceUntil(int64_t StopAt) {
  assert(Active && "advanceUntil without beginRun");
  RunStop = StopAt;
  if (Ended)
    return false;
  const int Nthd = MTP.getNumThreads();
  std::string Error;
  while (RunFinished < Nthd) {
    if (Sampler && Sampler->due(RunClock)) {
      // Sample on the period grid (ts = the due cycle) with the machine
      // state the scheduler sees now, then skip past any periods the last
      // step jumped over — one sample per loop iteration at most.
      Sampler->beginSample(Sampler->nextDue());
      Sampler->value(TracePid, SamplePrefix + "occupancy", liveThreadCount());
      Sampler->value(TracePid, SamplePrefix + "ready", readyThreadCount());
      Sampler->endSample(RunClock);
    }
    if (RunClock >= RunStop)
      return true;
    if (RunClock >= Config.MaxCycles) {
      failRun("cycle budget exhausted");
      return false;
    }
    // Round-robin pick of the next ready thread.
    int Chosen = -1;
    int64_t EarliestReady = -1;
    bool AnyGridBlocked = false;
    for (int Left = Nthd, T = RunLastThread; Left > 0; --Left) {
      if (++T == Nthd)
        T = 0;
      const ThreadState &TS = Threads[static_cast<size_t>(T)];
      if (TS.Halted)
        continue;
      if (TS.GridBlocked) {
        AnyGridBlocked = true;
        continue; // wakes only via grantWork between advances
      }
      if (TS.WaitingChannel >= 0 &&
          Channels[static_cast<size_t>(TS.WaitingChannel)] == 0)
        continue; // blocked on an empty channel
      if (TS.ReadyAt <= RunClock) {
        Chosen = T;
        break;
      }
      if (EarliestReady < 0 || TS.ReadyAt < EarliestReady)
        EarliestReady = TS.ReadyAt;
    }
    if (Chosen < 0) {
      if (EarliestReady < 0 && !AnyGridBlocked) {
        // Every live thread is blocked on an empty channel (or the run
        // state is corrupt): with no memory op pending nothing can wake
        // anyone again.
        failRun("deadlock: all runnable threads are waiting on "
                "empty channels");
        return false;
      }
      // CPU idles until a memory op completes or, when only grid-blocked
      // threads remain, until control returns to the grid (which may then
      // deliver a token). Clamp to the stop so interconnect deliveries are
      // observed; with a stop of forever this is the pre-grid jump to
      // EarliestReady. No thread changes state here, so none is charged:
      // each settles the idle span with the rest of its wait.
      int64_t Until = EarliestReady >= 0 ? std::min(EarliestReady, RunStop)
                                         : RunStop;
      Until = std::min(Until, Config.MaxCycles);
      if (Until <= RunClock) {
        failRun("deadlock: all runnable threads are blocked on the "
                "interconnect");
        return false;
      }
      RunResult.IdleCycles += Until - RunClock;
      RunClock = Until;
      continue;
    }
    // The chosen thread's wait ends here: charge it under the state it
    // waited in, before the dispatch takes its channel token.
    ThreadState &TS = Threads[static_cast<size_t>(Chosen)];
    settle(Chosen);
    if (TS.WaitingChannel >= 0) {
      --Channels[static_cast<size_t>(TS.WaitingChannel)];
      TS.WaitingChannel = -1;
    }
    if (RunLastThread >= 0 && Chosen != RunLastThread) {
      const int64_t PenaltyStart = RunClock;
      RunClock += Config.CtxSwitchPenalty;
      charge(Chosen, ThreadPhase::SwitchPenalty, PenaltyStart, RunClock);
    }
    if (Config.RecordCtxTrace && Chosen != RunLastThread)
      RunResult.CtxTrace.push_back({RunClock, Chosen});
    RunLastThread = Chosen;
    const bool WasFinished = finished(Stats[static_cast<size_t>(Chosen)]);
    const int64_t StepStart = RunClock;
    const bool StepOk = step(Chosen, RunClock, Error);
    charge(Chosen, ThreadPhase::Run, StepStart, RunClock);
    TS.Settled = RunClock;
    if (!StepOk) {
      failRun(Error);
      return false;
    }
    if (!WasFinished && finished(Stats[static_cast<size_t>(Chosen)]))
      ++RunFinished;
  }
  completeRun();
  return false;
}

SimResult Simulator::takeResult() {
  assert(Ended && "takeResult before the run ended");
  Active = false;
  return std::move(RunResult);
}

SimResult Simulator::run() {
  NPRAL_TRACE_SPAN_ARGS("sim", "Simulator::run", {"program", MTP.Name},
                        {"threads", std::to_string(MTP.getNumThreads())});
  beginRun();
  advanceUntil(std::numeric_limits<int64_t>::max());
  return takeResult();
}
