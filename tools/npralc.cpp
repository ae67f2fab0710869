//===- npralc.cpp - NPRAL command-line driver ------------------------------===//
//
// The downstream-user entry point: assemble a multi-threaded NPRAL assembly
// file, run the paper's inter-thread register allocator, and emit the
// allocated program, analysis reports, or a simulation run.
//
//   npralc analyze  file.s             per-thread analysis + bounds report
//   npralc alloc    file.s [-nreg N]   allocate, validate and print physical
//                                      assembly
//   npralc run      file.s [-nreg N] [-iters K] [-memlat L]
//                                      allocate, simulate, report cycles
//   npralc baseline file.s [-regs K]   fixed-partition spilling allocation
//   npralc sra      file.s [-nthd N] [-nreg R]
//                                      symmetric allocation: N copies of the
//                                      (single) thread on one engine
//   npralc lint     file.s [--json] [--after-alloc] [--physical]
//                          [--only checks] [-nreg N] [--Werror]
//                                      run every registered checker, report
//                                      all findings (text or JSON)
//   npralc verify   files... [--jobs N] [--json] [--Werror] [-nreg N]
//                            [--allow-spill] [--max-spills K] [--paired]
//                            [--pgo-static] [--profile f]
//                                      allocate each file, then prove the
//                                      physical output equivalent to the
//                                      virtual input (translation
//                                      validation); --paired checks a
//                                      hand-written physical half instead
//   npralc profile  file.s [-iters K] [-memlat L] [-o out.npprof]
//                                      simulate the virtual program and
//                                      collect an execution profile
//   npralc batch    files... [--jobs N] [--cache] [--stats] [--json]
//                            [-nreg N] [--profile f] [--pgo-static]
//                                      allocate and validate many programs
//                                      across a thread pool
//   npralc trace-validate t.json       strictly parse and validate a Chrome
//                                      trace-event JSON file
//
// `alloc` and `batch` accept --profile <f.npprof> (collected by `profile`)
// or --pgo-static to weight move costs by block execution frequency.
// `alloc --explain` prints the allocator's decision log: one record per
// Fig. 8 reduction step with every thread's move-cost bid.
//
// Every subcommand accepts --trace-out <f.json> (record spans and events
// while the command runs, write Chrome trace-event JSON on exit) and
// --metrics (dump the global metrics registry to stderr on exit). All
// other flags come from one table per subcommand (dispatch); an unknown
// flag, a missing value or an out-of-range number exits 2.
//
// `alloc` and `run` allocate through the batch pipeline's runSingleJob,
// like `serve`, and `verify` through runBatch, like `batch`, so all five
// give one verdict for the same input.
//
// Threads may declare entry-live registers; `run` seeds them with zero (use
// the C++ API for richer setups — see examples/).
//
//===----------------------------------------------------------------------===//

#include "alloc/BoundsEstimator.h"
#include "alloc/InterAllocator.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "baseline/ChaitinAllocator.h"
#include "driver/BatchPipeline.h"
#include "driver/VerifyPipeline.h"
#include "grid/GridHarness.h"
#include "harden/FaultInjector.h"
#include "ir/IRPrinter.h"
#include "lint/Lint.h"
#include "profile/ExecutionProfile.h"
#include "profile/ProfileCollector.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "sim/Simulator.h"
#include "support/DiagnosticEngine.h"
#include "support/StringUtils.h"
#include "support/TableFormatter.h"
#include "support/ThreadPool.h"
#include "trace/CycleTrace.h"
#include "trace/DecisionLog.h"
#include "trace/MetricsRegistry.h"
#include "trace/Telemetry.h"
#include "trace/TraceEngine.h"
#include "trace/TraceFormat.h"
#include "trace/TraceReport.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

using namespace npral;

namespace {

int usage() {
  std::cerr
      << "usage: npralc <subcommand> <file.s> [options]\n"
         "\n"
         "subcommands:\n"
         "  analyze  file.s\n"
         "      per-thread analysis (live ranges, NSRs, pressure) and the\n"
         "      MinR/MinPR/MaxR/MaxPR register bounds; no options\n"
         "  alloc    file.s [-nreg N] [--explain] [--profile f]\n"
         "           [--pgo-static] [--allow-spill] [--max-spills K]\n"
         "      run the inter-thread allocator, prove the physical output\n"
         "      equivalent to the virtual input (translation validation,\n"
         "      CSB privacy included; a strict run also cross-checks the\n"
         "      decision log), and print the physical assembly plus the\n"
         "      per-thread PR/SR split; a refuted run fails with a witness\n"
         "        -nreg N       register file size (default 128)\n"
         "        --explain     print the allocation decision log: one\n"
         "                      record per reduction step with every\n"
         "                      thread's move-cost bid, plus rebalance\n"
         "                      and intra-thread events\n"
         "        --profile f   weight move costs by the execution counts\n"
         "                      in f (a .npprof from `npralc profile`);\n"
         "                      threads are matched by code hash, and a\n"
         "                      thread matching no profiled code is stale\n"
         "        --pgo-static  weight move costs by 10^loop-depth instead\n"
         "                      of a collected profile\n"
         "        --allow-spill degrade gracefully when the budget is\n"
         "                      infeasible: demote the cheapest live ranges\n"
         "                      to scratch memory and retry (feasible\n"
         "                      inputs produce bit-identical output)\n"
         "        --max-spills K  live ranges the fallback may demote\n"
         "                      (default 64)\n"
         "  run      file.s [-nreg N] [-iters K] [-memlat L]\n"
         "           [--trace-cycles f.json] [--sample-cycles N]\n"
         "      allocate, then simulate on the cycle-level engine\n"
         "        -nreg N    register file size (default 128)\n"
         "        -iters K   loop iterations to simulate (default 10)\n"
         "        -memlat L  memory latency in cycles (default 40)\n"
         "        --trace-cycles f.json  write a virtual-time Chrome\n"
         "                   trace (ts = simulated cycles) with per-thread\n"
         "                   state slices and telemetry counters\n"
         "        --sample-cycles N  telemetry sampling period (default\n"
         "                   64)\n"
         "  baseline file.s [-regs K]\n"
         "      fixed-partition Chaitin/Briggs allocation with spill code\n"
         "        -regs K    per-thread partition size (default 32)\n"
         "  sra      file.s [-nthd N] [-nreg R]\n"
         "      symmetric allocation: N copies of the (single) thread\n"
         "        -nthd N    thread count (default 4)\n"
         "        -nreg R    register file size (default 128)\n"
         "  grid     scenario [--engines N] [--placement P] [-nreg N]\n"
         "           [-iters K] [-memlat L] [--hoplat H] [--credits C]\n"
         "           [--json]\n"
         "      multi-micro-engine run: place the scenario's thread pool\n"
         "      across N engines, allocate each distinct engine bin once,\n"
         "      and simulate every engine on its own lane to the ingress\n"
         "      over the modeled interconnect (docs/grid.md). scenario is\n"
         "      s1, s2, s3 (the Table-3 mixes, template replicated per\n"
         "      engine) or 'mixed' (all three templates interleaved)\n"
         "        --engines N   micro-engines in the grid (default 4)\n"
         "        --placement P thread placement policy: roundrobin,\n"
         "                      bounds, or search (default bounds)\n"
         "        -nreg N       per-engine register file size (default\n"
         "                      128)\n"
         "        -iters K      target iterations per thread (default 50)\n"
         "        -memlat L     memory latency in cycles (default 40)\n"
         "        --hoplat H    interconnect per-hop latency (default 4)\n"
         "        --credits C   per-thread work-token window (default 4)\n"
         "        --json        emit the report as JSON\n"
         "        --trace-cycles f.json\n"
         "                      write a virtual-time Chrome trace: ts is\n"
         "                      simulated cycles, with per-thread state\n"
         "                      slices, telemetry counter tracks, and\n"
         "                      work-dispatch flow arrows\n"
         "        --sample-cycles N\n"
         "                      telemetry sampling period in cycles for\n"
         "                      --trace-cycles (default 64)\n"
         "  lint     file.s [--json] [--after-alloc] [--physical]\n"
         "           [--only checks] [-nreg N] [--Werror]\n"
         "      run the static-analysis checkers and report every finding\n"
         "        --json          emit diagnostics as JSON\n"
         "        --after-alloc   allocate first, lint the physical result\n"
         "        --physical      treat registers named p<N> as a\n"
         "                        hand-crafted physical allocation\n"
         "        --only checks   comma-separated checker names to run\n"
         "        -nreg N         register file size for --after-alloc\n"
         "        --Werror        exit nonzero on warnings, not just errors\n"
         "  verify   files... [--jobs N] [--json] [--Werror] [-nreg N]\n"
         "           [--allow-spill] [--max-spills K] [--pgo-static]\n"
         "           [--profile f] [--paired]\n"
         "      allocate each file and statically prove the physical\n"
         "      output computes exactly what the virtual input computes\n"
         "      (translation validation, CSB privacy included); a\n"
         "      mismatch is reported as a diagnostic with a witness path\n"
         "        --jobs N      worker threads (default 1); the report is\n"
         "                      byte-identical for any worker count\n"
         "        --json        emit the report as JSON\n"
         "        --Werror      exit nonzero on warnings, not just\n"
         "                      rejections\n"
         "        -nreg N       register file size (default 128)\n"
         "        --allow-spill prove spill-degraded outputs against the\n"
         "                      pre-spill reference\n"
         "        --max-spills K  spill cap for --allow-spill (default 64)\n"
         "        --pgo-static  static PGO weights during allocation\n"
         "        --profile f   collected-profile weights (hash-matched)\n"
         "        --paired      each file carries virtual threads followed\n"
         "                      by an equal number of hand-written physical\n"
         "                      (p<N>-named) threads; check those instead\n"
         "                      of allocating\n"
         "  profile  file.s [-iters K] [-memlat L] [-o out.npprof]\n"
         "      simulate the virtual (pre-allocation) program and collect\n"
         "      per-block execution counts\n"
         "        -iters K   loop iterations to simulate (default 10)\n"
         "        -memlat L  memory latency in cycles (default 40)\n"
         "        -o file    write the profile to file (default: stdout)\n"
         "  batch    files... [--jobs N] [--cache] [--stats] [--json]\n"
         "           [-nreg N] [--profile f] [--pgo-static] [--allow-spill]\n"
         "           [--max-spills K] [--deadline-ms D] [--fault-inject spec]\n"
         "      run the full pipeline (parse, analyze, allocate, validate)\n"
         "      over many files on a thread pool; one result row per file\n"
         "        --jobs N      worker threads (default: hw concurrency)\n"
         "        --cache       memoise per-thread analyses by content hash\n"
         "        --stats       report per-stage wall clock and cache hits\n"
         "        --json        emit the --stats report as JSON\n"
         "        -nreg N       register file size (default 128)\n"
         "        --profile f   apply f's execution counts to any thread\n"
         "                      whose code hash matches (profile as a\n"
         "                      database; unmatched threads stay unit)\n"
         "        --pgo-static  10^loop-depth weights for unmatched threads\n"
         "        --allow-spill spill-based graceful degradation for\n"
         "                      infeasible budgets (see alloc)\n"
         "        --max-spills K  per-job spill cap (default 64)\n"
         "        --deadline-ms D  per-job deadline over all stages; an\n"
         "                      overrun fails only that job\n"
         "        --fault-inject <sites>@<rate>#<seed>\n"
         "                      deterministic fault injection at the named\n"
         "                      stage probes (parse,analysis,cache,alloc or\n"
         "                      'all'); rate in percent, e.g. all@50#7. Also\n"
         "                      honours NPRAL_FAULT_INJECT in the\n"
         "                      environment. Injected faults fail the job,\n"
         "                      never the batch\n"
         "        --cache-bytes B  bound the analysis cache to B bytes with\n"
         "                      LRU eviction (implies --cache); 0 =\n"
         "                      unbounded (default)\n"
         "  serve    --socket PATH [--workers N] [--queue-cap N]\n"
         "           [--max-conns N] [--max-request-bytes B]\n"
         "           [--deadline-ms D] [--cache-bytes B]\n"
         "           [--retry-after-ms M] [--fault-inject spec]\n"
         "      allocation-as-a-service daemon on a Unix socket\n"
         "      (docs/serve.md): bounded admission queue with load\n"
         "      shedding, per-request deadlines and fault\n"
         "      isolation, a shared LRU-bounded analysis cache, and\n"
         "      graceful drain on SIGTERM/SIGINT (in-flight requests\n"
         "      finish, queued ones answer 'cancelled', exit 0)\n"
         "        --workers N   request executors (default: hw concurrency)\n"
         "        --queue-cap N admission queue bound (default 64); a full\n"
         "                      queue sheds with 'unavailable' + retry hint\n"
         "        --max-conns N concurrent connections (default 64)\n"
         "        --max-request-bytes B  reject larger frames (default 4M)\n"
         "        --deadline-ms D  default per-request deadline\n"
         "        --cache-bytes B  analysis-cache budget (default 64M)\n"
         "        --retry-after-ms M  backoff hint in shed responses\n"
         "  client   --socket PATH [file.s] [-nreg N] [--allow-spill]\n"
         "           [--max-spills K] [--deadline-ms D]\n"
         "           [--profile-hash H] [--health] [--fetch-metrics]\n"
         "      send one request to a running serve daemon; prints the\n"
         "      allocated physical assembly (byte-identical to `alloc`'s\n"
         "      print section) on stdout, a summary on stderr\n"
         "        --health        fetch the daemon's health lines instead\n"
         "        --fetch-metrics fetch the daemon's metrics JSON instead\n"
         "        --profile-hash H  opaque cache-partition tag\n"
         "  trace-validate file.json\n"
         "      strictly parse and validate a Chrome trace-event JSON\n"
         "      file (phases, per-track span balance, timestamp order,\n"
         "      counter monotonicity, flow pairing)\n"
         "  report   file.json [--html out.html]\n"
         "      summarise a trace file: per-track state breakdown bars,\n"
         "      counter sparklines, and flow latency percentiles; --html\n"
         "      writes a self-contained page instead of text\n"
         "\n"
         "global options (accepted by every subcommand):\n"
         "  --trace-out f.json  record spans and instant events while the\n"
         "                      command runs; write Chrome trace-event\n"
         "                      JSON on exit (open in Perfetto or\n"
         "                      chrome://tracing)\n"
         "  --metrics           dump the metrics registry to stderr on\n"
         "                      exit (one line per instrument)\n"
         "\n"
         "      checkers:\n";
  for (const CheckerInfo &C : getCheckerRegistry())
    std::cerr << "        " << C.Name << ": " << C.Description << "\n";
  std::cerr << "\nexit status: 0 ok, 1 findings/errors, 2 bad usage\n";
  return 2;
}

/// One row of a subcommand's flag table: the flag's spelling and the
/// variable its value lands in. A bool target is a switch that takes no
/// value. An integer target accepts [Min, Max], further clamped to what the
/// target type holds; a uint64_t target takes the full unsigned range.
struct Flag {
  std::string_view Name;
  std::variant<bool *, std::string *, int *, int64_t *, uint32_t *,
               uint64_t *, FaultInjector *>
      Target;
  int64_t Min = 0;
  int64_t Max = std::numeric_limits<int64_t>::max();
};

/// Store \p Value through \p Out; returns why it is unacceptable, or an
/// empty string when it was stored.
template <typename T>
std::string storeValue(std::string_view Value, T *Out, int64_t Min,
                       int64_t Max) {
  if constexpr (std::is_same_v<T, std::string>) {
    *Out = Value;
  } else if constexpr (std::is_same_v<T, FaultInjector>) {
    ErrorOr<FaultInjector> FI = FaultInjector::parse(std::string(Value));
    if (!FI.ok())
      return FI.status().str();
    *Out = FI.take();
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    // Hash tags use the top bit, so no detour through int64_t.
    const char *End = Value.data() + Value.size();
    auto [Ptr, Ec] = std::from_chars(Value.data(), End, *Out);
    if (Ec != std::errc() || Ptr != End)
      return "expected an unsigned 64-bit integer, got '" +
             std::string(Value) + "'";
  } else {
    Max = std::min<int64_t>(Max, std::numeric_limits<T>::max());
    const std::optional<int64_t> V = parseInteger(Value);
    if (!V || *V < Min || *V > Max)
      return "expected an integer in [" + std::to_string(Min) + ", " +
             std::to_string(Max) + "], got '" + std::string(Value) + "'";
    *Out = static_cast<T>(*V);
  }
  return "";
}

/// Parse argv[2..argc) against \p Table; arguments not starting with '-'
/// are collected in \p Positional. An unknown flag, a missing value or an
/// unacceptable value prints `error: <flag>: <why>` and returns false.
bool parseFlags(int argc, char **argv, const std::vector<Flag> &Table,
                std::vector<std::string> &Positional) {
  for (int I = 2; I < argc; ++I) {
    const std::string_view Arg = argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      Positional.emplace_back(Arg);
      continue;
    }
    auto bad = [&](const std::string &Why) {
      std::cerr << "error: " << Arg << ": " << Why << "\n";
      return false;
    };
    const auto It = std::find_if(Table.begin(), Table.end(),
                                 [&](const Flag &F) { return F.Name == Arg; });
    if (It == Table.end())
      return bad("unknown flag");
    if (bool *const *Switch = std::get_if<bool *>(&It->Target)) {
      **Switch = true;
      continue;
    }
    if (++I == argc)
      return bad("missing value");
    const std::string Why = std::visit(
        [&](auto *Out) { return storeValue(argv[I], Out, It->Min, It->Max); },
        It->Target);
    if (!Why.empty())
      return bad(Why);
  }
  return true;
}

ErrorOr<MultiThreadProgram> loadFile(const std::string &Path,
                                     bool Rename = true) {
  ErrorOr<std::string> Text = readTextFile(Path);
  if (!Text.ok())
    return Text.status();
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(*Text);
  if (!MTP.ok())
    return MTP.status();
  if (Rename)
    for (Program &T : MTP->Threads)
      T = renameLiveRanges(T);
  return MTP;
}

/// Report a failed job the way `batch` lists it in its failed[] report.
int reportFailure(const BatchJobResult &R) {
  std::cerr << R.Name << ": " << R.failureSummary() << "\n";
  return 1;
}

/// Write a trace file and note it on stderr; false (reported) on failure.
bool writeTrace(const std::string &Path, TraceClock Clock,
                const std::vector<TraceEvent> &Events) {
  if (Status S = writeFile(Path, [&](std::ostream &OS) {
        writeChromeTrace(OS, Clock, Events);
      });
      !S.ok()) {
    std::cerr << "error: " << S.str() << "\n";
    return false;
  }
  std::cerr << "wrote " << Path << " (" << Events.size()
            << (Clock == TraceClock::Cycles ? " cycle-domain events)\n"
                                            : " trace events)\n");
  return true;
}

int cmdAnalyze(const MultiThreadProgram &MTP) {
  TableFormatter Table({"Thread", "#Instr", "#CTX", "#LiveRanges", "#NSR",
                        "RegPmax", "RegPCSBmax", "MaxR", "MaxPR"});
  for (const Program &T : MTP.Threads) {
    ThreadAnalysis TA = analyzeThread(T);
    RegBounds B = estimateRegBounds(TA);
    Table.row()
        .cell(T.Name)
        .cell(T.countInstructions())
        .cell(T.countCtxInstructions())
        .cell(TA.getNumLiveRanges())
        .cell(TA.NSRs.getNumNSRs())
        .cell(TA.getRegPmax())
        .cell(TA.getRegPCSBmax())
        .cell(B.MaxR)
        .cell(B.MaxPR);
  }
  Table.print(std::cout);
  return 0;
}

/// Read and parse the .npprof file at \p Path into \p Prof and point
/// \p Opts.Profile at it; an empty \p Path loads nothing. Reports the
/// error and returns false when the file cannot be read or parsed.
bool loadProfile(const std::string &Path, std::optional<ExecutionProfile> &Prof,
                 BatchOptions &Opts) {
  if (Path.empty())
    return true;
  ErrorOr<std::string> Text = readTextFile(Path);
  if (!Text.ok()) {
    std::cerr << "error: profile: " << Text.status().str() << "\n";
    return false;
  }
  std::string Error;
  Prof = ExecutionProfile::parse(*Text, Error);
  if (!Prof) {
    std::cerr << "error: malformed profile '" << Path << "': " << Error
              << "\n";
    return false;
  }
  Opts.Profile = &*Prof;
  return true;
}

int cmdAlloc(const std::string &Path, BatchOptions Opts,
             const std::string &ProfilePath, bool Explain) {
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(ProfilePath, Prof, Opts))
    return 1;
  const bool PGO = Prof || Opts.StaticPGO;
  Opts.KeepPhysical = true;
  BatchJob Job;
  Job.Path = Path;
  // The log only observes; a strict run's validate stage also cross-checks
  // it against the result.
  AllocationDecisionLog Log;
  const BatchJobResult R = runSingleJob(Job, Opts, nullptr, 0, &Log);
  if (R.FailStage == JobStage::Parse || R.FailStage == JobStage::Analysis)
    return reportFailure(R);
  // Silently applying unit weights to code the profile never saw would
  // skew every weighted decision.
  if (Prof && R.ProfiledThreads < R.NumThreads) {
    std::cerr << "error: profile is stale: "
              << R.NumThreads - R.ProfiledThreads << " of " << R.NumThreads
              << " thread(s) match no profiled code\n";
    return 1;
  }
  if (Explain) {
    Log.renderExplain(std::cout);
    std::cout << "\n";
  }
  if (R.FailStage == JobStage::Validate) {
    R.ValidateDiags.renderText(std::cerr);
    std::cerr << "translation validation FAILED\n";
    return 1;
  }
  if (!R.Success)
    return reportFailure(R);
  std::cout << "validated: " << R.Validation.ThreadsProved
            << " thread(s) proved, " << R.Validation.InstructionsMatched
            << " instruction(s) matched, " << R.Validation.CopiesInterpreted
            << " copies interpreted\n";
  // The default table is byte-stable against pre-PGO builds; the weighted
  // column only appears when a PGO flag is active.
  std::vector<std::string> Cols{"Thread", "PR", "SR", "PrivateBase", "Moves",
                                "Strategy"};
  if (PGO)
    Cols.push_back("WMoves");
  TableFormatter Table(Cols);
  for (size_t T = 0; T < R.Threads.size(); ++T) {
    const ThreadAllocation &TA = R.Threads[T];
    Table.row()
        .cell(R.Physical.Threads[T].Name)
        .cell(TA.PR)
        .cell(TA.SR)
        .cell(TA.PrivateBase)
        .cell(TA.MoveCost)
        .cell(TA.Strategy);
    if (PGO)
      Table.cell(TA.WeightedCost);
  }
  Table.print(std::cout);
  std::cout << "SGR=" << R.SGR << " at p" << R.SharedBase << "; "
            << R.RegistersUsed << "/" << Opts.Nreg << " registers used\n";
  if (R.UsedSpilling)
    std::cout << "degraded: spilled " << R.SpilledRanges
              << " live range(s) to scratch memory (" << R.SpillLoads
              << " loads, " << R.SpillStores << " stores, "
              << R.SpillAttempts << " attempts)\n";
  if (PGO)
    std::cout << "weighted move cost: " << R.TotalWeightedCost << " ("
              << (Prof ? "collected profile" : "static estimate") << ")\n";
  if (!Explain) {
    std::cout << "\n";
    for (const Program &T : R.Physical.Threads)
      std::cout << programToString(T) << "\n";
  }
  return 0;
}

int cmdProfile(const MultiThreadProgram &MTP, const SimConfig &Config,
               const std::string &OutPath) {
  // Simulate the virtual program: in reference mode every thread has a
  // private register file, so no allocation is needed and the recorded
  // block IDs are the ones the allocators operate on.
  ProfileCollector Collector(MTP);
  Simulator Sim(MTP, Config);
  Sim.setObserver(&Collector);
  for (int T = 0; T < MTP.getNumThreads(); ++T) {
    const Program &P = MTP.Threads[static_cast<size_t>(T)];
    Sim.setEntryValues(T, std::vector<uint32_t>(P.EntryLiveRegs.size(), 0));
  }
  SimResult Run = Sim.run();
  if (!Run.Completed) {
    std::cerr << "simulation failed: " << Run.FailReason << "\n";
    return 1;
  }
  const std::string Text = Collector.getProfile().print();
  if (OutPath.empty()) {
    std::cout << Text;
    return 0;
  }
  if (Status S = writeFile(OutPath, [&](std::ostream &OS) { OS << Text; });
      !S.ok()) {
    std::cerr << "error: " << S.str() << "\n";
    return 1;
  }
  std::cerr << "wrote " << OutPath << " (" << MTP.getNumThreads()
            << " threads, " << Run.TotalCycles << " cycles simulated)\n";
  return 0;
}

int cmdRun(const std::string &Path, BatchOptions Opts,
           const SimConfig &Config, const std::string &TraceCycles,
           int64_t SampleCycles) {
  Opts.KeepPhysical = true;
  BatchJob Job;
  Job.Path = Path;
  const BatchJobResult R = runSingleJob(Job, Opts);
  if (!R.Success)
    return reportFailure(R);
  Simulator Sim(R.Physical, Config);
  // Virtual-time trace: ts is simulated cycles, so the file is a pure
  // function of the program and config (docs/observability.md).
  CycleTrace CT;
  std::optional<TelemetrySampler> Sampler;
  if (!TraceCycles.empty()) {
    Sim.setCycleTrace(&CT, /*Pid=*/1);
    Sampler.emplace(SampleCycles > 0 ? SampleCycles : 64, &CT);
    Sim.setSampler(&*Sampler, "sim.");
  }
  for (int T = 0; T < R.Physical.getNumThreads(); ++T) {
    const Program &P = R.Physical.Threads[static_cast<size_t>(T)];
    Sim.setEntryValues(
        T, std::vector<uint32_t>(P.EntryLiveRegs.size(), 0));
  }
  SimResult Run = Sim.run();
  if (!TraceCycles.empty() &&
      !writeTrace(TraceCycles, TraceClock::Cycles, CT.events()))
    return 1;
  if (!Run.Completed) {
    std::cerr << "simulation failed: " << Run.FailReason << "\n";
    return 1;
  }
  TableFormatter Table({"Thread", "Iters", "Instrs", "CtxEvents", "MemOps",
                        "Cyc/iter"});
  for (size_t T = 0; T < Run.Threads.size(); ++T) {
    const ThreadStats &TS = Run.Threads[T];
    Table.row()
        .cell(R.Physical.Threads[T].Name)
        .cell(TS.Iterations)
        .cell(TS.InstrsExecuted)
        .cell(TS.CtxEvents)
        .cell(TS.MemOps);
    if (TS.CyclesAtTarget >= 0)
      Table.cell(TS.cyclesPerIteration(Config.TargetIterations), 1);
    else
      Table.cell("-"); // thread halted before reaching the target
  }
  Table.print(std::cout);
  std::cout << "total cycles: " << Run.TotalCycles << "\n";
  return 0;
}

int cmdBaseline(const MultiThreadProgram &MTP, int RegsPerThread) {
  TableFormatter Table({"Thread", "Colors", "Spilled", "SpillOps", "Rounds"});
  int64_t SpillBase = 0xF000;
  for (const Program &T : MTP.Threads) {
    ChaitinConfig Config;
    Config.NumColors = RegsPerThread;
    Config.SpillBase = SpillBase;
    SpillBase += 0x100;
    ChaitinResult R = runChaitinAllocator(T, Config);
    if (!R.Success) {
      std::cerr << "baseline failed on '" << T.Name << "': " << R.FailReason
                << "\n";
      return 1;
    }
    Table.row()
        .cell(T.Name)
        .cell(R.ColorsUsed)
        .cell(R.SpilledRanges)
        .cell(R.SpillLoads + R.SpillStores)
        .cell(R.Rounds);
  }
  Table.print(std::cout);
  return 0;
}

int cmdSra(const MultiThreadProgram &MTP, int Nthd, int Nreg) {
  if (MTP.Threads.size() != 1) {
    std::cerr << "sra expects exactly one thread in the file\n";
    return 1;
  }
  SRAResult R = solveSRA(MTP.Threads[0], Nthd, Nreg,
                         /*RequireZeroCost=*/false);
  if (!R.Success) {
    std::cerr << "infeasible: " << R.FailReason << "\n";
    return 1;
  }
  std::cout << Nthd << " identical threads in " << Nreg << " registers: PR="
            << R.PR << " SR=" << R.SR << " total=" << R.TotalRegisters
            << " moves/thread=" << R.MoveCost << "\n";
  return 0;
}

int cmdLint(MultiThreadProgram MTP, bool Json, bool AfterAlloc, bool Physical,
            const std::string &Only, int Nreg, bool Werror) {
  if (Physical) {
    if (Status S = mapNamedPhysicalRegisters(MTP); !S.ok()) {
      std::cerr << "error: " << S.str() << "\n";
      return 1;
    }
  }
  // Lint must accept programs the job path rejects (that is what it
  // reports on), so --after-alloc calls the allocator directly.
  if (AfterAlloc) {
    for (Program &T : MTP.Threads)
      T = renameLiveRanges(T);
    InterThreadResult R = allocateInterThread(MTP, Nreg);
    if (!R.Success) {
      std::cerr << "allocation failed: " << R.FailReason << "\n";
      return 1;
    }
    MTP = std::move(R.Physical);
  }

  LintOptions Opts;
  if (!Only.empty()) {
    size_t Pos = 0;
    while (Pos <= Only.size()) {
      size_t Comma = Only.find(',', Pos);
      std::string Name = Only.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      if (!Name.empty()) {
        if (!findChecker(Name)) {
          std::cerr << "error: unknown checker '" << Name << "'\n";
          return usage();
        }
        Opts.OnlyChecks.push_back(std::move(Name));
      }
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 1;
    }
  }

  DiagnosticEngine Engine;
  runAllCheckers(MTP, Engine, Opts);
  Engine.sortBySeverity();
  if (Json)
    Engine.renderJSON(std::cout);
  else
    Engine.renderText(std::cout);
  if (Engine.hasErrors())
    return 1;
  return Werror && Engine.warningCount() > 0 ? 1 : 0;
}

int cmdVerify(const std::vector<std::string> &Files, BatchOptions Opts,
              bool Paired, const std::string &ProfilePath, bool Json,
              bool Werror) {
  if (Files.empty()) {
    std::cerr << "verify: no input files\n";
    return usage();
  }
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(ProfilePath, Prof, Opts))
    return 1;
  if (Opts.Jobs == 0)
    Opts.Jobs = ThreadPool::hardwareConcurrency();
  VerifyResult R = runVerify(Files, std::move(Opts), Paired);
  if (Json)
    R.renderJSON(std::cout);
  else
    R.renderText(std::cout);
  if (!R.allProved())
    return 1;
  return Werror && R.warningCount() > 0 ? 1 : 0;
}

int cmdBatch(const std::vector<std::string> &Files, BatchOptions Opts,
             const std::string &ProfilePath, bool Stats, bool Json) {
  if (Files.empty()) {
    std::cerr << "batch: no input files\n";
    return usage();
  }
  std::optional<ExecutionProfile> Prof;
  if (!loadProfile(ProfilePath, Prof, Opts))
    return 1;
  std::vector<BatchJob> Inputs;
  Inputs.reserve(Files.size());
  for (const std::string &F : Files) {
    BatchJob Job;
    Job.Path = F;
    Inputs.push_back(std::move(Job));
  }
  if (Opts.Jobs == 0)
    Opts.Jobs = ThreadPool::hardwareConcurrency();
  // A byte budget only makes sense with the cache on, so it implies it.
  Opts.UseCache = Opts.UseCache || Opts.CacheBytes > 0;
  if (!Opts.Faults.enabled())
    Opts.Faults = FaultInjector::fromEnv();
  const bool PGO = Opts.Profile != nullptr || Opts.StaticPGO;
  BatchResult Batch = runBatch(Inputs, Opts);

  std::vector<std::string> Cols{"File", "Threads", "Status", "Regs", "SGR",
                                "Moves"};
  if (PGO) {
    Cols.push_back("WMoves");
    Cols.push_back("Profiled");
  }
  TableFormatter Table(Cols);
  for (const BatchJobResult &R : Batch.Results) {
    Table.row().cell(R.Name).cell(R.NumThreads);
    if (R.Success) {
      Table.cell("ok").cell(R.RegistersUsed).cell(R.SGR).cell(
          R.TotalMoveCost);
      if (PGO)
        Table.cell(R.TotalWeightedCost).cell(R.ProfiledThreads);
    } else {
      Table.cell("FAIL").cell("-").cell("-").cell("-");
      if (PGO)
        Table.cell("-").cell("-");
    }
  }
  Table.print(std::cout);
  // The failed[] report: one line per failed job with the stage and the
  // status-code classification of its failure.
  for (const BatchJobResult *R : Batch.failed())
    reportFailure(*R);
  if (Stats) {
    if (Json)
      Batch.Stats.renderJSON(std::cout);
    else
      Batch.Stats.renderText(std::cout);
  }
  return Batch.allSucceeded() ? 0 : 1;
}

int cmdServe(ServeOptions Opts) {
  if (Opts.SocketPath.empty()) {
    std::cerr << "serve: --socket is required\n";
    return usage();
  }
  if (!Opts.Faults.enabled())
    Opts.Faults = FaultInjector::fromEnv();
  Server S(std::move(Opts));
  S.installSignalHandlers();
  if (Status St = S.start(); !St.ok()) {
    std::cerr << "serve: " << St.str() << "\n";
    return 1;
  }
  // The readiness line supervisors and the CI e2e job wait for.
  std::cerr << "serving on " << S.options().SocketPath << "\n";
  const int Ret = S.wait();
  const ServeStats &St = S.stats();
  std::cerr << "drained: " << St.Requests.load() << " request(s), "
            << St.Ok.load() << " ok, " << St.Failed.load() << " failed, "
            << St.Shed.load() << " shed, " << St.Cancelled.load()
            << " cancelled\n";
  return Ret;
}

int cmdClient(const std::string &SocketPath, const std::string &File,
              bool Health, bool FetchMetrics, AllocRequest Req) {
  if (SocketPath.empty()) {
    std::cerr << "client: --socket is required\n";
    return usage();
  }
  if (!Health && !FetchMetrics && File.empty()) {
    std::cerr << "client: need a file.s (or --health / --fetch-metrics)\n";
    return usage();
  }
  ErrorOr<ServeClient> C = ServeClient::connectTo(SocketPath);
  if (!C.ok()) {
    std::cerr << "client: " << C.status().str() << "\n";
    return 1;
  }
  ErrorOr<ServeResponse> R = Status::error("no request");
  if (Health) {
    R = C->health();
  } else if (FetchMetrics) {
    R = C->metrics();
  } else {
    ErrorOr<std::string> Text = readTextFile(File);
    if (!Text.ok()) {
      std::cerr << "client: " << Text.status().str() << "\n";
      return 1;
    }
    Req.Assembly = Text.take();
    R = C->alloc(Req);
  }
  if (!R.ok()) {
    std::cerr << "client: " << R.status().str() << "\n";
    return 1;
  }
  if (!R->Ok) {
    std::cerr << "error: [" << R->Stage << "/" << R->Code << "] "
              << R->Message;
    if (R->RetryAfterMs > 0)
      std::cerr << " (retry after " << R->RetryAfterMs << " ms)";
    std::cerr << "\n";
    return 1;
  }
  if (!Health && !FetchMetrics) {
    std::cerr << "ok: registers-used=" << R->RegistersUsed
              << " sgr=" << R->SGR << " moves=" << R->TotalMoveCost
              << " spilled-ranges=" << R->SpilledRanges
              << " degraded=" << (R->Degraded ? 1 : 0)
              << " validated=" << (R->Validated ? 1 : 0) << "\n";
  }
  // The body — physical assembly for alloc, key=value lines for health,
  // metrics JSON for metrics — goes to stdout, pipeable and diffable.
  std::cout << R->Body;
  return 0;
}

int cmdGrid(const std::string &ScenarioName, GridOptions Opts,
            const std::string &PolicyName, bool Json,
            const std::string &TraceCycles, int64_t SampleCycles) {
  if (!parsePlacementPolicy(PolicyName, Opts.Policy)) {
    std::cerr << "grid: unknown placement policy '" << PolicyName << "'\n";
    return usage();
  }
  // Virtual-time tracing: thread-state slices per engine, telemetry
  // counters on the configured period, flow arrows for work dispatches.
  CycleTrace CT;
  if (!TraceCycles.empty()) {
    Opts.Trace = &CT;
    Opts.SampleCycles = SampleCycles > 0 ? SampleCycles : 64;
  }

  std::vector<std::string> Pool;
  if (!buildGridPool(ScenarioName, Opts.NumEngines, Pool)) {
    std::cerr << "grid: unknown scenario '" << ScenarioName
              << "' (want s1, s2, s3 or mixed)\n";
    return usage();
  }
  GridReport Report = runKernelPoolGrid(ScenarioName, Pool, Opts);
  if (!TraceCycles.empty() && Report.Success &&
      !writeTrace(TraceCycles, TraceClock::Cycles, CT.events()))
    return 1;
  if (!Report.Success) {
    std::cerr << "grid run failed: " << Report.FailReason << "\n";
    return 1;
  }

  if (Json) {
    std::ostringstream OS;
    OS << "{\n  \"name\": \"" << Report.Name << "\",\n"
       << "  \"engines\": " << Report.NumEngines << ",\n"
       << "  \"placement\": \"" << Report.Policy << "\",\n"
       << "  \"placement_cost\": " << Report.Placement.Cost << ",\n"
       << "  \"placement_swaps\": " << Report.Placement.SwapsApplied << ",\n"
       << "  \"alloc_jobs\": " << Report.AllocJobs << ",\n"
       << "  \"iterations\": " << Report.TotalIterations << ",\n"
       << "  \"max_engine_cycles\": " << Report.MaxEngineCycles << ",\n"
       << "  \"iterations_per_kilocycle\": "
       << Report.IterationsPerKilocycle << ",\n"
       << "  \"interconnect_stall_cycles\": "
       << Report.TotalInterconnectStall << ",\n"
       << "  \"messages_sent\": " << Report.MessagesSent << ",\n"
       << "  \"messages_delivered\": " << Report.MessagesDelivered << ",\n"
       << "  \"credits_returned\": " << Report.CreditsReturned << ",\n"
       << "  \"per_engine\": [";
    for (size_t E = 0; E < Report.Engines.size(); ++E) {
      const GridEngineReport &ER = Report.Engines[E];
      OS << (E ? ",\n    {" : "\n    {") << "\"kernels\": [";
      for (size_t K = 0; K < ER.Kernels.size(); ++K)
        OS << (K ? ", \"" : "\"") << ER.Kernels[K] << "\"";
      OS << "], \"registers_used\": " << ER.RegistersUsed
         << ", \"spilled_ranges\": " << ER.SpilledRanges
         << ", \"cycles\": " << ER.Result.TotalCycles
         << ", \"iterations\": " << ER.Iterations
         << ", \"interconnect_stall_cycles\": "
         << ER.InterconnectStallCycles << "}";
    }
    OS << "\n  ]\n}\n";
    std::cout << OS.str();
    return 0;
  }

  std::cout << "grid: " << Report.Name << "  engines=" << Report.NumEngines
            << "  placement=" << Report.Policy << "  nreg=" << Opts.Nreg
            << "  hoplat=" << Opts.HopLatency
            << "  credits=" << Opts.InitialCredits << "\n";
  TableFormatter Table({"Engine", "Kernels", "Regs", "Cycles", "Iters",
                        "IcStall"});
  for (size_t E = 0; E < Report.Engines.size(); ++E) {
    const GridEngineReport &ER = Report.Engines[E];
    std::string Kernels;
    for (size_t K = 0; K < ER.Kernels.size(); ++K)
      Kernels += (K ? "," : "") + ER.Kernels[K];
    Table.row()
        .cell(static_cast<int>(E))
        .cell(Kernels)
        .cell(ER.RegistersUsed)
        .cell(ER.Result.TotalCycles)
        .cell(ER.Iterations)
        .cell(ER.InterconnectStallCycles);
  }
  Table.print(std::cout);
  std::cout << "aggregate: " << Report.TotalIterations << " iterations, max "
            << "engine cycles " << Report.MaxEngineCycles << " -> "
            << Report.IterationsPerKilocycle << " iters/kcycle\n"
            << "interconnect: " << Report.MessagesSent << " sent, "
            << Report.MessagesDelivered << " delivered, "
            << Report.CreditsReturned << " credits returned, "
            << Report.TotalInterconnectStall << " stall cycles\n"
            << "placement: cost " << Report.Placement.Cost << ", "
            << Report.Placement.SwapsApplied << " swaps\n";
  return 0;
}

/// Read and strictly parse the trace at \p Path, reporting a failure on
/// stderr. The report trusts its input's structure, so a malformed trace
/// is a hard error, not a partial summary.
std::optional<std::vector<TraceEvent>> loadTrace(const std::string &Path,
                                                 TraceClock &Clock) {
  ErrorOr<std::string> Text = readTextFile(Path);
  if (!Text.ok()) {
    std::cerr << "error: " << Text.status().str() << "\n";
    return std::nullopt;
  }
  ErrorOr<std::vector<TraceEvent>> Events = parseChromeTrace(*Text, &Clock);
  if (!Events.ok()) {
    std::cerr << Path << ": " << Events.status().str() << "\n";
    return std::nullopt;
  }
  return Events.take();
}

int cmdTraceValidate(const std::string &Path) {
  TraceClock Clock = TraceClock::Wall;
  std::optional<std::vector<TraceEvent>> Events = loadTrace(Path, Clock);
  if (!Events)
    return 1;
  std::cout << Path << ": valid chrome trace, " << Events->size()
            << " events\n";
  return 0;
}

int cmdReport(const std::string &Path, const std::string &HtmlOut) {
  TraceClock Clock = TraceClock::Wall;
  std::optional<std::vector<TraceEvent>> Events = loadTrace(Path, Clock);
  if (!Events)
    return 1;
  const TraceReport Report = TraceReport::build(*Events, Clock);
  if (HtmlOut.empty()) {
    Report.renderText(std::cout);
    return 0;
  }
  if (Status S = writeFile(
          HtmlOut, [&](std::ostream &OS) { Report.renderHTML(OS); });
      !S.ok()) {
    std::cerr << "error: " << S.str() << "\n";
    return 1;
  }
  std::cerr << "wrote " << HtmlOut << "\n";
  return 0;
}

int dispatch(int argc, char **argv) {
  if (argc < 3)
    return usage();
  const std::string Cmd = argv[1];

  // Everything a subcommand can set, at its documented default. Each
  // subcommand's table points into the variables it uses; 0 keeps its
  // documented meaning where it has one (all cores, no deadline, run to
  // halt, unbounded cache) and is rejected where it cannot be honoured.
  // `batch` runs on all cores unless told otherwise, `verify` on one.
  BatchOptions Batch;
  Batch.Jobs = Cmd == "verify" ? 1 : 0;
  GridOptions Grid;
  ServeOptions Serve;
  AllocRequest Req;
  SimConfig Sim;
  Sim.TargetIterations = 10;
  Sim.MemLatency = 40;
  int RegsPerThread = 32, Nthd = 4;
  int64_t SampleCycles = 0;
  bool Json = false, Stats = false, Werror = false, Explain = false;
  bool AfterAlloc = false, Physical = false, Paired = false, Health = false;
  bool FetchMetrics = false;
  std::string ProfilePath, TraceCycles, Only, OutPath, HtmlOut, SocketPath;
  std::string Policy = "bounds";

  const std::map<std::string, std::vector<Flag>> Tables = {
      {"analyze", {}},
      {"alloc",
       {{"-nreg", &Batch.Nreg, 1},
        {"--explain", &Explain},
        {"--profile", &ProfilePath},
        {"--pgo-static", &Batch.StaticPGO},
        {"--allow-spill", &Batch.AllowSpill},
        {"--max-spills", &Batch.MaxSpills}}},
      {"run",
       {{"-nreg", &Batch.Nreg, 1},
        {"-iters", &Sim.TargetIterations},
        {"-memlat", &Sim.MemLatency},
        {"--trace-cycles", &TraceCycles},
        {"--sample-cycles", &SampleCycles}}},
      {"baseline", {{"-regs", &RegsPerThread, 1}}},
      {"sra", {{"-nthd", &Nthd, 1}, {"-nreg", &Batch.Nreg, 1}}},
      {"grid",
       {{"--engines", &Grid.NumEngines, 1, 16},
        {"--placement", &Policy},
        {"-nreg", &Grid.Nreg, 1},
        {"-iters", &Grid.Sim.TargetIterations},
        {"-memlat", &Grid.Sim.MemLatency},
        {"--hoplat", &Grid.HopLatency, 1},
        {"--credits", &Grid.InitialCredits, 1},
        {"--json", &Json},
        {"--trace-cycles", &TraceCycles},
        {"--sample-cycles", &SampleCycles}}},
      {"lint",
       {{"--json", &Json},
        {"--after-alloc", &AfterAlloc},
        {"--physical", &Physical},
        {"--only", &Only},
        {"-nreg", &Batch.Nreg, 1},
        {"--Werror", &Werror}}},
      {"verify",
       {{"--jobs", &Batch.Jobs},
        {"--json", &Json},
        {"--Werror", &Werror},
        {"-nreg", &Batch.Nreg, 1},
        {"--allow-spill", &Batch.AllowSpill},
        {"--max-spills", &Batch.MaxSpills},
        {"--pgo-static", &Batch.StaticPGO},
        {"--profile", &ProfilePath},
        {"--paired", &Paired}}},
      {"profile",
       {{"-iters", &Sim.TargetIterations},
        {"-memlat", &Sim.MemLatency},
        {"-o", &OutPath}}},
      {"batch",
       {{"--jobs", &Batch.Jobs},
        {"--cache", &Batch.UseCache},
        {"--stats", &Stats},
        {"--json", &Json},
        {"-nreg", &Batch.Nreg, 1},
        {"--profile", &ProfilePath},
        {"--pgo-static", &Batch.StaticPGO},
        {"--allow-spill", &Batch.AllowSpill},
        {"--max-spills", &Batch.MaxSpills},
        {"--deadline-ms", &Batch.DeadlineMs},
        {"--fault-inject", &Batch.Faults},
        {"--cache-bytes", &Batch.CacheBytes}}},
      {"serve",
       {{"--socket", &Serve.SocketPath},
        {"--workers", &Serve.Workers},
        {"--queue-cap", &Serve.QueueCapacity},
        {"--max-conns", &Serve.MaxConnections},
        {"--max-request-bytes", &Serve.MaxRequestBytes, 1},
        {"--deadline-ms", &Serve.DefaultDeadlineMs},
        {"--cache-bytes", &Serve.CacheBytes},
        {"--retry-after-ms", &Serve.RetryAfterMs},
        {"--fault-inject", &Serve.Faults}}},
      {"client",
       {{"--socket", &SocketPath},
        {"-nreg", &Req.Nreg, 1},
        {"--allow-spill", &Req.AllowSpill},
        {"--max-spills", &Req.MaxSpills},
        {"--deadline-ms", &Req.DeadlineMs},
        {"--profile-hash", &Req.ProfileHash},
        {"--health", &Health},
        {"--fetch-metrics", &FetchMetrics}}},
      {"trace-validate", {}},
      {"report", {{"--html", &HtmlOut}}},
  };
  const auto Table = Tables.find(Cmd);
  if (Table == Tables.end())
    return usage();
  std::vector<std::string> Args;
  if (!parseFlags(argc, argv, Table->second, Args))
    return 2;

  if (Cmd == "batch")
    return cmdBatch(Args, std::move(Batch), ProfilePath, Stats, Json);
  if (Cmd == "verify")
    return cmdVerify(Args, std::move(Batch), Paired, ProfilePath, Json,
                     Werror);
  if (Cmd == "serve")
    return Args.empty() ? cmdServe(std::move(Serve)) : usage();
  if (Cmd == "client")
    return Args.size() <= 1
               ? cmdClient(SocketPath, Args.empty() ? "" : Args[0], Health,
                           FetchMetrics, std::move(Req))
               : usage();

  // Every other subcommand takes exactly one file (or scenario).
  if (Args.size() != 1)
    return usage();
  const std::string &Path = Args[0];
  if (Cmd == "trace-validate")
    return cmdTraceValidate(Path);
  if (Cmd == "report")
    return cmdReport(Path, HtmlOut);
  if (Cmd == "grid")
    return cmdGrid(Path, Grid, Policy, Json, TraceCycles, SampleCycles);
  if (Cmd == "alloc")
    return cmdAlloc(Path, std::move(Batch), ProfilePath, Explain);
  if (Cmd == "run")
    return cmdRun(Path, std::move(Batch), Sim, TraceCycles, SampleCycles);

  // Lint inspects the program as written (no live-range renaming), so
  // diagnostics point at the user's own register names; the analysis
  // subcommands rename first like the full pipeline does.
  ErrorOr<MultiThreadProgram> MTP = loadFile(Path, /*Rename=*/Cmd != "lint");
  if (!MTP.ok()) {
    std::cerr << "error: " << MTP.status().str() << "\n";
    return 1;
  }
  if (Cmd == "analyze")
    return cmdAnalyze(*MTP);
  if (Cmd == "profile")
    return cmdProfile(*MTP, Sim, OutPath);
  if (Cmd == "baseline")
    return cmdBaseline(*MTP, RegsPerThread);
  if (Cmd == "sra")
    return cmdSra(*MTP, Nthd, Batch.Nreg);
  return cmdLint(MTP.take(), Json, AfterAlloc, Physical, Only, Batch.Nreg,
                 Werror);
}

} // namespace

int main(int argc, char **argv) {
  // Strip the global observability flags before subcommand parsing so every
  // subcommand accepts them without listing them in each flag table.
  std::string TraceOut;
  bool Metrics = false;
  std::vector<char *> Args;
  Args.reserve(static_cast<size_t>(argc));
  for (int I = 0; I < argc; ++I) {
    std::string_view Opt = argv[I];
    if (Opt == "--trace-out") {
      if (I + 1 >= argc) {
        std::cerr << "error: --trace-out: missing value\n";
        return 2;
      }
      TraceOut = argv[++I];
    } else if (Opt == "--metrics") {
      Metrics = true;
    } else {
      Args.push_back(argv[I]);
    }
  }
  if (!TraceOut.empty())
    TraceEngine::global().setEnabled(true);

  int Ret = dispatch(static_cast<int>(Args.size()), Args.data());

  if (!TraceOut.empty()) {
    TraceEngine::global().setEnabled(false);
    if (!writeTrace(TraceOut, TraceClock::Wall, TraceEngine::global().events()))
      Ret = Ret ? Ret : 1;
  }
  if (Metrics)
    MetricsRegistry::global().renderText(std::cerr);
  return Ret;
}
