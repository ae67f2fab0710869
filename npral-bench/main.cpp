//===- main.cpp - npral-bench entry point ---------------------------------===//
//
// Usage: npral_bench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--workdir <dir>]
//
// Runs one workload in-process against the public API and prints, after
// human-readable notes, one JSON line: correct, attempted, failed and
// every metric by name with its unit. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run rebuilds each job from its
// layers' public functions under spans and reports the per-layer split.
// Run from the repository root (the fuzz goldens and examples/asm are
// read from there). Exits 2 without a result on bad usage or a set-up
// error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace npralbench;

namespace {

int usage(const char *Msg) {
  fprintf(stderr,
          "npral_bench: %s\nusage: npral_bench --workload "
          "batch_corpus|fuzz_adversarial|serve_mixed|grid_table3 --seed N "
          "--seconds S --trace 0|1 [--workdir DIR]\n",
          Msg);
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = strtod(S, &End);
  return End != S && *End == '\0' && std::isfinite(Out);
}

void printJSON(const RunResult &R) {
  printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
         "\"metrics\": {",
         R.Correct && R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
         static_cast<long long>(R.Attempted), static_cast<long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", First ? "" : ", ",
           Name.c_str(), std::isfinite(VU.first) ? VU.first : 0.0,
           VU.second.c_str());
    First = false;
  }
  printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool HaveWorkload = false, HaveSeconds = false;
  for (int I = 1; I < Argc; I += 2) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Val = Argv[I + 1];
    double N = 0;
    if (Flag == "--workload") {
      Cfg.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed" && parseNumber(Val, N) && N >= 0 &&
               N == std::floor(N)) {
      Cfg.Seed = static_cast<uint64_t>(N);
    } else if (Flag == "--seconds" && parseNumber(Val, N) && N > 0 &&
               N <= 600) {
      Cfg.Seconds = N;
      HaveSeconds = true;
    } else if (Flag == "--trace" && (std::string(Val) == "0" ||
                                     std::string(Val) == "1")) {
      Cfg.Trace = std::string(Val) == "1";
    } else if (Flag == "--workdir") {
      Cfg.WorkDir = Val;
    } else {
      return usage(("bad argument " + Flag + " " + Val).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeconds)
    return usage("--workload and --seconds are required");
  Cfg.SpansPath = Cfg.WorkDir + "/spans-" + Cfg.Workload + ".json";

  void (*Run)(const RunConfig &, RunResult &) = nullptr;
  if (Cfg.Workload == "batch_corpus")
    Run = runBatchCorpus;
  else if (Cfg.Workload == "fuzz_adversarial")
    Run = runFuzzAdversarial;
  else if (Cfg.Workload == "serve_mixed")
    Run = runServeMixed;
  else if (Cfg.Workload == "grid_table3")
    Run = runGridTable3;
  else
    return usage(("unknown workload " + Cfg.Workload).c_str());

  RunResult R;
  try {
    Run(Cfg, R);
  } catch (const std::exception &E) {
    fprintf(stderr, "npral_bench: %s: %s\n", Cfg.Workload.c_str(), E.what());
    return 2;
  }
  for (const std::string &N : R.Notes)
    printf("# %s\n", N.c_str());
  printJSON(R);
  return 0;
}
