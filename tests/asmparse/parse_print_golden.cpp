//===- parse_print_golden.cpp - One line per parsed text, for a golden diff ===//
//
// Pins the assembly text path byte for byte: what parseAssembly accepts and
// the exact message it rejects with, and the exact text the printer writes
// for every program the job path produces. One line per input:
//
//   <label> ok v=<hash>,... r=<hash>,... n128=<hash>,... n16=... n8=...
//   <label> err <code> <Status::str()>
//
// where each hash is the FNV-1a of one printed thread: `v` the parsed
// (virtual) program, `r` the same after renameLiveRanges, and `n<N>` the
// physical output of runSingleJob at Nreg N with spilling allowed (or that
// job's `[stage/code] reason` verdict when it fails). Bytes outside printable
// ASCII are written as \xHH.
//
// Inputs: the corpus of TextMutations.h. The files, Table-3 scenarios and
// generated programs get all five hash sets; each mutation gets its verdict
// and its `v` and `r` hashes. The golden allocates no mutation:
// ParserFuzzTest runs every accepted one through the job path, and the
// allocator's own fuzzing lives in alloc_fuzz_test.
//
// ctest's parse_print_golden_test runs it as `parse_print` and diffs the
// output against tests/asmparse/parse_print.golden
// (tests/stdout_golden_test.sh).
//
//===----------------------------------------------------------------------===//

#include "TextMutations.h"

#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace npral;
using npral::textmut::Input;

namespace {

std::string escape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    const auto B = static_cast<unsigned char>(C);
    if (B >= 0x20 && B < 0x7F && B != '\\') {
      Out += C;
    } else {
      char Buf[5];
      std::snprintf(Buf, sizeof(Buf), "\\x%02X", B);
      Out += Buf;
    }
  }
  return Out;
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

void report(const Input &In, bool Allocate) {
  std::string Line = escape(In.Label);
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(In.Text);
  if (!MTP.ok()) {
    Line += " err ";
    Line += statusCodeName(MTP.status().code());
    Line += ' ';
    Line += escape(MTP.status().str());
    std::printf("%s\n", Line.c_str());
    return;
  }
  Line += " ok";
  auto hashes = [&](const char *Key, const std::vector<Program> &Threads,
                    auto &&Transform) {
    Line += ' ';
    Line += Key;
    Line += '=';
    for (size_t T = 0; T < Threads.size(); ++T) {
      if (T)
        Line += ',';
      Line += hex(fnv1aHash(programToString(Transform(Threads[T]))));
    }
  };
  auto same = [](const Program &P) -> const Program & { return P; };
  hashes("v", MTP->Threads, same);
  hashes("r", MTP->Threads,
         [](const Program &P) { return renameLiveRanges(P); });
  if (Allocate) {
    for (int Nreg : {128, 16, 8}) {
      BatchJob Job;
      Job.Name = In.Label;
      Job.Text = In.Text;
      BatchOptions Opts;
      Opts.Nreg = Nreg;
      Opts.KeepPhysical = true;
      Opts.AllowSpill = true;
      BatchJobResult R = runSingleJob(Job, Opts);
      const std::string Key = "n" + std::to_string(Nreg);
      if (R.Success)
        hashes(Key.c_str(), R.Physical.Threads, same);
      else
        Line += ' ' + Key + '=' + escape(R.failureSummary());
    }
  }
  std::printf("%s\n", Line.c_str());
}

} // namespace

int main() {
  const std::vector<Input> Inputs = textmut::corpus();
  const size_t NumBases = textmut::baseCount(Inputs);
  for (size_t I = 0; I < Inputs.size(); ++I)
    report(Inputs[I], I < NumBases);
  return 0;
}
