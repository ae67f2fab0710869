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
// Inputs: every examples/asm and examples/asm/paired file, the three printed
// Table-3 scenarios and generated programs for seeds 0-649, each with all
// five hash sets; and 3,200 seeded line mutations of those texts (dropped,
// doubled and swapped lines, single-byte edits from an alphabet of
// separators, the six ASCII whitespace bytes, NUL and bytes >= 0x80, and
// identifier runs replaced by mnemonics, directives and edge-case integers),
// each with its verdict and its `v` and `r` hashes. A mutation is a parser
// input, not an allocator one: the allocator's own fuzzing lives in
// alloc_fuzz_test.
//
// ctest's parse_print_golden_test runs it as `parse_print` and diffs the
// output against tests/asmparse/parse_print.golden
// (tests/stdout_golden_test.sh).
//
//===----------------------------------------------------------------------===//

#include "analysis/LiveRangeRenaming.h"
#include "asmparse/AsmParser.h"
#include "driver/BatchPipeline.h"
#include "ir/IRPrinter.h"
#include "support/StringUtils.h"
#include "workloads/Harness.h"
#include "workloads/ProgramGenerator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

using namespace npral;

namespace {

constexpr size_t NumSeeds = 650;
constexpr size_t NumMutations = 3200;

struct Input {
  std::string Label;
  std::string Text;
};

/// splitmix64: a fixed stream per seed on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? static_cast<size_t>(next() % N) : 0; }

private:
  uint64_t State;
};

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

std::vector<Input> fileInputs() {
  const std::filesystem::path Dir(NPRAL_EXAMPLES_ASM_DIR);
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::recursive_directory_iterator(Dir))
    if (Entry.path().extension() == ".s")
      Names.push_back(Entry.path().lexically_relative(Dir).generic_string());
  std::sort(Names.begin(), Names.end());
  std::vector<Input> Inputs;
  for (const std::string &Name : Names) {
    ErrorOr<std::string> Text = readTextFile((Dir / Name).string());
    if (!Text.ok()) {
      std::fprintf(stderr, "parse_print_golden: %s\n",
                   Text.status().str().c_str());
      std::exit(1);
    }
    Inputs.push_back({Name, Text.take()});
  }
  return Inputs;
}

/// Bytes a single-byte edit writes: separators, comment starters, the six
/// ASCII whitespace bytes, identifier and digit bytes, NUL and non-ASCII.
constexpr char EditByteChars[] = ",:[]+-;#._0x9Az@ \t\n\v\f\r\0\x80\xA0\xC3\xFF";
constexpr std::string_view EditBytes(EditByteChars, sizeof(EditByteChars) - 1);

/// Replacements for a run of identifier bytes.
const char *const Tokens[] = {
    "add",     "addi",   "load",   "store",  "storea", "loada",
    "br",      "bnz",    "beq",    "call",   "ret",    "halt",
    "ctx",     "signal", "loopend", ".thread", ".func", ".entrylive",
    ".bogus",  "entry",  "bb1",    "bb2",    "r0",     "p3",
    "0x7fffffffffffffff", "9223372036854775808", "-9223372036854775808",
    "-0x8000000000000000", "0x", "-", "1a", "0X1F", "+5", "-0", "007",
    "\xC3\xA9", "\xA0", "a\vb", "x\fy", "\r", ", ", ":", "[", "]"};

bool isIdentByte(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '.';
}

std::string mutate(const std::string &Base, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Lines;
  size_t Pos = 0;
  for (;;) {
    size_t Eol = Base.find('\n', Pos);
    Lines.push_back(Base.substr(Pos, Eol == std::string::npos
                                         ? std::string::npos
                                         : Eol - Pos));
    if (Eol == std::string::npos)
      break;
    Pos = Eol + 1;
  }
  const size_t Edits = 1 + R.below(3);
  for (size_t E = 0; E < Edits; ++E) {
    const size_t L = R.below(Lines.size());
    std::string &Line = Lines[L];
    switch (R.below(9)) {
    case 0:
      if (Lines.size() > 1)
        Lines.erase(Lines.begin() + static_cast<std::ptrdiff_t>(L));
      break;
    case 1:
      Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(L), Line);
      break;
    case 2:
      std::swap(Line, Lines[R.below(Lines.size())]);
      break;
    case 3:
      if (!Line.empty())
        Line[R.below(Line.size())] = EditBytes[R.below(EditBytes.size())];
      break;
    case 4:
      Line.insert(Line.begin() + static_cast<std::ptrdiff_t>(
                                     R.below(Line.size() + 1)),
                  EditBytes[R.below(EditBytes.size())]);
      break;
    case 5:
      if (!Line.empty())
        Line.erase(R.below(Line.size()), 1);
      break;
    case 6: {
      // Replace the run of identifier bytes around one position.
      size_t At = R.below(Line.size() + 1);
      size_t Begin = At, End = At;
      while (Begin > 0 && isIdentByte(Line[Begin - 1]))
        --Begin;
      while (End < Line.size() && isIdentByte(Line[End]))
        ++End;
      Line.replace(Begin, End - Begin,
                   Tokens[R.below(std::size(Tokens))]);
      break;
    }
    case 7:
      Line.resize(R.below(Line.size() + 1));
      break;
    case 8:
      Line.insert(R.below(Line.size() + 1),
                  Tokens[R.below(std::size(Tokens))]);
      break;
    }
  }
  std::string Out;
  for (size_t I = 0; I < Lines.size(); ++I) {
    if (I)
      Out += '\n';
    Out += Lines[I];
  }
  return Out;
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
  std::vector<Input> Inputs = fileInputs();
  for (const Scenario &S : getAraScenarios()) {
    Input In{"table3/" + S.Name, {}};
    for (const Program &P :
         toMultiThreadProgram(buildScenarioWorkloads(S), S.Name).Threads)
      In.Text += programToString(P) + "\n";
    Inputs.push_back(std::move(In));
  }
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    GeneratorConfig Config;
    Config.TargetInstructions = 90;
    Config.CtxRatePerMille = 160;
    Inputs.push_back({"gen/" + std::to_string(Seed),
                      programToString(generateRandomProgram(Seed, Config))});
  }
  // Even mutations edit the hand-written files and Table-3 texts, odd ones
  // any text.
  const size_t NumBases = Inputs.size();
  const size_t NumFileBases = NumBases - NumSeeds;
  Inputs.reserve(NumBases + NumMutations);
  for (uint64_t K = 0; K < NumMutations; ++K) {
    const size_t Pool = K % 2 ? NumBases : NumFileBases;
    const Input &Base = Inputs[static_cast<size_t>(K * 7919) % Pool];
    Inputs.push_back({"mut/" + std::to_string(K) + "/" + Base.Label,
                      mutate(Base.Text, K)});
  }
  for (size_t I = 0; I < Inputs.size(); ++I)
    report(Inputs[I], I < NumBases);
  return 0;
}
