//===- TextMutations.h - The parse/print corpus and its mutations -*- C++ -*-===//
///
/// \file
/// The assembly texts tests/asmparse/parse_print.golden is recorded over:
/// every examples/asm and examples/asm/paired file, the three printed
/// Table-3 scenarios, generated programs for seeds 0-649, and 3,200 seeded
/// line mutations of those texts (dropped, doubled and swapped lines,
/// single-byte edits from an alphabet of separators, the six ASCII
/// whitespace bytes, NUL and bytes >= 0x80, and identifier runs replaced by
/// mnemonics, directives and edge-case integers). parse_print_golden.cpp
/// prints one golden line per text; FuzzTest.cpp runs every mutation the
/// parser accepts through the job path. Includers define
/// NPRAL_EXAMPLES_ASM_DIR.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_TESTS_ASMPARSE_TEXTMUTATIONS_H
#define NPRAL_TESTS_ASMPARSE_TEXTMUTATIONS_H

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

namespace npral {
namespace textmut {

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

inline std::vector<Input> fileInputs() {
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
      std::fprintf(stderr, "text mutations: %s\n",
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
inline const char *const Tokens[] = {
    "add",     "addi",   "load",   "store",  "storea", "loada",
    "br",      "bnz",    "beq",    "call",   "ret",    "halt",
    "ctx",     "signal", "loopend", ".thread", ".func", ".entrylive",
    ".bogus",  "entry",  "bb1",    "bb2",    "r0",     "p3",
    "0x7fffffffffffffff", "9223372036854775808", "-9223372036854775808",
    "-0x8000000000000000", "0x", "-", "1a", "0X1F", "+5", "-0", "007",
    "\xC3\xA9", "\xA0", "a\vb", "x\fy", "\r", ", ", ":", "[", "]"};

inline bool isIdentByte(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '.';
}

/// One to three seeded line edits of \p Base.
inline std::string mutate(const std::string &Base, uint64_t Seed) {
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

/// The corpus in golden order: the files, the printed Table-3 scenarios
/// and the generator seeds (the first baseCount() texts, the bases), then
/// NumMutations mutations of them.
inline std::vector<Input> corpus() {
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
  return Inputs;
}

/// How many of corpus()'s texts are bases; the rest are mutations.
inline size_t baseCount(const std::vector<Input> &Corpus) {
  return Corpus.size() - NumMutations;
}

} // namespace textmut
} // namespace npral

#endif // NPRAL_TESTS_ASMPARSE_TEXTMUTATIONS_H
