//===- ExecutionProfile.cpp -----------------------------------------------===//

#include "profile/ExecutionProfile.h"

#include "ir/IRPrinter.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace npral;

uint64_t npral::profileCodeHash(const Program &Thread) {
  return fnv1aHash(programToString(Thread));
}

std::string ExecutionProfile::print() const {
  std::ostringstream OS;
  OS << "npprof 1\n";
  OS << "program " << ProgramName << "\n";
  for (const ThreadProfile &TP : Threads) {
    OS << "thread " << TP.Index << " " << formatString("%016llx",
                                                       (unsigned long long)
                                                           TP.CodeHash)
       << " " << TP.Name << "\n";
    for (const auto &[Block, Count] : TP.BlockCounts)
      OS << "block " << Block << " " << Count << "\n";
  }
  OS << "end\n";
  return OS.str();
}

std::optional<ExecutionProfile>
ExecutionProfile::parse(std::string_view Text, std::string &Error) {
  ExecutionProfile P;
  ThreadProfile *Cur = nullptr;
  bool SawHeader = false, SawProgram = false, SawEnd = false;
  int LineNo = 0;

  auto fail = [&](const std::string &Msg) {
    Error = "npprof line " + std::to_string(LineNo) + ": " + Msg;
    return std::nullopt;
  };

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Eol == std::string_view::npos ? std::string_view::npos
                                           : Eol - Pos);
    Pos = Eol == std::string_view::npos ? Text.size() + 1 : Eol + 1;
    ++LineNo;
    Line = trim(Line);
    if (Line.empty() || Line[0] == '#')
      continue;
    if (SawEnd)
      return fail("content after 'end'");

    std::vector<std::string_view> Tok = split(Line, ' ');
    std::string_view Kw = Tok[0];

    if (!SawHeader) {
      if (Kw != "npprof" || Tok.size() != 2 || Tok[1] != "1")
        return fail("expected 'npprof 1' header");
      SawHeader = true;
      continue;
    }
    if (Kw == "program") {
      if (SawProgram)
        return fail("duplicate 'program' line");
      SawProgram = true;
      // The name is everything after the keyword (may contain spaces).
      P.ProgramName = std::string(trim(Line.substr(Kw.size())));
      continue;
    }
    if (!SawProgram)
      return fail("expected 'program' line");
    if (Kw == "thread") {
      if (Tok.size() < 3)
        return fail("'thread' needs <index> <code-hash> [<name>]");
      std::optional<int64_t> Idx = parseInteger(Tok[1]);
      if (!Idx || *Idx < 0)
        return fail("bad thread index");
      uint64_t Hash = 0;
      for (char C : Tok[2]) {
        int Digit = C >= '0' && C <= '9'   ? C - '0'
                    : C >= 'a' && C <= 'f' ? C - 'a' + 10
                    : C >= 'A' && C <= 'F' ? C - 'A' + 10
                                           : -1;
        if (Digit < 0)
          return fail("bad code hash");
        Hash = (Hash << 4) | static_cast<uint64_t>(Digit);
      }
      ThreadProfile TP;
      TP.Index = static_cast<int>(*Idx);
      TP.CodeHash = Hash;
      // The name is the remainder of the line after the hash token (the
      // token views alias Line, so pointer arithmetic gives its offset).
      size_t NameAt =
          static_cast<size_t>(Tok[2].data() - Line.data()) + Tok[2].size();
      TP.Name = std::string(trim(Line.substr(NameAt)));
      P.Threads.push_back(std::move(TP));
      Cur = &P.Threads.back();
      continue;
    }
    if (Kw == "block") {
      if (!Cur)
        return fail("'block' before any 'thread'");
      std::optional<int64_t> Block =
          Tok.size() == 3 ? parseInteger(Tok[1]) : std::nullopt;
      std::optional<int64_t> Count =
          Tok.size() == 3 ? parseInteger(Tok[2]) : std::nullopt;
      if (!Block || !Count || *Block < 0 || *Count < 0)
        return fail("'block' needs <block-id> <count>");
      if (!Cur->BlockCounts.emplace(static_cast<int>(*Block), *Count).second)
        return fail("duplicate 'block' entry");
      continue;
    }
    if (Kw == "end") {
      if (Tok.size() != 1)
        return fail("trailing tokens after 'end'");
      SawEnd = true;
      continue;
    }
    return fail("unknown keyword '" + std::string(Kw) + "'");
  }
  if (!SawHeader)
    return fail("empty profile");
  if (!SawEnd)
    return fail("missing 'end'");
  return P;
}

const ThreadProfile *
ExecutionProfile::findByCodeHash(uint64_t CodeHash) const {
  for (const ThreadProfile &TP : Threads)
    if (TP.CodeHash == CodeHash)
      return &TP;
  return nullptr;
}

CostModel ExecutionProfile::costModel(int Thread, int NumBlocks) const {
  CostModel CM;
  if (Thread < 0 || static_cast<size_t>(Thread) >= Threads.size())
    return CM;
  const ThreadProfile &TP = Threads[static_cast<size_t>(Thread)];
  for (int B = 0; B < NumBlocks; ++B)
    CM.setBlockWeight(B, TP.blockCount(B));
  return CM;
}
