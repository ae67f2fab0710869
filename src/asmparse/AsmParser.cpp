//===- AsmParser.cpp ------------------------------------------------------===//

#include "asmparse/AsmParser.h"

#include "asmparse/FunctionExpansion.h"

#include "ir/IRVerifier.h"
#include "support/StringUtils.h"

#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <vector>

using namespace npral;

namespace {

/// Token kinds produced by the per-line lexer.
enum class TokKind { Ident, Integer, Comma, Colon, LBracket, RBracket, Plus,
                     End };

struct Token {
  TokKind Kind = TokKind::End;
  std::string_view Text;
  int64_t Value = 0;
  int Column = 0;
};

/// Lexes one source line into tokens. Comments start with ';' or '#'.
class LineLexer {
public:
  LineLexer(std::string_view Line, int LineNo) : Line(Line), LineNo(LineNo) {
    advance();
  }

  const Token &peek() const { return Cur; }
  Token take() {
    Token T = Cur;
    advance();
    return T;
  }
  bool atEnd() const { return Cur.Kind == TokKind::End; }
  SourceLoc loc() const { return SourceLoc{LineNo, Cur.Column + 1}; }

  Status error(const std::string &Message) const {
    return Status::error(StatusCode::ParseError, Message, loc());
  }

private:
  std::string_view Line;
  int LineNo;
  size_t Pos = 0;
  Token Cur;

  void advance() {
    while (Pos < Line.size() &&
           std::isspace(static_cast<unsigned char>(Line[Pos])))
      ++Pos;
    Cur = Token();
    Cur.Column = static_cast<int>(Pos);
    if (Pos >= Line.size() || Line[Pos] == ';' || Line[Pos] == '#') {
      Cur.Kind = TokKind::End;
      return;
    }
    char C = Line[Pos];
    switch (C) {
    case ',':
      Cur.Kind = TokKind::Comma;
      ++Pos;
      return;
    case ':':
      Cur.Kind = TokKind::Colon;
      ++Pos;
      return;
    case '[':
      Cur.Kind = TokKind::LBracket;
      ++Pos;
      return;
    case ']':
      Cur.Kind = TokKind::RBracket;
      ++Pos;
      return;
    case '+':
      Cur.Kind = TokKind::Plus;
      ++Pos;
      return;
    default:
      break;
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      ++Pos;
      while (Pos < Line.size() &&
             (std::isalnum(static_cast<unsigned char>(Line[Pos]))))
        ++Pos;
      Cur.Text = Line.substr(Start, Pos - Start);
      if (auto V = parseInteger(Cur.Text)) {
        Cur.Kind = TokKind::Integer;
        Cur.Value = *V;
      } else {
        // Malformed number; surface as an identifier so the caller reports a
        // shape error with context.
        Cur.Kind = TokKind::Ident;
      }
      return;
    }
    // Identifier.
    size_t Start = Pos;
    while (Pos < Line.size() &&
           (std::isalnum(static_cast<unsigned char>(Line[Pos])) ||
            Line[Pos] == '_' || Line[Pos] == '.'))
      ++Pos;
    if (Pos == Start) {
      // Unknown character: consume it so we do not loop.
      ++Pos;
    }
    Cur.Kind = TokKind::Ident;
    Cur.Text = Line.substr(Start, Pos - Start);
  }
};

/// Parses one thread section into a Program, resolving branch labels after
/// all blocks are known.
class ThreadParser {
public:
  /// \p CallNames is the file-wide table `call` sites index into.
  /// Functions (\p IsFunction) skip thread-only checks; their bodies are
  /// verified after inline expansion into a thread.
  ThreadParser(std::string Name, std::vector<std::string> *CallNames,
               bool IsFunction)
      : CallNames(CallNames), IsFunction(IsFunction) {
    P.Name = std::move(Name);
  }

  Status parseLine(LineLexer &Lex);
  ErrorOr<Program> finish();

private:
  Program P;
  std::vector<std::string> *CallNames;
  bool IsFunction;
  std::map<std::string, Reg, std::less<>> RegByName;
  std::map<std::string, int, std::less<>> BlockByName;
  /// Branch fixups: (block, instr index, label, loc).
  struct Fixup {
    int Block;
    int Instr;
    std::string Label;
    SourceLoc Loc;
  };
  std::vector<Fixup> Fixups;
  /// Blocks the parser named itself ("bb<N>", opened by an instruction
  /// after a mid-stream branch) rather than a label.
  std::set<int> AutoNamed;
  bool SawInstruction = false;
  /// Set after a control-flow instruction: the next instruction (if no
  /// label intervenes) opens a fresh block, so conditional branches may
  /// appear mid-stream in the source.
  bool NeedNewBlock = false;

  int currentBlock() {
    if (P.Blocks.empty())
      startBlock("entry");
    return P.getNumBlocks() - 1;
  }

  int startBlock(const std::string &Name) {
    int NewBlock = P.addBlock(Name);
    BlockByName.emplace(Name, NewBlock);
    // Layout fallthrough: the previous block falls into this one unless it
    // already ends closed.
    if (NewBlock > 0) {
      BasicBlock &PrevBB = P.block(NewBlock - 1);
      bool Closed =
          !PrevBB.Instrs.empty() && PrevBB.Instrs.back().isTerminator();
      if (!Closed)
        PrevBB.FallThrough = NewBlock;
    }
    return NewBlock;
  }

  Reg getReg(std::string_view Name) {
    auto It = RegByName.find(Name);
    if (It != RegByName.end())
      return It->second;
    Reg R = P.addReg(std::string(Name));
    RegByName.emplace(std::string(Name), R);
    return R;
  }

  Status expect(LineLexer &Lex, TokKind Kind, const char *What) {
    if (Lex.peek().Kind != Kind)
      return Lex.error(std::string("expected ") + What);
    Lex.take();
    return Status::success();
  }

  Status parseReg(LineLexer &Lex, Reg &Out) {
    if (Lex.peek().Kind != TokKind::Ident)
      return Lex.error("expected register name");
    Out = getReg(Lex.take().Text);
    return Status::success();
  }

  Status parseImm(LineLexer &Lex, int64_t &Out) {
    if (Lex.peek().Kind != TokKind::Integer)
      return Lex.error("expected integer immediate");
    Out = Lex.take().Value;
    return Status::success();
  }

  /// Parse "[base]" or "[base+off]" (off may be negative).
  Status parseMemOperand(LineLexer &Lex, Reg &Base, int64_t &Offset) {
    if (Status S = expect(Lex, TokKind::LBracket, "'['"); !S.ok())
      return S;
    if (Status S = parseReg(Lex, Base); !S.ok())
      return S;
    Offset = 0;
    if (Lex.peek().Kind == TokKind::Plus) {
      Lex.take();
      if (Status S = parseImm(Lex, Offset); !S.ok())
        return S;
    } else if (Lex.peek().Kind == TokKind::Integer && Lex.peek().Value < 0) {
      Offset = Lex.take().Value;
    }
    return expect(Lex, TokKind::RBracket, "']'");
  }

  Status parseLabelOperand(LineLexer &Lex, std::string &Out) {
    if (Lex.peek().Kind != TokKind::Ident)
      return Lex.error("expected label");
    Out = std::string(Lex.take().Text);
    return Status::success();
  }

  Status parseDirective(LineLexer &Lex, std::string_view Directive);
  Status parseInstruction(LineLexer &Lex, Opcode Op);
};

Status ThreadParser::parseDirective(LineLexer &Lex, std::string_view Dir) {
  if (Dir == ".entrylive") {
    // Entry-live names declare their registers immediately: they are input
    // bindings and may be referenced only inside expanded .func bodies (or
    // not at all).
    for (;;) {
      if (Lex.peek().Kind != TokKind::Ident)
        return Lex.error("expected register name in .entrylive");
      P.EntryLiveRegs.push_back(getReg(Lex.take().Text));
      if (Lex.peek().Kind != TokKind::Comma)
        break;
      Lex.take();
    }
    return Status::success();
  }
  return Lex.error("unknown directive '" + std::string(Dir) + "'");
}

Status ThreadParser::parseInstruction(LineLexer &Lex, Opcode Op) {
  SawInstruction = true;
  if (NeedNewBlock) {
    AutoNamed.insert(startBlock("bb" + std::to_string(P.getNumBlocks())));
    NeedNewBlock = false;
  }
  const OpcodeInfo &Info = getOpcodeInfo(Op);
  Instruction I(Op);
  std::string Label;
  SourceLoc Loc = Lex.loc();
  (void)Loc;

  // `call f` carries the function name via the file-wide name table; the
  // site is expanded inline after the whole file is parsed.
  if (Op == Opcode::Call) {
    std::string FuncName;
    if (Status S = parseLabelOperand(Lex, FuncName); !S.ok())
      return S;
    if (!Lex.atEnd())
      return Lex.error("trailing tokens after instruction");
    I.Imm = static_cast<int64_t>(CallNames->size());
    CallNames->push_back(FuncName);
    P.block(currentBlock()).Instrs.push_back(I);
    return Status::success();
  }

  auto comma = [&]() { return expect(Lex, TokKind::Comma, "','"); };

  switch (Info.Shape) {
  case OperandShape::None:
    break;
  case OperandShape::DefImm:
    if (Status S = parseReg(Lex, I.Def); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseImm(Lex, I.Imm); !S.ok())
      return S;
    break;
  case OperandShape::DefUse:
    if (Status S = parseReg(Lex, I.Def); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use1); !S.ok())
      return S;
    break;
  case OperandShape::DefUseUse:
    if (Status S = parseReg(Lex, I.Def); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use1); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use2); !S.ok())
      return S;
    break;
  case OperandShape::DefUseImm:
    if (Status S = parseReg(Lex, I.Def); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Op == Opcode::Load) {
      if (Status S = parseMemOperand(Lex, I.Use1, I.Imm); !S.ok())
        return S;
    } else {
      if (Status S = parseReg(Lex, I.Use1); !S.ok())
        return S;
      if (Status S = comma(); !S.ok())
        return S;
      if (Status S = parseImm(Lex, I.Imm); !S.ok())
        return S;
    }
    break;
  case OperandShape::UseUseImm: // store [base+off], value
    if (Status S = parseMemOperand(Lex, I.Use1, I.Imm); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use2); !S.ok())
      return S;
    break;
  case OperandShape::UseImm: // storea addr, value
    if (Status S = parseImm(Lex, I.Imm); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use1); !S.ok())
      return S;
    break;
  case OperandShape::ImmOnly: // signal ch / wait ch
    if (Status S = parseImm(Lex, I.Imm); !S.ok())
      return S;
    break;
  case OperandShape::Target:
    if (Status S = parseLabelOperand(Lex, Label); !S.ok())
      return S;
    break;
  case OperandShape::UseUseTarget:
    if (Status S = parseReg(Lex, I.Use1); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseReg(Lex, I.Use2); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseLabelOperand(Lex, Label); !S.ok())
      return S;
    break;
  case OperandShape::UseTarget:
    if (Status S = parseReg(Lex, I.Use1); !S.ok())
      return S;
    if (Status S = comma(); !S.ok())
      return S;
    if (Status S = parseLabelOperand(Lex, Label); !S.ok())
      return S;
    break;
  }

  if (!Lex.atEnd())
    return Lex.error("trailing tokens after instruction");

  int B = currentBlock();
  P.block(B).Instrs.push_back(I);
  if (!Label.empty())
    Fixups.push_back(
        {B, static_cast<int>(P.block(B).Instrs.size()) - 1, Label, Loc});
  if (I.isBranch() || I.Op == Opcode::Halt || I.Op == Opcode::Ret)
    NeedNewBlock = true;
  return Status::success();
}

Status ThreadParser::parseLine(LineLexer &Lex) {
  if (Lex.atEnd())
    return Status::success();

  Token First = Lex.take();
  if (First.Kind != TokKind::Ident)
    return Lex.error("expected label, directive, or instruction");

  // Directive?
  if (!First.Text.empty() && First.Text.front() == '.')
    return parseDirective(Lex, First.Text);

  // Label?
  if (Lex.peek().Kind == TokKind::Colon) {
    Lex.take();
    std::string Name(First.Text);
    if (auto It = BlockByName.find(Name); It != BlockByName.end()) {
      if (!AutoNamed.count(It->second))
        return Lex.error("duplicate label '" + Name + "'");
      // The parser gave this name to a block it opened itself; printed
      // programs label their blocks "bb<id>" as well. The label takes the
      // name, and the parser's block moves to the first free "<name>.<k>".
      const int Auto = It->second;
      BlockByName.erase(It);
      const std::string Prefix = Name + ".";
      int K = 1;
      while (BlockByName.count(Prefix + std::to_string(K)))
        ++K;
      const std::string Renamed = Prefix + std::to_string(K);
      P.block(Auto).NameId = P.Strings.intern(Renamed);
      BlockByName.emplace(Renamed, Auto);
    }
    startBlock(Name);
    NeedNewBlock = false;
    if (!Lex.atEnd())
      return Lex.error("unexpected tokens after label");
    return Status::success();
  }

  // Instruction.
  Opcode Op;
  if (!parseOpcode(First.Text, Op))
    return Lex.error("unknown mnemonic '" + std::string(First.Text) + "'");
  return parseInstruction(Lex, Op);
}

ErrorOr<Program> ThreadParser::finish() {
  if (!SawInstruction)
    return Status::error(StatusCode::ParseError,
                         "thread '" + P.Name + "' has no instructions");

  for (const Fixup &F : Fixups) {
    auto It = BlockByName.find(F.Label);
    if (It == BlockByName.end())
      return Status::error(StatusCode::ParseError,
                           "undefined label '" + F.Label + "'", F.Loc);
    P.block(F.Block).Instrs[static_cast<size_t>(F.Instr)].Target = It->second;
  }

  // Threads are verified by the caller after call expansion; function
  // bodies are verified as part of the threads they expand into.
  return std::move(P);
}

} // namespace

ErrorOr<MultiThreadProgram> npral::parseAssembly(std::string_view Source) {
  MultiThreadProgram MTP;
  std::map<std::string, Program> Functions;
  std::vector<std::string> CallNames;
  std::unique_ptr<ThreadParser> Cur;
  bool CurIsFunction = false;
  std::string CurFuncName;

  auto finishCurrent = [&]() -> Status {
    if (!Cur)
      return Status::success();
    ErrorOr<Program> P = Cur->finish();
    if (!P.ok())
      return P.status();
    if (CurIsFunction) {
      if (Functions.count(CurFuncName))
        return Status::error(StatusCode::ParseError,
                             "duplicate function '" + CurFuncName + "'");
      Functions.emplace(CurFuncName, P.take());
    } else {
      MTP.Threads.push_back(P.take());
    }
    Cur.reset();
    return Status::success();
  };

  int LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Source.size()) {
    size_t Eol = Source.find('\n', Pos);
    std::string_view Line = Source.substr(
        Pos, Eol == std::string_view::npos ? std::string_view::npos
                                           : Eol - Pos);
    ++LineNo;

    LineLexer Lex(Line, LineNo);
    if (!Lex.atEnd()) {
      bool IsThread = Lex.peek().Kind == TokKind::Ident &&
                      Lex.peek().Text == ".thread";
      bool IsFunc = Lex.peek().Kind == TokKind::Ident &&
                    Lex.peek().Text == ".func";
      if (IsThread || IsFunc) {
        if (Status S = finishCurrent(); !S.ok())
          return S;
        Lex.take();
        if (Lex.peek().Kind != TokKind::Ident)
          return Status::error(StatusCode::ParseError,
                               IsFunc ? "expected function name after .func"
                                      : "expected thread name after .thread",
                               Lex.loc());
        std::string Name(Lex.take().Text);
        CurIsFunction = IsFunc;
        CurFuncName = Name;
        Cur = std::make_unique<ThreadParser>(Name, &CallNames, IsFunc);
      } else {
        if (!Cur) {
          Cur = std::make_unique<ThreadParser>("main", &CallNames, false);
          CurIsFunction = false;
        }
        if (Status S = Cur->parseLine(Lex); !S.ok())
          return S;
      }
    }

    if (Eol == std::string_view::npos)
      break;
    Pos = Eol + 1;
  }

  if (Status S = finishCurrent(); !S.ok())
    return S;
  if (MTP.Threads.empty())
    return Status::error(StatusCode::ParseError, "no threads in input");
  for (Program &T : MTP.Threads) {
    if (Status S = expandCalls(T, CallNames, Functions); !S.ok())
      return S;
    if (Status S = verifyProgram(T); !S.ok())
      return S;
  }
  return MTP;
}

ErrorOr<Program> npral::parseSingleProgram(std::string_view Source) {
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Source);
  if (!MTP.ok())
    return MTP.status();
  if (MTP->Threads.size() != 1)
    return Status::error(StatusCode::ParseError,
                         "expected exactly one thread, found " +
                         std::to_string(MTP->Threads.size()));
  return std::move(MTP->Threads.front());
}
