//===- ir/TextFormat.cpp --------------------------------------------------===//

#include "ir/TextFormat.h"

#include "support/Parse.h"

#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace balign;

std::string balign::printProgram(const Program &Prog) {
  std::ostringstream Out;
  Out << "program " << Prog.getName() << "\n";
  for (const Procedure &Proc : Prog.procedures()) {
    Out << "proc " << Proc.getName() << " {\n";
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
      const BasicBlock &Block = Proc.block(Id);
      std::string Name =
          Block.Name.empty() ? "b" + std::to_string(Id) : Block.Name;
      Out << "  " << Name << ": size " << Block.InstrCount << " "
          << terminatorKindName(Block.Kind);
      const std::vector<BlockId> &Succs = Proc.successors(Id);
      if (!Succs.empty()) {
        Out << " ->";
        for (BlockId Succ : Succs) {
          const BasicBlock &Target = Proc.block(Succ);
          std::string SuccName = Target.Name;
          if (SuccName.empty()) {
            SuccName = "b";
            SuccName += std::to_string(Succ);
          }
          Out << " " << SuccName;
        }
      }
      Out << "\n";
    }
    Out << "}\n";
  }
  return Out.str();
}

namespace {

/// A block line awaiting successor-name resolution. Its successor names
/// are SuccNames[FirstSucc, FirstSucc + NumSuccs) of its PendingProc.
struct PendingBlock {
  std::string_view Name;
  uint32_t Size;
  TerminatorKind Kind;
  uint32_t FirstSucc, NumSuccs;
  unsigned LineNo;
};

/// The block lines of the procedure being parsed.
struct PendingProc {
  std::vector<PendingBlock> Blocks;
  std::vector<std::string_view> SuccNames;
};

} // namespace

static std::optional<TerminatorKind> parseKind(std::string_view Word) {
  if (Word == "jump")
    return TerminatorKind::Unconditional;
  if (Word == "cond")
    return TerminatorKind::Conditional;
  if (Word == "multi")
    return TerminatorKind::Multiway;
  if (Word == "ret")
    return TerminatorKind::Return;
  return std::nullopt;
}

/// Parses the current "name: size N kind [-> succs...]" line into \p Out.
static bool parseBlockLine(LineTokenizer &P, PendingProc &Out) {
  const std::vector<std::string_view> &Tokens = P.Tokens;
  if (Tokens.size() < 4)
    return P.fail("expected '<name>: size <n> <kind> [-> succs]'");
  std::string_view Name = Tokens[0];
  if (Name.empty() || Name.back() != ':')
    return P.fail("block name must end in ':'");
  Name.remove_suffix(1);
  if (Name.empty())
    return P.fail("empty block name");
  if (Tokens[1] != "size")
    return P.fail("expected 'size'");
  std::optional<uint64_t> Size =
      Tokens[2].size() <= 9 ? parseFlagInt(Tokens[2]) : std::nullopt;
  if (!Size || *Size < 1)
    return P.fail("block size must be a positive integer");
  // Bound the size so address assignment (InstrCount * BytesPerInstr,
  // summed over items) can never wrap a uint64_t — a crafted file with
  // huge blocks must fail here, not corrupt addresses downstream.
  if (*Size > MaxBlockInstrCount)
    return P.fail("block size " + std::string(Tokens[2]) +
                  " exceeds the limit of " +
                  std::to_string(MaxBlockInstrCount) + " instructions");
  std::optional<TerminatorKind> Kind = parseKind(Tokens[3]);
  if (!Kind)
    return P.fail("unknown terminator kind '" + std::string(Tokens[3]) + "'");

  PendingBlock Block = {Name,
                        static_cast<uint32_t>(*Size),
                        *Kind,
                        static_cast<uint32_t>(Out.SuccNames.size()),
                        0,
                        P.LineNo};
  if (Tokens.size() != 4) {
    if (Tokens[4] != "->")
      return P.fail("expected '->' before successor list");
    if (Tokens.size() == 5)
      return P.fail("'->' requires at least one successor");
    Out.SuccNames.insert(Out.SuccNames.end(), Tokens.begin() + 5,
                         Tokens.end());
    Block.NumSuccs = static_cast<uint32_t>(Tokens.size() - 5);
  }
  Out.Blocks.push_back(Block);
  return true;
}

/// Resolves the pending blocks into a procedure of \p Prog; returns false
/// on error.
static bool finishProc(LineTokenizer &P, std::string_view ProcName,
                       const PendingProc &Pending, Program &Prog) {
  Procedure Proc{std::string(ProcName)};
  std::unordered_map<std::string_view, BlockId> Ids;
  Ids.reserve(Pending.Blocks.size());
  for (const PendingBlock &PB : Pending.Blocks) {
    if (!Ids.emplace(PB.Name, static_cast<BlockId>(Proc.numBlocks()))
             .second) {
      P.LineNo = PB.LineNo;
      return P.fail("duplicate block name '" + std::string(PB.Name) + "'");
    }
    BasicBlock Block;
    Block.Name = PB.Name;
    Block.InstrCount = PB.Size;
    Block.Kind = PB.Kind;
    Proc.addBlock(std::move(Block));
  }
  for (BlockId Id = 0; Id != Pending.Blocks.size(); ++Id) {
    const PendingBlock &PB = Pending.Blocks[Id];
    for (uint32_t S = PB.FirstSucc; S != PB.FirstSucc + PB.NumSuccs; ++S) {
      auto It = Ids.find(Pending.SuccNames[S]);
      if (It == Ids.end()) {
        P.LineNo = PB.LineNo;
        return P.fail("unknown successor '" +
                      std::string(Pending.SuccNames[S]) + "'");
      }
      Proc.addEdge(Id, It->second);
    }
  }
  std::string VerifyError;
  if (!Proc.verify(&VerifyError))
    return P.fail(VerifyError);
  Prog.addProcedure(std::move(Proc));
  return true;
}

std::optional<Program> balign::parseProgram(const std::string &Text,
                                            std::string *Error) {
  LineTokenizer P(Text, Error);
  if (!P.nextLine() || P.Tokens.size() != 2 || P.Tokens[0] != "program") {
    P.fail("expected 'program <name>' header");
    return std::nullopt;
  }
  Program Prog{std::string(P.Tokens[1])};

  std::unordered_set<std::string_view> ProcNames;
  PendingProc Pending;
  while (P.nextLine()) {
    if (P.Tokens.size() != 3 || P.Tokens[0] != "proc" || P.Tokens[2] != "{") {
      P.fail("expected 'proc <name> {'");
      return std::nullopt;
    }
    std::string_view ProcName = P.Tokens[1];
    if (!ProcNames.insert(ProcName).second) {
      P.fail("duplicate procedure '" + std::string(ProcName) + "'");
      return std::nullopt;
    }
    Pending.Blocks.clear();
    Pending.SuccNames.clear();
    bool Closed = false;
    while (P.nextLine()) {
      if (P.Tokens.size() == 1 && P.Tokens[0] == "}") {
        Closed = true;
        break;
      }
      if (!parseBlockLine(P, Pending))
        return std::nullopt;
    }
    if (!Closed) {
      P.fail("unterminated proc '" + std::string(ProcName) + "'");
      return std::nullopt;
    }
    if (Pending.Blocks.empty()) {
      P.fail("proc '" + std::string(ProcName) + "' has no blocks");
      return std::nullopt;
    }
    if (!finishProc(P, ProcName, Pending, Prog))
      return std::nullopt;
  }
  if (Prog.numProcedures() == 0) {
    P.fail("program has no procedures");
    return std::nullopt;
  }
  return Prog;
}
