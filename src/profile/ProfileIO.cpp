//===- profile/ProfileIO.cpp -------------------------------------------------------===//

#include "profile/ProfileIO.h"

#include "robust/FaultInjector.h"
#include "support/Parse.h"
#include "trace/Scope.h"

#include <cassert>
#include <sstream>
#include <string_view>
#include <unordered_map>

using namespace balign;

static std::string blockName(const Procedure &Proc, BlockId Id) {
  const BasicBlock &Block = Proc.block(Id);
  return Block.Name.empty() ? "b" + std::to_string(Id) : Block.Name;
}

std::string balign::printProgramProfile(const Program &Prog,
                                        const ProgramProfile &Profile) {
  assert(Profile.Procs.size() == Prog.numProcedures() &&
         "profile does not match program");
  std::ostringstream Out;
  Out << "profile " << Prog.getName() << "\n";
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    const ProcedureProfile &PP = Profile.Procs[P];
    Out << "proc " << Proc.getName() << " {\n";
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
      Out << "  " << blockName(Proc, Id) << ": " << PP.blockCount(Id);
      const std::vector<BlockId> &Succs = Proc.successors(Id);
      if (!Succs.empty()) {
        Out << " ->";
        for (size_t S = 0; S != Succs.size(); ++S)
          Out << " " << blockName(Proc, Succs[S]) << ":"
              << PP.edgeCount(Id, S);
      }
      Out << "\n";
    }
    Out << "}\n";
  }
  return Out.str();
}

/// A count: at most 20 characters, so a zero-padded 21-digit count is
/// rejected, and a value that fits uint64_t (profiles with saturated
/// hardware counters legitimately carry the UINT64_MAX sentinel itself,
/// and the lint saturation check wants to see it).
static std::optional<uint64_t> parseCount(std::string_view Text) {
  if (Text.size() > 20)
    return std::nullopt;
  return parseFlagInt(Text);
}

std::optional<ProgramProfile>
balign::parseProgramProfile(const Program &Prog, const std::string &Text,
                            std::string *Error) {
  ScopedSpan ParseSpan("profile.parse", SpanCat::Io);
  LineTokenizer P(Text, Error);
  // balign-shield fault site: a corrupt profile record manifests to
  // callers exactly like this injected failure — an error return through
  // the parser's normal channel, never an exception.
  std::string Fault;
  if (FaultInjector::instance().shouldFail(FaultSite::ProfileParse, &Fault)) {
    P.fail(Fault);
    return std::nullopt;
  }
  const std::vector<std::string_view> &Tokens = P.Tokens;
  if (!P.nextLine() || Tokens.size() != 2 || Tokens[0] != "profile") {
    P.fail("expected 'profile <name>' header");
    return std::nullopt;
  }

  // Name lookup tables; a later procedure of a repeated name wins.
  std::unordered_map<std::string_view, size_t> ProcOf;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    ProcOf[Prog.proc(I).getName()] = I;

  ProgramProfile Profile;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    Profile.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(I)));

  std::vector<bool> ProcSeen(Prog.numProcedures(), false);
  std::vector<std::string> BlockNames;
  std::unordered_map<std::string_view, BlockId> BlockOf;
  while (P.nextLine()) {
    if (Tokens.size() != 3 || Tokens[0] != "proc" || Tokens[2] != "{") {
      P.fail("expected 'proc <name> {'");
      return std::nullopt;
    }
    auto ProcIt = ProcOf.find(Tokens[1]);
    if (ProcIt == ProcOf.end()) {
      P.fail("unknown procedure '" + std::string(Tokens[1]) + "'");
      return std::nullopt;
    }
    // A repeated section would silently overwrite the earlier counts —
    // the classic concatenated-profiles corruption.
    if (ProcSeen[ProcIt->second]) {
      P.fail("duplicate profile section for procedure '" +
             std::string(Tokens[1]) + "'");
      return std::nullopt;
    }
    ProcSeen[ProcIt->second] = true;
    const Procedure &Proc = Prog.proc(ProcIt->second);
    ProcedureProfile &PP = Profile.Procs[ProcIt->second];

    // A later block of a repeated name wins.
    BlockNames.clear();
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
      BlockNames.push_back(blockName(Proc, Id));
    BlockOf.clear();
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
      BlockOf[BlockNames[Id]] = Id;

    bool Closed = false;
    std::vector<bool> BlockSeen(Proc.numBlocks(), false);
    while (P.nextLine()) {
      if (Tokens.size() == 1 && Tokens[0] == "}") {
        Closed = true;
        break;
      }
      if (Tokens.size() < 2 || Tokens[0].empty() ||
          Tokens[0].back() != ':') {
        P.fail("expected '<block>: <count> [-> succ:count ...]'");
        return std::nullopt;
      }
      std::string_view Name = Tokens[0].substr(0, Tokens[0].size() - 1);
      auto BlockIt = BlockOf.find(Name);
      if (BlockIt == BlockOf.end()) {
        P.fail("unknown block '" + std::string(Name) + "'");
        return std::nullopt;
      }
      BlockId Id = BlockIt->second;
      if (BlockSeen[Id]) {
        P.fail("duplicate stats line for block '" + std::string(Name) + "'");
        return std::nullopt;
      }
      BlockSeen[Id] = true;
      std::optional<uint64_t> Count = parseCount(Tokens[1]);
      if (!Count) {
        P.fail("bad block count '" + std::string(Tokens[1]) + "'");
        return std::nullopt;
      }
      PP.BlockCounts[Id] = *Count;

      const std::vector<BlockId> &Succs = Proc.successors(Id);
      std::vector<bool> EdgeSeen(Succs.size(), false);
      if (Tokens.size() == 2)
        continue;
      if (Tokens[2] != "->") {
        P.fail("expected '->' before edge counts");
        return std::nullopt;
      }
      for (size_t T = 3; T != Tokens.size(); ++T) {
        std::string_view Edge = Tokens[T];
        size_t Colon = Edge.rfind(':');
        if (Colon == std::string_view::npos || Colon == 0 ||
            Colon + 1 == Edge.size()) {
          P.fail("expected '<succ>:<count>', got '" + std::string(Edge) +
                 "'");
          return std::nullopt;
        }
        std::string_view SuccName = Edge.substr(0, Colon);
        std::optional<uint64_t> EdgeCount = parseCount(Edge.substr(Colon + 1));
        if (!EdgeCount) {
          P.fail("bad edge count in '" + std::string(Edge) + "'");
          return std::nullopt;
        }
        auto SuccIt = BlockOf.find(SuccName);
        if (SuccIt == BlockOf.end()) {
          P.fail("unknown successor '" + std::string(SuccName) + "'");
          return std::nullopt;
        }
        bool Matched = false;
        for (size_t S = 0; S != Succs.size(); ++S) {
          if (Succs[S] == SuccIt->second) {
            if (EdgeSeen[S]) {
              P.fail("duplicate edge count for " + std::string(Name) +
                     " -> " + std::string(SuccName));
              return std::nullopt;
            }
            EdgeSeen[S] = true;
            PP.EdgeCounts[Id][S] = *EdgeCount;
            Matched = true;
            break;
          }
        }
        if (!Matched) {
          P.fail("edge " + std::string(Name) + " -> " +
                 std::string(SuccName) + " does not exist in the CFG");
          return std::nullopt;
        }
      }
    }
    if (!Closed) {
      P.fail("unterminated proc '" + Proc.getName() + "'");
      return std::nullopt;
    }
  }
  return Profile;
}
