//===- serve/Service.cpp - One-request alignment service ------------------===//

#include "serve/Service.h"

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "serve/Oneshot.h"
#include "support/Bytes.h"

using namespace balign;

namespace {

/// The memo key of one procedure's synthetic profile: every byte
/// synthesizeProcedureProfile reads, and nothing else.
std::string memoKey(const Procedure &Proc, size_t ProcIndex, uint64_t Seed,
                    uint64_t Budget) {
  std::string Key;
  Key.reserve(32 + Proc.numBlocks() * 13);
  putU64(Key, Seed);
  putU64(Key, Budget);
  putU64(Key, ProcIndex);
  putU64(Key, Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    Key.push_back(static_cast<char>(Proc.block(B).Kind));
    putU32(Key, static_cast<uint32_t>(Succs.size()));
    for (BlockId S : Succs)
      putU32(Key, S);
  }
  return Key;
}

/// The bytes an entry is charged: its key, its counts, and a fixed
/// allowance for its map and list nodes.
size_t entryBytes(const std::string &Key, const ProcedureProfile &Profile) {
  size_t Bytes = 128 + Key.size() +
                 Profile.BlockCounts.size() * sizeof(uint64_t) +
                 Profile.EdgeCounts.size() * sizeof(std::vector<uint64_t>);
  for (const std::vector<uint64_t> &Edges : Profile.EdgeCounts)
    Bytes += Edges.size() * sizeof(uint64_t);
  return Bytes;
}

} // namespace

ProgramProfile ProfileMemo::synthesize(const Program &Prog, uint64_t Seed,
                                       uint64_t Budget,
                                       const Deadline *Limit) {
  ProgramProfile Counts;
  Counts.Procs.reserve(Prog.numProcedures());
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Counts.Procs.push_back(
        procedureProfile(Prog.proc(P), P, Seed, Budget, Limit));
  return Counts;
}

ProcedureProfile ProfileMemo::procedureProfile(const Procedure &Proc,
                                               size_t ProcIndex,
                                               uint64_t Seed, uint64_t Budget,
                                               const Deadline *Limit) {
  std::string Key = memoKey(Proc, ProcIndex, Seed, Budget);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      ++Stats.Hits;
      Lru.splice(Lru.end(), Lru, It->second.LruPos);
      return It->second.Profile;
    }
    ++Stats.Misses;
  }
  ProcedureProfile Profile =
      synthesizeProcedureProfile(Proc, ProcIndex, Seed, Budget, Limit);
  size_t Bytes = entryBytes(Key, Profile);
  if (Bytes > MaxBytes / MaxEntryShare)
    return Profile;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Entries.try_emplace(std::move(Key));
  if (!Inserted)
    return Profile; // A racing walk of the same key kept the same counts.
  It->second.Profile = Profile;
  It->second.Bytes = Bytes;
  It->second.LruPos = Lru.insert(Lru.end(), &It->first);
  Stats.Bytes += Bytes;
  while (Stats.Bytes > MaxBytes) {
    auto Oldest = Entries.find(*Lru.front());
    Stats.Bytes -= Oldest->second.Bytes;
    Lru.pop_front();
    Entries.erase(Oldest);
  }
  return Profile;
}

ProfileMemoStats ProfileMemo::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  ProfileMemoStats S = Stats;
  S.Entries = Entries.size();
  return S;
}

Frame AlignService::handleAlign(const std::string &Body) const {
  AlignRequest Req;
  std::string Error;
  if (!decodeAlignRequest(Body, Req, &Error))
    return makeErrorFrame(FrameError::BadRequest, Error);
  return handleAlign(Req);
}

Frame AlignService::handleAlign(const AlignRequest &Req) const {
  // The deadline covers profile synthesis too; without one, nothing
  // polls, and neither does a memo hit.
  uint64_t BudgetMs = Req.DeadlineMs ? Req.DeadlineMs
                                     : Config.DefaultDeadlineMs;
  Deadline RequestDeadline(BudgetMs, Config.Clock);
  const Deadline *Limit = BudgetMs ? &RequestDeadline : nullptr;

  std::string Error;
  std::optional<Program> Prog = parseProgram(Req.CfgText, &Error);
  if (!Prog)
    return makeErrorFrame(FrameError::ParseError, Error);

  std::optional<ProgramProfile> Counts;
  if (Req.HasProfile) {
    Counts = parseProgramProfile(*Prog, Req.ProfileText, &Error);
    if (!Counts)
      return makeErrorFrame(FrameError::ProfileError, Error);
  } else {
    try {
      Counts = Memo.synthesize(*Prog, Req.Seed, Req.Budget, Limit);
    } catch (const ProfileWalkError &E) {
      return makeErrorFrame(FrameError::ProfileError, E.what());
    } catch (const DeadlineExceeded &E) {
      return makeErrorFrame(FrameError::Deadline, E.what());
    }
  }

  // The per-request view of the shared base: one pool worker runs the
  // whole request (Threads = 1), the verification hook never applies,
  // and the request decides every request option through the same
  // mapping align_tool uses. CacheImpl rides along from the base — that
  // is the shared warm cache.
  AlignmentOptions Options = Base;
  Options.Threads = 1;
  Options.AfterProcedure = nullptr;
  applyAlignRequest(Req, Options);
  if (Config.Clock)
    Options.Clock = Config.Clock;
  Options.RunDeadline = Limit;

  try {
    ProgramAlignment Result = alignProgram(*Prog, *Counts, Options);
    return makeFrame(FrameType::AlignOk,
                     renderAlignmentReport(*Prog, *Counts, Result,
                                           Req.ComputeBounds,
                                           /*EmitDot=*/false,
                                           primaryAlignerName(Options.Primary)));
  } catch (const AlignmentAborted &E) {
    return makeErrorFrame(FrameError::Aborted, E.what());
  } catch (const DeadlineExceeded &E) {
    return makeErrorFrame(FrameError::Deadline, E.what());
  } catch (const std::exception &E) {
    return makeErrorFrame(FrameError::Internal, E.what());
  }
}
