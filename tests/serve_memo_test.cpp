//===- tests/serve_memo_test.cpp - the served profile memo ----------------===//
//
// AlignService takes a request's synthetic profile from its ProfileMemo
// instead of walking every procedure again. These tests hold the memo
// to synthesizeProfile, the walk it stands in for: the same counts on
// first sight and on repeat, a key that is exactly what the walk reads,
// failed walks never kept, a byte budget that holds, the one-shot bytes
// under eight racing threads, and counters that reach the server's
// Metrics frame.
//
//===--------------------------------------------------------------------===//

#include "serve/Service.h"

#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "profile/Trace.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "serve/Server.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include "ServeCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace balign;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

constexpr uint64_t ProfileBudget = 1500;

void expectSameProfile(const ProgramProfile &Want, const ProgramProfile &Got) {
  ASSERT_EQ(Want.Procs.size(), Got.Procs.size());
  for (size_t P = 0; P != Want.Procs.size(); ++P) {
    EXPECT_EQ(Want.Procs[P].EdgeCounts, Got.Procs[P].EdgeCounts) << P;
    EXPECT_EQ(Want.Procs[P].BlockCounts, Got.Procs[P].BlockCounts) << P;
  }
}

/// Generated program \p I of the oracle sweep: one to three procedures
/// of varied shape, multiway dispatch included.
Program sweepProgram(uint64_t I) {
  Program Prog("sweep" + std::to_string(I));
  Rng R(77000 + I);
  GenParams Params;
  Params.TargetBranchSites = 2 + static_cast<unsigned>(R.nextIndex(12));
  Params.MultiwayFraction = 0.2;
  size_t NumProcs = 1 + R.nextIndex(3);
  for (size_t P = 0; P != NumProcs; ++P)
    Prog.addProcedure(
        generateProcedure("f" + std::to_string(P), Params, R).Proc);
  return Prog;
}

/// \p Proc rebuilt with the successor list of block \p Swapped reversed.
Procedure withReversedSuccessors(const Procedure &Proc, BlockId Swapped) {
  Procedure Out(Proc.getName());
  for (const BasicBlock &Block : Proc.blocks())
    Out.addBlock(Block);
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    std::vector<BlockId> Succs = Proc.successors(B);
    if (B == Swapped)
      std::reverse(Succs.begin(), Succs.end());
    for (BlockId S : Succs)
      Out.addEdge(B, S);
  }
  return Out;
}

/// The first conditional block of \p Proc.
BlockId firstConditional(const Procedure &Proc) {
  for (BlockId B = 0; B != Proc.numBlocks(); ++B)
    if (Proc.block(B).Kind == TerminatorKind::Conditional)
      return B;
  ADD_FAILURE() << "procedure '" << Proc.getName() << "' has no branch";
  return 0;
}

/// The memo's hit and miss counts since \p Before.
std::pair<uint64_t, uint64_t> delta(const ProfileMemo &Memo,
                                    const ProfileMemoStats &Before) {
  ProfileMemoStats Now = Memo.stats();
  return {Now.Hits - Before.Hits, Now.Misses - Before.Misses};
}

AlignRequest corpusRequest(uint64_t I) {
  AlignRequest Req;
  Req.Seed = 40 + I;
  Req.Budget = ProfileBudget;
  Req.CfgText = printProgram(serveCorpusProgram(I));
  return Req;
}

/// What one-shot align_tool prints for \p Req, through the shared
/// one-shot code and the walk itself.
std::string oneShotReport(const AlignRequest &Req) {
  std::string Error;
  std::optional<Program> Prog = parseProgram(Req.CfgText, &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  ProgramProfile Counts = synthesizeProfile(*Prog, Req.Seed, Req.Budget);
  AlignmentOptions Options;
  applyAlignRequest(Req, Options);
  return renderAlignmentReport(*Prog, Counts,
                               alignProgram(*Prog, Counts, Options),
                               Req.ComputeBounds, /*EmitDot=*/false,
                               primaryAlignerName(Options.Primary));
}

/// One client connection bound to a server-side connection thread.
struct Connection {
  int Fds[2] = {-1, -1};
  std::thread Server;
  ServeClient Client;

  Connection(AlignServer &S) {
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Server = std::thread([&S, Fd = Fds[1]] { S.serveConnection(Fd, Fd); });
    Client.wrap(Fds[0], Fds[0]);
  }
  ~Connection() {
    Client.close();
    ::close(Fds[0]);
    Server.join();
    ::close(Fds[1]);
  }
};

/// Counter \p Name at \p Value, as a Metrics frame renders it.
std::string counterText(const std::string &Name, uint64_t Value) {
  return "\"" + Name + "\":" + std::to_string(Value);
}

} // namespace

TEST(ServeMemoTest, MemoizedProfilesEqualTheWalkOnFirstSightAndRepeat) {
  ProfileMemo Memo;
  size_t Procedures = 0;
  auto Check = [&](const Program &Prog, uint64_t Seed, uint64_t Budget) {
    ProgramProfile Want = synthesizeProfile(Prog, Seed, Budget);
    expectSameProfile(Want, Memo.synthesize(Prog, Seed, Budget, nullptr));
    expectSameProfile(Want, Memo.synthesize(Prog, Seed, Budget, nullptr));
    Procedures += Prog.numProcedures();
  };
  // Each program has seeds of its own, so no two keys are equal.
  for (uint64_t I = 0; I != 12; ++I) {
    SCOPED_TRACE("serve" + std::to_string(I));
    for (uint64_t Budget : {0, 1, 700, 50000})
      Check(serveCorpusProgram(I), 1 + I, Budget);
  }
  for (uint64_t I = 0; I != 300; ++I) {
    SCOPED_TRACE("sweep" + std::to_string(I));
    Check(sweepProgram(I), 100 + I, I % 4 == 0 ? 3000 : 700);
  }
  // Every first sight walked; every repeat was a hit.
  ProfileMemoStats S = Memo.stats();
  EXPECT_EQ(Procedures, S.Misses);
  EXPECT_EQ(Procedures, S.Hits);
  EXPECT_LE(S.Bytes, ProfileMemo::DefaultMaxBytes);
}

TEST(ServeMemoTest, KeyIsWhatTheWalkReadsAndNoName) {
  const Program Base = serveCorpusProgram(4);
  ASSERT_GE(Base.numProcedures(), 2u);
  const size_t N = Base.numProcedures();
  ProfileMemo Memo;
  Memo.synthesize(Base, 3, ProfileBudget, nullptr);

  // Other procedure and block names, and other block sizes, are the
  // same walk: every procedure hits, with the walk's counts.
  Program Renamed("renamed");
  for (size_t P = 0; P != N; ++P) {
    Procedure Proc = Base.proc(P);
    Proc.setName("other" + std::to_string(P));
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      Proc.block(B).Name = "x" + std::to_string(B * 7 + P);
      Proc.block(B).InstrCount += 5;
    }
    Renamed.addProcedure(std::move(Proc));
  }
  ProfileMemoStats Before = Memo.stats();
  expectSameProfile(synthesizeProfile(Renamed, 3, ProfileBudget),
                    Memo.synthesize(Renamed, 3, ProfileBudget, nullptr));
  EXPECT_EQ(std::make_pair(uint64_t(N), uint64_t(0)), delta(Memo, Before));

  // Each of these changes one input of the walk; the changed procedures
  // miss, and every answer is still the walk's.
  struct Case {
    const char *What;
    Program Prog;
    uint64_t Seed;
    uint64_t Budget;
    uint64_t Misses;
  };
  Program Kind = Base;
  Kind.proc(0).block(firstConditional(Base.proc(0))).Kind =
      TerminatorKind::Multiway;
  Program Order = Base;
  Order.proc(1) =
      withReversedSuccessors(Base.proc(1), firstConditional(Base.proc(1)));
  Program Index("index");
  Index.addProcedure(Base.proc(0));
  Index.addProcedure(Base.proc(0)); // Seeded as procedure 1.
  std::vector<Case> Cases = {
      {"seed", Base, 4, ProfileBudget, N},
      {"budget", Base, 3, ProfileBudget + 1, N},
      {"terminator kind", Kind, 3, ProfileBudget, 1},
      {"successor order", Order, 3, ProfileBudget, 1},
      {"procedure index", Index, 3, ProfileBudget, 1},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    ASSERT_TRUE(C.Prog.verify());
    Before = Memo.stats();
    expectSameProfile(synthesizeProfile(C.Prog, C.Seed, C.Budget),
                      Memo.synthesize(C.Prog, C.Seed, C.Budget, nullptr));
    EXPECT_EQ(C.Misses, delta(Memo, Before).second);
    EXPECT_EQ(C.Prog.numProcedures() - C.Misses, delta(Memo, Before).first);
  }
}

TEST(ServeMemoTest, FailedWalksAreNotKept) {
  // Procedure 0 walks; procedure 1 loops with no exit. The walk that
  // returned is kept, the failed one is walked again and fails the same.
  Program Prog("mixed");
  Prog.addProcedure(serveCorpusProgram(0).proc(0));
  Prog.addProcedure(readProgram("defect_selfloop.cfg").proc(0));
  ProfileMemo Memo;
  std::string First, Second;
  try {
    Memo.synthesize(Prog, 1, 50000, nullptr);
  } catch (const ProfileWalkError &E) {
    First = E.what();
  }
  ProfileMemoStats S = Memo.stats();
  EXPECT_EQ(0u, S.Hits);
  EXPECT_EQ(2u, S.Misses);
  EXPECT_EQ(1u, S.Entries);
  try {
    Memo.synthesize(Prog, 1, 50000, nullptr);
  } catch (const ProfileWalkError &E) {
    Second = E.what();
  }
  EXPECT_NE("", First);
  EXPECT_EQ(First, Second);
  S = Memo.stats();
  EXPECT_EQ(1u, S.Hits);
  EXPECT_EQ(3u, S.Misses);
  EXPECT_EQ(1u, S.Entries);
}

TEST(ServeMemoTest, BudgetEvictsLeastRecentlyUsedAndRefusesOversizedEntries) {
  // One procedure under seeds 1, 2, ...: equal shapes, so every entry
  // is charged the same bytes.
  Program Prog("one");
  Prog.addProcedure(serveCorpusProgram(2).proc(0));
  ProfileMemo Probe;
  Probe.synthesize(Prog, 1, ProfileBudget, nullptr);
  const size_t EntryBytes = Probe.stats().Bytes;
  ASSERT_GT(EntryBytes, 0u);

  // Room for sixteen entries, each exactly the largest share allowed.
  ProfileMemo Memo(EntryBytes * ProfileMemo::MaxEntryShare);
  auto Hit = [&](uint64_t Seed) {
    ProfileMemoStats Before = Memo.stats();
    expectSameProfile(synthesizeProfile(Prog, Seed, ProfileBudget),
                      Memo.synthesize(Prog, Seed, ProfileBudget, nullptr));
    return delta(Memo, Before).first == 1;
  };
  for (uint64_t Seed = 1; Seed <= 16; ++Seed)
    EXPECT_FALSE(Hit(Seed)) << Seed;
  EXPECT_EQ(16u, Memo.stats().Entries);
  EXPECT_TRUE(Hit(1));   // Seed 2 is now the least recently used...
  EXPECT_FALSE(Hit(17)); // ...so the seventeenth entry evicts it.
  EXPECT_EQ(16u, Memo.stats().Entries);
  EXPECT_EQ(16 * EntryBytes, Memo.stats().Bytes);
  EXPECT_TRUE(Hit(1));
  EXPECT_TRUE(Hit(17));
  EXPECT_FALSE(Hit(2)); // Evicted; walked again, evicting seed 3.
  EXPECT_FALSE(Hit(3));

  // One byte less and an entry is past its share: walked, never kept.
  ProfileMemo Small(EntryBytes * ProfileMemo::MaxEntryShare - 1);
  for (int Repeat = 0; Repeat != 2; ++Repeat)
    expectSameProfile(synthesizeProfile(Prog, 1, ProfileBudget),
                      Small.synthesize(Prog, 1, ProfileBudget, nullptr));
  ProfileMemoStats S = Small.stats();
  EXPECT_EQ(0u, S.Hits);
  EXPECT_EQ(2u, S.Misses);
  EXPECT_EQ(0u, S.Entries);
  EXPECT_EQ(0u, S.Bytes);
}

TEST(ServeMemoTest, EightThreadsRacingTheCorpusGetOneShotBytes) {
  std::vector<AlignRequest> Requests;
  std::vector<std::string> Expected;
  size_t Procedures = 0;
  for (uint64_t I = 0; I != 12; ++I) {
    Requests.push_back(corpusRequest(I));
    Expected.push_back(oneShotReport(Requests.back()));
    Procedures += serveCorpusProgram(I).numProcedures();
  }
  // A shared cache keeps the repeats cheap; the memo is what races.
  AlignmentOptions Base;
  Base.Cache = CacheMode::Memory;
  AlignmentCache Cache;
  Base.CacheImpl = &Cache;
  AlignService Service(Base);

  constexpr size_t Threads = 8, Rounds = 3;
  std::vector<std::vector<std::string>> Got(Threads);
  std::vector<std::thread> Workers;
  for (size_t T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      Rng R(500 + T);
      for (size_t Round = 0; Round != Rounds; ++Round) {
        std::vector<size_t> Order(Requests.size());
        for (size_t I = 0; I != Order.size(); ++I)
          Order[I] = I;
        R.shuffle(Order);
        for (size_t I : Order) {
          Frame Response = Service.handleAlign(Requests[I]);
          Got[T].push_back(Response.Type == FrameType::AlignOk &&
                                   Response.Body == Expected[I]
                               ? ""
                               : "request " + std::to_string(I) + ": " +
                                     Response.Body);
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (size_t T = 0; T != Threads; ++T)
    for (const std::string &Mismatch : Got[T])
      EXPECT_EQ("", Mismatch) << "thread " << T;

  ProfileMemoStats S = Service.profileMemoStats();
  EXPECT_EQ(Threads * Rounds * Procedures, S.Hits + S.Misses);
  EXPECT_EQ(Procedures, S.Entries);
  EXPECT_GE(S.Misses, Procedures);
}

TEST(ServeMemoTest, MetricsFrameCountsOneMissThenOneHitPerProcedure) {
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);
  const AlignRequest Req = corpusRequest(5);
  const uint64_t N = serveCorpusProgram(5).numProcedures();
  const std::string Expected = oneShotReport(Req);

  auto Scrape = [&] {
    Frame Response;
    std::string Error;
    EXPECT_TRUE(Conn.Client.call(makeFrame(FrameType::Metrics), Response,
                                 &Error))
        << Error;
    EXPECT_EQ(FrameType::MetricsOk, Response.Type);
    return Response.Body;
  };
  for (uint64_t Sent = 1; Sent <= 2; ++Sent) {
    SCOPED_TRACE(Sent);
    std::string Report, Error;
    ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
    EXPECT_EQ(Expected, Report);
    std::string Json = Scrape();
    EXPECT_NE(std::string::npos,
              Json.find(counterText("serve.profile-memo.hits",
                                    (Sent - 1) * N)))
        << Json;
    EXPECT_NE(std::string::npos,
              Json.find(counterText("serve.profile-memo.misses", N)))
        << Json;
    EXPECT_NE(std::string::npos,
              Json.find(counterText("serve.profile-memo.entries", N)))
        << Json;
  }
}
