//===- tests/serve_shield_test.cpp - faults & deadlines through serve -----===//
//
// The balign-shield machinery exercised through the server: armed fault
// sites and injectable-clock deadlines must surface as structured error
// frames on exactly the poisoned request — sibling requests on the same
// connection stay clean, the connection stays open, and degraded
// (fallback-rung) results are never cached, so a retry after the fault
// clears gets the full-effort bytes.
//
//===--------------------------------------------------------------------===//

#include "serve/Server.h"

#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "robust/FaultInjector.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include "ServeCorpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace balign;
using ScopedFault = FaultInjector::ScopedFault;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

constexpr uint64_t ProfileBudget = 1500;
constexpr uint64_t RequestSeed = 13;

/// A small generated two-procedure program in wire (text) form.
std::string demoProgramText() {
  Program Prog("shield");
  Rng R(4242);
  GenParams Params;
  Params.TargetBranchSites = 5;
  Prog.addProcedure(generateProcedure("alpha", Params, R).Proc);
  Prog.addProcedure(generateProcedure("beta", Params, R).Proc);
  return printProgram(Prog);
}

/// The bytes one-shot align_tool would print for demoProgramText() with
/// no faults armed — computed through the shared one-shot code.
std::string expectedCleanReport(size_t *ProfiledProcs = nullptr) {
  std::string Error;
  std::optional<Program> Prog = parseProgram(demoProgramText(), &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  ProgramProfile Counts =
      synthesizeProfile(*Prog, RequestSeed, ProfileBudget);
  if (ProfiledProcs) {
    *ProfiledProcs = 0;
    for (size_t P = 0; P != Prog->numProcedures(); ++P)
      if (Counts.Procs[P].executedBranches(Prog->proc(P)) > 0)
        ++*ProfiledProcs;
  }
  AlignmentOptions Options;
  Options.Solver.Seed = RequestSeed;
  ProgramAlignment Result = alignProgram(*Prog, Counts, Options);
  return renderAlignmentReport(*Prog, Counts, Result,
                               /*ComputeBounds=*/false, /*EmitDot=*/false);
}

AlignRequest demoRequest() {
  AlignRequest Req;
  Req.Seed = RequestSeed;
  Req.Budget = ProfileBudget;
  Req.CfgText = demoProgramText();
  return Req;
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

/// Sends one align request and decodes the Error frame it must produce.
void expectAlignError(ServeClient &Client, const AlignRequest &Req,
                      FrameError &Code, std::string &Message) {
  Frame Response;
  std::string Error;
  ASSERT_TRUE(Client.call(
      makeFrame(FrameType::Align, encodeAlignRequest(Req)), Response,
      &Error))
      << Error;
  ASSERT_EQ(FrameType::Error, Response.Type)
      << "expected an error frame, got type "
      << frameTypeName(Response.Type);
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
}

} // namespace

TEST(ServeShieldTest, FaultedAlignIsIsolatedToItsRequest) {
  std::string Expected = expectedCleanReport();

  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);

  {
    // First solve hit faults; under OnError=Abort the request surfaces
    // the failure as a structured Aborted frame.
    ScopedFault Fault(FaultSite::TspSolve, FaultSpec::once());
    FrameError Code = FrameError::None;
    std::string Message;
    expectAlignError(Conn.Client, demoRequest(), Code, Message);
    EXPECT_EQ(FrameError::Aborted, Code);
    EXPECT_FALSE(Message.empty());
  }

  // The sibling request on the very same connection is untouched.
  std::string Report, Error;
  ASSERT_TRUE(Conn.Client.align(demoRequest(), Report, &Error)) << Error;
  EXPECT_EQ(Expected, Report);
  EXPECT_EQ(1u, Server.metrics().counter("serve.responses.error"));
  EXPECT_EQ(1u, Server.metrics().counter("serve.responses.ok"));
}

TEST(ServeShieldTest, OverflowProbeIsAnAbortedFrame) {
  // examples/data/defect_overflow: a profile whose DTSP entry pin does
  // not fit int64 (an unchecked pin leaves the worker spinning in 3-Opt
  // forever). The resource-cap failure is an Aborted frame at once, and
  // under --on-error=fallback the greedy report comes back,
  // byte-identical to one-shot.
  AlignRequest Req;
  Req.CfgText = readData("defect_overflow.cfg");
  Req.ProfileText = readData("defect_overflow.prof");
  Req.HasProfile = true;

  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);
  FrameError Code = FrameError::None;
  std::string Message;
  expectAlignError(Conn.Client, Req, Code, Message);
  EXPECT_EQ(FrameError::Aborted, Code);
  EXPECT_NE(Message.find("resource-cap"), std::string::npos) << Message;

  std::string Error;
  std::optional<Program> Prog = parseProgram(Req.CfgText, &Error);
  ASSERT_TRUE(Prog.has_value()) << Error;
  std::optional<ProgramProfile> Counts =
      parseProgramProfile(*Prog, Req.ProfileText, &Error);
  ASSERT_TRUE(Counts.has_value()) << Error;
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  ProgramAlignment Result = alignProgram(*Prog, *Counts, Options);
  ASSERT_EQ(1u, Result.Failures.size());
  EXPECT_EQ(LadderRung::Greedy, Result.Procs[0].Rung);
  EXPECT_EQ(Result.Procs[0].GreedyLayout.Order,
            Result.Procs[0].TspLayout.Order);

  Req.OnError = OnErrorPolicy::Fallback;
  std::string Report;
  ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
  EXPECT_EQ(renderAlignmentReport(*Prog, *Counts, Result,
                                  /*ComputeBounds=*/false,
                                  /*EmitDot=*/false),
            Report);
}

TEST(ServeShieldTest, ServeFrameFaultSiteErrorsOneDispatch) {
  // The site is part of the BALIGN_FAULT contract the CI serve column
  // arms by name.
  EXPECT_STREQ("serve.frame", faultSiteName(FaultSite::ServeFrame));
  EXPECT_EQ(FaultSite::ServeFrame, faultSiteByName("serve.frame"));

  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);

  ScopedFault Fault(FaultSite::ServeFrame, FaultSpec::once());
  // First dispatch — even a ping — is poisoned and answered Internal.
  Frame Response;
  std::string Error;
  ASSERT_TRUE(Conn.Client.call(makeFrame(FrameType::Ping, "hello"),
                               Response, &Error))
      << Error;
  ASSERT_EQ(FrameType::Error, Response.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::Internal, Code);

  // The connection survived; the second ping is clean.
  ASSERT_TRUE(Conn.Client.call(makeFrame(FrameType::Ping, "hello"),
                               Response, &Error))
      << Error;
  EXPECT_EQ(FrameType::Pong, Response.Type);
  EXPECT_EQ("hello", Response.Body);
}

TEST(ServeShieldTest, DeadlineExpiryIsAStructuredFrame) {
  // An injectable clock that jumps 10ms per reading: any 5ms request
  // deadline has expired by its first poll — no sleeping, no flakes.
  auto Now = std::make_shared<std::atomic<uint64_t>>(0);
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.Clock = [Now] { return Now->fetch_add(10); };
  AlignServer Server(Base, Config);
  Connection Conn(Server);

  AlignRequest Req = demoRequest();
  Req.DeadlineMs = 5;
  FrameError Code = FrameError::None;
  std::string Message;
  expectAlignError(Conn.Client, Req, Code, Message);
  // alignProgram folds a tripped run deadline into per-procedure
  // failures, so under OnError=Abort the request surfaces as Aborted;
  // a trip outside procedure scope surfaces as Deadline. Both are the
  // structured deadline contract.
  EXPECT_TRUE(Code == FrameError::Aborted || Code == FrameError::Deadline)
      << "code " << static_cast<int>(Code) << ": " << Message;
  EXPECT_NE(std::string::npos, Message.find("deadline")) << Message;

  // The same request without a deadline, on the same wild clock,
  // completes — expiry came from the budget, not the clock.
  Req.DeadlineMs = 0;
  std::string Report, Error;
  ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
  EXPECT_EQ(expectedCleanReport(), Report);
}

TEST(ServeShieldTest, DeadlineCoversProfileSynthesis) {
  // A clock that advances 1ms per reading. The request's deadline is
  // read once when it is made and then once per walk invocation, so a
  // walk with no end in sight expires on its 50th poll, on every run.
  // Sent twice: the expired walk is not memoized, so the repeat walks
  // again and expires the same way.
  auto Now = std::make_shared<std::atomic<uint64_t>>(0);
  AlignmentOptions Base;
  AlignService Service(Base, {/*DefaultDeadlineMs=*/0,
                              [Now] { return Now->fetch_add(1); }});
  AlignRequest Req = demoRequest();
  Req.Budget = UINT64_MAX;
  Req.DeadlineMs = 50;
  for (uint64_t Sent = 1; Sent <= 2; ++Sent) {
    SCOPED_TRACE(Sent);
    FrameError Code = FrameError::None;
    std::string Message;
    ASSERT_TRUE(decodeErrorFrame(Service.handleAlign(Req), Code, Message));
    EXPECT_EQ(FrameError::Deadline, Code) << Message;
    EXPECT_EQ("synthetic walk of procedure 'alpha' exceeded its deadline",
              Message);
    EXPECT_EQ(51 * Sent, Now->load());
  }
}

TEST(ServeShieldTest, HugeBudgetAnswersDeadlineAndFreesTheWorker) {
  // On the real clock, with one pool worker: the walk gives up at the
  // request's deadline instead of running on past the watchdog, so the
  // next request on that worker is answered normally.
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);

  AlignRequest Req = demoRequest();
  Req.Budget = 1000000000000;
  Req.DeadlineMs = 50;
  FrameError Code = FrameError::None;
  std::string Message;
  expectAlignError(Conn.Client, Req, Code, Message);
  EXPECT_EQ(FrameError::Deadline, Code) << Message;

  std::string Report, Error;
  ASSERT_TRUE(Conn.Client.align(demoRequest(), Report, &Error)) << Error;
  EXPECT_EQ(expectedCleanReport(), Report);
}

TEST(ServeShieldTest, FallbackRungResultsAreNeverCached) {
  size_t ProfiledProcs = 0;
  std::string Expected = expectedCleanReport(&ProfiledProcs);
  ASSERT_GT(ProfiledProcs, 0u);

  AlignmentOptions Base;
  Base.Cache = CacheMode::Memory;
  AlignmentCache Cache;
  Base.CacheImpl = &Cache;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Connection Conn(Server);

  AlignRequest Req = demoRequest();
  Req.OnError = OnErrorPolicy::Fallback;
  {
    // Every solve faults: each procedure degrades to the greedy rung
    // and the request still answers AlignOk.
    ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
    std::string Report, Error;
    ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
  }
  // Degraded results must not have been stored — a cached fallback
  // would freeze low-effort bytes into every later warm response.
  CacheStats AfterFault = Cache.stats();
  EXPECT_EQ(0u, AfterFault.Stores);
  EXPECT_EQ(0u, AfterFault.Entries);

  // Fault cleared: the same request now yields the full-effort bytes
  // (and only now populates the cache).
  std::string Report, Error;
  ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
  EXPECT_EQ(Expected, Report);
  CacheStats AfterClean = Cache.stats();
  EXPECT_EQ(ProfiledProcs, AfterClean.Stores);

  // And the warm retry serves those bytes straight from cache.
  ASSERT_TRUE(Conn.Client.align(Req, Report, &Error)) << Error;
  EXPECT_EQ(Expected, Report);
  EXPECT_EQ(AfterClean.Stores, Cache.stats().Stores);
  EXPECT_GT(Cache.stats().Hits, 0u);
}
