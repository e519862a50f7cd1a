//===- tests/serve_stress_test.cpp - concurrent byte-identity stress ------===//
//
// The balign-serve determinism contract under load: N concurrent
// clients submit a shuffled shared corpus to one server at pool sizes
// {1, 2, 8}; every response must be byte-identical to what one-shot
// align_tool prints for the same (CFG, seed, budget) — computed here
// through the very renderAlignmentReport/synthesizeProfile functions
// the CLI uses — and the shared cache's stats must stay consistent
// (hits + misses == profiled-procedure lookups, no lookup lost or
// double-counted across racing workers).
//
//===--------------------------------------------------------------------===//

#include "serve/Server.h"

#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <future>
#include <memory>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace balign;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

constexpr uint64_t ProfileBudget = 1500;

/// One corpus item: a program in wire (text) form plus its request seed
/// and precomputed one-shot expectation.
struct CorpusItem {
  std::string CfgText;
  uint64_t Seed = 0;
  std::string Expected;
  size_t ProfiledProcs = 0;
};

/// Builds a small shared corpus of generated multi-procedure programs
/// and computes, for each, the exact bytes one-shot align_tool would
/// print (pipeline path, no bounds, no dot).
std::vector<CorpusItem> buildCorpus() {
  std::vector<CorpusItem> Corpus;
  for (uint64_t I = 0; I != 6; ++I) {
    Program Prog("stress" + std::to_string(I));
    Rng R(1000 + I * 17);
    GenParams Params;
    Params.TargetBranchSites = 4 + static_cast<unsigned>(I % 3);
    size_t NumProcs = 2 + I % 2;
    for (size_t P = 0; P != NumProcs; ++P)
      Prog.addProcedure(
          generateProcedure("p" + std::to_string(P), Params, R).Proc);

    CorpusItem Item;
    Item.CfgText = printProgram(Prog);
    Item.Seed = 50 + I;

    // The one-shot expectation, via the shared one-shot code itself:
    // parse the printed text back (the server sees text, and
    // synthesizeProfile seeds per parsed procedure), profile, align
    // serial and uncached, render.
    std::string Error;
    std::optional<Program> Parsed = parseProgram(Item.CfgText, &Error);
    EXPECT_TRUE(Parsed.has_value()) << Error;
    ProgramProfile Counts =
        synthesizeProfile(*Parsed, Item.Seed, ProfileBudget);
    for (size_t P = 0; P != Parsed->numProcedures(); ++P)
      if (Counts.Procs[P].executedBranches(Parsed->proc(P)) > 0)
        ++Item.ProfiledProcs;
    AlignmentOptions Options;
    Options.Solver.Seed = Item.Seed;
    Options.ComputeBounds = false;
    ProgramAlignment Result = alignProgram(*Parsed, Counts, Options);
    Item.Expected = renderAlignmentReport(*Parsed, Counts, Result,
                                          /*ComputeBounds=*/false,
                                          /*EmitDot=*/false);
    Corpus.push_back(std::move(Item));
  }
  return Corpus;
}

AlignRequest requestFor(const CorpusItem &Item) {
  AlignRequest Req;
  Req.Seed = Item.Seed;
  Req.Budget = ProfileBudget;
  Req.CfgText = Item.CfgText;
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

} // namespace

TEST(ServeStressTest, SerialCacheStatsAreExact) {
  std::vector<CorpusItem> Corpus = buildCorpus();
  size_t ProfiledTotal = 0;
  for (const CorpusItem &Item : Corpus)
    ProfiledTotal += Item.ProfiledProcs;
  ASSERT_GT(ProfiledTotal, 0u);

  AlignmentOptions Base;
  Base.Cache = CacheMode::Memory;
  AlignmentCache Cache;
  Base.CacheImpl = &Cache;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);

  Connection Conn(Server);
  // Pass 1, cold: every profiled procedure misses then stores.
  for (const CorpusItem &Item : Corpus) {
    std::string Report, Error;
    ASSERT_TRUE(Conn.Client.align(requestFor(Item), Report, &Error))
        << Error;
    EXPECT_EQ(Item.Expected, Report);
  }
  CacheStats Cold = Cache.stats();
  EXPECT_EQ(0u, Cold.Hits);
  EXPECT_EQ(ProfiledTotal, Cold.Misses);
  EXPECT_EQ(ProfiledTotal, Cold.Stores);

  // Pass 2, warm: byte-identical responses served entirely from cache.
  for (const CorpusItem &Item : Corpus) {
    std::string Report, Error;
    ASSERT_TRUE(Conn.Client.align(requestFor(Item), Report, &Error))
        << Error;
    EXPECT_EQ(Item.Expected, Report);
  }
  CacheStats Warm = Cache.stats();
  EXPECT_EQ(ProfiledTotal, Warm.Hits);
  EXPECT_EQ(ProfiledTotal, Warm.Misses);
}

TEST(ServeStressTest, ConcurrentClientsGetOneShotBytesAtEveryPoolSize) {
  std::vector<CorpusItem> Corpus = buildCorpus();
  size_t ProfiledTotal = 0;
  for (const CorpusItem &Item : Corpus)
    ProfiledTotal += Item.ProfiledProcs;

  for (unsigned PoolThreads : {1u, 2u, 8u}) {
    AlignmentOptions Base;
    Base.Cache = CacheMode::Memory;
    AlignmentCache Cache;
    Base.CacheImpl = &Cache;
    ServeConfig Config;
    Config.Threads = PoolThreads;
    AlignServer Server(Base, Config);

    constexpr size_t NumClients = 4;
    std::vector<std::string> Failures(NumClients);
    {
      std::vector<std::unique_ptr<Connection>> Conns;
      for (size_t C = 0; C != NumClients; ++C)
        Conns.push_back(std::make_unique<Connection>(Server));
      std::vector<std::thread> Clients;
      for (size_t C = 0; C != NumClients; ++C) {
        Clients.emplace_back([&, C] {
          // Each client walks the shared corpus in a different rotation
          // (a deterministic shuffle), so the same program is in flight
          // from several clients at once.
          for (size_t I = 0; I != Corpus.size(); ++I) {
            const CorpusItem &Item = Corpus[(I + C) % Corpus.size()];
            std::string Report, Error;
            if (!Conns[C]->Client.align(requestFor(Item), Report,
                                        &Error)) {
              Failures[C] = "client " + std::to_string(C) +
                            " transport: " + Error;
              return;
            }
            if (Report != Item.Expected) {
              Failures[C] = "client " + std::to_string(C) +
                            " got different bytes for seed " +
                            std::to_string(Item.Seed);
              return;
            }
          }
        });
      }
      for (std::thread &T : Clients)
        T.join();
    }
    for (const std::string &F : Failures)
      EXPECT_TRUE(F.empty()) << F << " (pool=" << PoolThreads << ")";

    // Shared-cache consistency: every profiled-procedure lookup is
    // either a hit or a miss — nothing lost or double-counted across
    // racing workers. (The hit/miss *split* is scheduling-dependent;
    // the sum is not.)
    CacheStats Stats = Cache.stats();
    EXPECT_EQ(NumClients * ProfiledTotal, Stats.Hits + Stats.Misses)
        << "pool=" << PoolThreads;
    EXPECT_EQ(NumClients * Corpus.size(),
              Server.metrics().counter("serve.requests.align"))
        << "pool=" << PoolThreads;
    EXPECT_EQ(NumClients * Corpus.size(),
              Server.metrics().counter("serve.responses.ok"))
        << "pool=" << PoolThreads;
  }
}

TEST(ServeStressTest, AdmissionGateRejectsDeterministically) {
  std::vector<CorpusItem> Corpus = buildCorpus();
  std::promise<void> Release;
  std::shared_future<void> Released = Release.get_future().share();
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.QueueBudget = 2;
  // The one worker parks until the test releases it, so two aligns in
  // flight is a state the test holds, not a race it hopes to win.
  Config.TestStallHook = [Released] { Released.wait(); };
  AlignServer Server(Base, Config);

  auto AlignOn = [&Corpus](Connection &Conn, size_t I) {
    return std::async(std::launch::async, [&Conn, &Item = Corpus[I]] {
      std::string Report, Error;
      EXPECT_TRUE(Conn.Client.align(requestFor(Item), Report, &Error))
          << Error;
      return Report;
    });
  };
  // Two connections fill the budget: the first align parks the worker,
  // the second waits in the pool's queue, and both are in flight.
  Connection First(Server), Second(Server), Third(Server);
  std::future<std::string> FirstReport = AlignOn(First, 0);
  std::future<std::string> SecondReport = AlignOn(Second, 1);
  for (int Ms = 0; Ms != 10000 && Server.inFlightRequests() != 2; ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(2u, Server.inFlightRequests());

  // A third connection's align finds the budget spent and is answered
  // with a structured frame at once, never queued. Waiting for that
  // answer is bounded, so a server that queues it fails the test
  // instead of hanging on the parked worker.
  std::future<Frame> ThirdAnswer = std::async(std::launch::async, [&] {
    Frame Response;
    std::string Error;
    EXPECT_TRUE(Third.Client.call(
        makeFrame(FrameType::Align, encodeAlignRequest(requestFor(Corpus[2]))),
        Response, &Error))
        << Error;
    return Response;
  });
  bool AnsweredWhileFull = ThirdAnswer.wait_for(std::chrono::seconds(10)) ==
                           std::future_status::ready;
  Release.set_value();
  EXPECT_TRUE(AnsweredWhileFull);
  Frame Response = ThirdAnswer.get();
  ASSERT_EQ(FrameType::Error, Response.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::Rejected, Code);
  EXPECT_EQ(1u, Server.metrics().counter("serve.rejected"));
  EXPECT_NE(std::string::npos,
            Server.metricsJson().find(
                "\"gauges\":{\"serve.queue.highwater\":2}"))
      << Server.metricsJson();

  // Released, the parked aligns finish with their one-shot bytes, and
  // the freed budget admits a fourth.
  EXPECT_EQ(Corpus[0].Expected, FirstReport.get());
  EXPECT_EQ(Corpus[1].Expected, SecondReport.get());
  std::string Report, Error;
  ASSERT_TRUE(Third.Client.align(requestFor(Corpus[3]), Report, &Error))
      << Error;
  EXPECT_EQ(Corpus[3].Expected, Report);
}
