//===- perfbench/Serve.cpp - The serve-mixed workload ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// A closed loop of one client connection per hardware thread, from this
// process, over socketpairs into an in-process AlignServer whose shared
// cache is a disk AlignmentCache configured as `align_tool --serve
// --cache DIR` configures it (flush every 32 stores, durable flushes).
// The request programs have the shape of the repository's serve corpus
// (bench/serve_throughput.cpp): the hot set is that corpus itself, twelve
// programs of 2-4 procedures with 8-12 branch sites each and a synthetic
// profile budget of 3000, and fresh programs are drawn from the same
// shape. Set-up prewarms the store with the suite's own procedures, the
// entries a server holds after compiling the twelve suite data sets once,
// so every flush rewrites a store of that size. The seeded request stream
// is
//
//   ~90% repeats of hot programs  (every procedure hits: sets p50)
//   ~8%  edits of one procedure of a hot program (exactly one miss)
//   ~2%  fresh programs            (every procedure misses)
//
// Every edit and fresh program is unique, so hit and miss counts are a
// function of the seed alone; the gate checks them exactly, and checks
// every response byte for byte against a one-shot render of the same
// request. The hot set and the prewarmed store do not depend on the
// seed, so the bulk of the traffic, and the quality measured on it,
// stays put from seed to seed.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "cache/Fingerprint.h"
#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace balign::perfbench {
namespace {

/// The serve corpus's synthetic-profile budget (bench/serve_throughput.cpp).
constexpr uint64_t ProfileBudget = 3000;

/// Requests per second of --seconds: the stream's length.
size_t requestsPerSecond(const RunConfig &Config) {
  return Config.Smoke ? 250 : 200;
}

/// A program of the serve corpus's shape I (bench/serve_throughput.cpp):
/// 2 + I % 3 procedures of 8 + I % 5 branch sites, drawn from \p R.
Program corpusShapedProgram(const std::string &Name, uint64_t I, Rng &R) {
  Program Prog(Name);
  GenParams Params;
  Params.TargetBranchSites = 8 + static_cast<unsigned>(I % 5);
  size_t NumProcs = 2 + I % 3;
  for (size_t P = 0; P != NumProcs; ++P)
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  return Prog;
}

/// Program \p I of the serve corpus, generated as
/// bench/serve_throughput.cpp generates it; its request seed is 100 + I.
Program corpusProgram(uint64_t I) {
  Rng R(9000 + I * 31);
  return corpusShapedProgram("serve" + std::to_string(I), I, R);
}

/// align_tool's one-shot pipeline options for a request's flags (seed,
/// bounds, effort and error policy) — what the server's response must
/// reproduce byte for byte.
AlignmentOptions oneShotOptions(const AlignRequest &Req) {
  AlignmentOptions Options;
  Options.Solver.Seed = Req.Seed;
  Options.Effort = Req.Effort;
  Options.ComputeBounds = Req.ComputeBounds;
  Options.OnError = Req.OnError;
  return Options;
}

/// Client and server ends of one socketpair connection; the server end
/// is served on its own thread, as the accept loop would.
class Connection {
public:
  explicit Connection(AlignServer &Server) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return;
    ServerThread = std::thread(
        [&Server, Fd = Fds[1]] { Server.serveConnection(Fd, Fd); });
    Client.wrap(Fds[0], Fds[0]);
  }
  ~Connection() {
    if (Fds[0] < 0)
      return;
    Client.close();
    ::shutdown(Fds[0], SHUT_RDWR);
    ::close(Fds[0]);
    ServerThread.join();
    ::close(Fds[1]);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool ok() const { return Fds[0] >= 0; }
  ServeClient &client() { return Client; }

private:
  int Fds[2] = {-1, -1};
  std::thread ServerThread;
  ServeClient Client;
};

/// A server over the disk cache directory \p Dir (loading any store
/// already there); the directory is removed when the server goes.
struct Service {
  AlignmentOptions Base;
  std::unique_ptr<CacheSession> Session;
  std::unique_ptr<AlignServer> Server;

  Service(const std::string &Dir, unsigned Threads) {
    Base.Cache = CacheMode::Disk;
    Base.CachePath = Dir;
    AlignmentCacheConfig CacheConfig;
    CacheConfig.FlushEveryStores = 32;
    Session = std::make_unique<CacheSession>(Base, CacheConfig);
    ServeConfig Config;
    Config.Threads = Threads;
    Config.CacheStatsFn = [this] { return Session->stats(); };
    Server = std::make_unique<AlignServer>(Base, Config);
  }
  ~Service() {
    Server.reset();
    Session.reset();
    std::filesystem::remove_all(Base.CachePath);
  }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;
};

/// Everything set-up produces.
struct Setup {
  std::vector<AlignRequest> Programs; ///< Hot, then edits and fresh ones.
  std::vector<size_t> NumProcs;       ///< Parallel to Programs.
  /// Parallel to Programs: for an edit, the hot program it edits and
  /// the procedure it changed; SIZE_MAX otherwise.
  std::vector<std::pair<size_t, size_t>> EditOf;
  size_t NumHot = 0;
  size_t NumEdits = 0;
  size_t NumFresh = 0;
  std::vector<size_t> Stream; ///< Program index of each request.
  /// The suite, whose compiles prewarm the store.
  std::vector<std::unique_ptr<WorkloadInstance>> Suite;
  uint64_t ExpectedMisses = 0;
  uint64_t ExpectedLookups = 0;
  std::unique_ptr<Service> Svc;
};

constexpr size_t NotAnEdit = SIZE_MAX;

/// The stream runs in this many rounds of equal length and equal mix;
/// wall and rate are medians over rounds, so one burst of outside load
/// moves one round, not the figure.
constexpr size_t StreamRounds = 5;

/// Builds the suite and generates the programs and the seeded stream.
void generate(Setup &S, const RunConfig &Config) {
  for (const WorkloadSpec &Spec : benchmarkSuite())
    if (!Config.Smoke || Spec.Benchmark == "com")
      S.Suite.push_back(
          std::make_unique<WorkloadInstance>(buildWorkload(Spec)));

  auto Add = [&](const Program &Prog, uint64_t Seed,
                 std::pair<size_t, size_t> EditOf = {NotAnEdit, NotAnEdit}) {
    AlignRequest Req;
    Req.Seed = Seed;
    Req.Budget = ProfileBudget;
    Req.CfgText = printProgram(Prog);
    S.Programs.push_back(std::move(Req));
    S.NumProcs.push_back(Prog.numProcedures());
    S.EditOf.push_back(EditOf);
    return S.Programs.size() - 1;
  };
  std::vector<Program> Hot;
  for (uint64_t H = 0; H != (Config.Smoke ? 3 : 12); ++H) {
    Hot.push_back(corpusProgram(H));
    Add(Hot.back(), 100 + H);
  }
  S.NumHot = Hot.size();

  Rng R(Config.Seed * 0x2545f4914f6cdd1dULL + 0x5e7e);
  std::set<std::string> Seen;
  for (const AlignRequest &Req : S.Programs)
    Seen.insert(Req.CfgText);
  // Exactly 90% / 8% / 2% in every round, in seeded order, so the
  // amount of miss work per round does not drift with the seed.
  size_t PerRound = requestsPerSecond(Config) *
                    static_cast<size_t>(Config.Seconds) / StreamRounds;
  enum class Kind : uint8_t { Hot, Edit, Fresh };
  std::vector<Kind> Kinds;
  size_t NumRepeats = 0;
  for (size_t Round = 0; Round != StreamRounds; ++Round) {
    std::vector<Kind> Mix(PerRound, Kind::Hot);
    std::fill_n(Mix.begin(), PerRound * 8 / 100, Kind::Edit);
    std::fill_n(Mix.begin() + PerRound * 8 / 100, PerRound * 2 / 100,
                Kind::Fresh);
    R.shuffle(Mix);
    Kinds.insert(Kinds.end(), Mix.begin(), Mix.end());
  }
  for (Kind K : Kinds) {
    if (K == Kind::Hot) {
      // Hot repeats cycle through the hot programs too, so the hit count
      // is the same for every seed.
      S.Stream.push_back(NumRepeats++ % S.NumHot);
    } else if (K == Kind::Edit) {
      // Grow one block of one procedure of a hot program: that
      // procedure's fingerprint changes, its neighbours' do not.
      // Edits cycle through the hot programs, so their sizes, and the
      // miss work, do not move with the seed.
      size_t H = S.NumEdits % S.NumHot;
      while (true) {
        Program Edited = Hot[H];
        size_t P = R.nextIndex(Edited.numProcedures());
        Procedure &Proc = Edited.proc(P);
        BasicBlock &Block =
            Proc.block(static_cast<BlockId>(R.nextIndex(Proc.numBlocks())));
        Block.InstrCount += 1 + static_cast<uint32_t>(R.nextIndex(8));
        if (!Seen.insert(printProgram(Edited)).second)
          continue;
        S.Stream.push_back(Add(Edited, S.Programs[H].Seed, {H, P}));
        ++S.NumEdits;
        ++S.ExpectedMisses;
        break;
      }
    } else {
      // Fresh programs cycle through the corpus's shapes, for the same
      // reason.
      Program Prog = corpusShapedProgram(
          "fresh" + std::to_string(S.NumFresh), S.NumFresh % 12, R);
      ++S.NumFresh;
      Seen.insert(printProgram(Prog));
      S.Stream.push_back(Add(Prog, 5000 + S.NumFresh));
      S.ExpectedMisses += Prog.numProcedures();
    }
  }
  for (size_t Index : S.Stream)
    S.ExpectedLookups += S.NumProcs[Index];
}

/// Fills \p Cache the way the stream expects to find it: every suite
/// data set compiled once, and every hot program aligned with the
/// options the server derives from its request, so every hot repeat hits.
void prewarmStore(const Setup &S, ProcedureResultCache &Cache,
                  unsigned Threads) {
  // The suite is compiled with the cheap Ext-TSP primary: its entries
  // have the usual size, and no request's key can ever match them.
  AlignmentOptions Suite;
  Suite.Primary = PrimaryAligner::ExtTsp;
  Suite.ComputeBounds = false;
  Suite.Cache = CacheMode::Memory;
  Suite.CacheImpl = &Cache;
  Suite.Threads = Threads;
  for (const auto &W : S.Suite)
    for (const WorkloadDataSet &Ds : W->DataSets)
      alignProgram(W->Prog, Ds.Profile, Suite);
  ThreadPool Pool(Threads);
  parallelFor(Pool, 0, S.NumHot, [&](size_t H) {
    const AlignRequest &Req = S.Programs[H];
    AlignmentOptions Options = oneShotOptions(Req);
    Options.Cache = CacheMode::Memory;
    Options.CacheImpl = &Cache;
    std::optional<Program> Prog = parseProgram(Req.CfgText);
    alignProgram(*Prog, synthesizeProfile(*Prog, Req.Seed, Req.Budget),
                 Options);
  });
}

/// Writes a prewarmed store to \p Dir and starts a server over it, as a
/// restarted `align_tool --serve --cache DIR` finds its store.
void prewarm(Setup &S, const RunConfig &Config, const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  {
    AlignmentCache Warm(Dir);
    prewarmStore(S, Warm, Config.Threads);
    std::string Error;
    if (!Warm.flush(&Error))
      std::fprintf(stderr, "perfbench: prewarm flush failed: %s\n",
                   Error.c_str());
  }
  S.Svc = std::make_unique<Service>(Dir, Config.Threads);
}

struct StreamResult {
  std::vector<Frame> Responses;
  std::vector<double> LatencySeconds;
  std::vector<double> RoundWalls;
  double Wall = 0.0; ///< Whole stream.
  uint64_t TransportErrors = 0;
  CacheStats Before, After;
};

/// The measured closed loop over the first \p Rounds rounds: one
/// connection per client thread, each taking the next request of the
/// round as soon as its previous one is answered.
StreamResult runStream(Setup &S, unsigned Clients,
                       size_t Rounds = StreamRounds) {
  StreamResult Out;
  size_t N = S.Stream.size();
  Out.Responses.resize(N);
  Out.LatencySeconds.resize(N);
  std::vector<std::unique_ptr<Connection>> Conns;
  for (unsigned C = 0; C != Clients; ++C)
    Conns.push_back(std::make_unique<Connection>(*S.Svc->Server));
  Out.Before = S.Svc->Session->stats();
  std::atomic<uint64_t> Errors{0};
  double Start = nowSeconds();
  for (size_t Round = 0; Round != Rounds; ++Round) {
    std::atomic<size_t> Next{Round * N / StreamRounds};
    size_t End = (Round + 1) * N / StreamRounds;
    double RoundStart = nowSeconds();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        ServeClient &Client = Conns[C]->client();
        for (size_t I = Next++; I < End; I = Next++) {
          const AlignRequest &Req = S.Programs[S.Stream[I]];
          double T0 = nowSeconds();
          bool Ok = Conns[C]->ok() &&
                    Client.call(makeFrame(FrameType::Align,
                                          encodeAlignRequest(Req)),
                                Out.Responses[I]);
          Out.LatencySeconds[I] = nowSeconds() - T0;
          if (!Ok)
            ++Errors;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Out.RoundWalls.push_back(nowSeconds() - RoundStart);
  }
  Out.Wall = nowSeconds() - Start;
  Out.After = S.Svc->Session->stats();
  Out.TransportErrors = Errors;
  return Out;
}

/// One-shot reference render of a program, computed outside the timed
/// region.
struct Reference {
  std::string Report;
  ProgramAlignment Result;
  ProgramProfile Train;
  std::optional<Program> Prog;
};

/// Hot and fresh programs are aligned whole. An edit re-aligns only the
/// procedure it changed, with the others masked to unprofiled so it
/// keeps its index and derived seed; the unchanged procedures take the
/// hot program's reference (alignment is per procedure). That keeps the
/// gate's cost at the stream's own miss work.
std::vector<Reference> oneShotReferences(const Setup &S, unsigned Threads) {
  std::vector<Reference> Refs(S.Programs.size());
  auto Align = [&](size_t I) {
    const AlignRequest &Req = S.Programs[I];
    Reference &Ref = Refs[I];
    Ref.Prog = parseProgram(Req.CfgText);
    if (!Ref.Prog)
      return;
    Ref.Train = synthesizeProfile(*Ref.Prog, Req.Seed, Req.Budget);
    auto [Hot, Changed] = S.EditOf[I];
    if (Hot == NotAnEdit) {
      Ref.Result = alignProgram(*Ref.Prog, Ref.Train, oneShotOptions(Req));
    } else {
      ProgramProfile Masked;
      for (const Procedure &Proc : Ref.Prog->procedures())
        Masked.Procs.push_back(ProcedureProfile::zeroed(Proc));
      Masked.Procs[Changed] = Ref.Train.Procs[Changed];
      ProgramAlignment One =
          alignProgram(*Ref.Prog, Masked, oneShotOptions(Req));
      Ref.Result = Refs[Hot].Result;
      Ref.Result.Procs[Changed] = std::move(One.Procs[Changed]);
    }
    Ref.Report = renderAlignmentReport(*Ref.Prog, Ref.Train, Ref.Result,
                                       Req.ComputeBounds, /*EmitDot=*/false);
  };
  std::vector<size_t> Whole, Edits;
  for (size_t I = 0; I != S.Programs.size(); ++I)
    (S.EditOf[I].first == NotAnEdit ? Whole : Edits).push_back(I);
  ThreadPool Pool(Threads);
  parallelFor(Pool, 0, Whole.size(), [&](size_t J) { Align(Whole[J]); });
  parallelFor(Pool, 0, Edits.size(), [&](size_t J) { Align(Edits[J]); });
  return Refs;
}

/// Byte-compares every response with its one-shot reference and checks
/// the exact hit/miss accounting.
void checkStream(const Setup &S, const StreamResult &Out,
                 const std::vector<Reference> &Refs, RunResult &R) {
  for (size_t I = 0; I != S.Stream.size(); ++I) {
    const Frame &F = Out.Responses[I];
    if (F.Type != FrameType::AlignOk)
      R.mismatch("request " + std::to_string(I) + " was answered with a " +
                 frameTypeName(F.Type) + " frame");
    else if (F.Body != Refs[S.Stream[I]].Report)
      R.mismatch("request " + std::to_string(I) +
                 " differs from its one-shot render");
  }
  uint64_t Hits = Out.After.Hits - Out.Before.Hits;
  uint64_t Misses = Out.After.Misses - Out.Before.Misses;
  if (Misses != S.ExpectedMisses || Hits + Misses != S.ExpectedLookups)
    R.mismatch("cache saw " + std::to_string(Hits) + " hits / " +
               std::to_string(Misses) + " misses, want " +
               std::to_string(S.ExpectedLookups - S.ExpectedMisses) + " / " +
               std::to_string(S.ExpectedMisses));
}

/// Quality of what the hot set is served: penalty vs the original
/// layouts, control-penalty cycles charged with a held-out synthetic run
/// (no traces exist for served programs), and the Held-Karp gap.
void addQuality(const Setup &S, const std::vector<Reference> &Refs,
                unsigned Threads, RunResult &R) {
  MachineModel Model = AlignmentOptions().Model;
  struct Job {
    size_t Program, Proc;
  };
  std::vector<Job> Jobs;
  double Penalty = 0, Original = 0, XPrimary = 0, XOriginal = 0;
  for (size_t H = 0; H != S.NumHot; ++H) {
    const Reference &Ref = Refs[H];
    if (!Ref.Prog)
      continue;
    Penalty += static_cast<double>(Ref.Result.totalTspPenalty());
    Original += static_cast<double>(Ref.Result.totalOriginalPenalty());
    ProgramProfile Test = synthesizeProfile(
        *Ref.Prog, S.Programs[H].Seed + 0x10001, S.Programs[H].Budget);
    XPrimary += static_cast<double>(evaluateProgramPenalty(
        *Ref.Prog, Ref.Result.tspLayouts(), Model, Ref.Train, Test));
    XOriginal += static_cast<double>(evaluateProgramPenalty(
        *Ref.Prog, Ref.Result.originalLayouts(), Model, Ref.Train, Test));
    for (size_t P = 0; P != Ref.Prog->numProcedures(); ++P)
      Jobs.push_back({H, P});
  }
  std::vector<double> Bounds(Jobs.size());
  ThreadPool Pool(Threads);
  parallelFor(Pool, 0, Jobs.size(), [&](size_t J) {
    const Reference &Ref = Refs[Jobs[J].Program];
    size_t P = Jobs[J].Proc;
    Bounds[J] = computePenaltyBounds(Ref.Prog->proc(P), Ref.Train.Procs[P],
                                     Model, Ref.Result.Procs[P].TspPenalty)
                    .HeldKarp;
  });
  double Hk = 0;
  for (double B : Bounds)
    Hk += B;
  R.add("penalty_vs_original", Penalty / Original, "ratio");
  R.add("xval_cycles_ratio", XPrimary / XOriginal, "ratio");
  R.add("hk_gap_pct", Hk > 0 ? 100.0 * (Penalty - Hk) / Hk : 0.0, "%");
}

/// The serial replay covers the stream's first round, which keeps the
/// traced run within a few minutes.
size_t replayedRequests(const Setup &S) {
  return S.Stream.size() / StreamRounds;
}

/// The traced run's serial replay: each replayed request, in stream
/// order, decomposed into public calls with outside timers over a replay
/// store prewarmed like the server's; plus AlignService::handleAlign on
/// its own equally prewarmed store for the handle time, recorded per
/// request in \p HandleSeconds. Returns the replay's wall time without
/// the handleAlign calls.
double replayStream(const Setup &S, const RunConfig &Config,
                    const StreamResult &Untraced,
                    std::vector<double> &HandleSeconds, LayerClock &Clock,
                    RunResult &R) {
  std::string Dir = Config.WorkDir + "/replay";
  std::filesystem::remove_all(Dir);
  AlignmentOptions Base;
  Base.Cache = CacheMode::Disk;
  Base.CachePath = Dir + "/decomposed";
  AlignmentCache Cache(Base.CachePath); // Flushed explicitly below.
  Base.CacheImpl = &Cache;
  Service Handle(Dir + "/handle", 1);
  AlignService Direct(Handle.Base);
  prewarmStore(S, Cache, Config.Threads);
  prewarmStore(S, *Handle.Session->cache(), Config.Threads);
  Cache.flush();

  size_t StoresSinceFlush = 0;
  HandleSeconds.assign(replayedRequests(S), 0.0);
  double Start = nowSeconds();
  for (size_t I = 0; I != replayedRequests(S); ++I) {
    const AlignRequest &Req = S.Programs[S.Stream[I]];
    std::string Wire = Clock.time("serve.encode_s", [&] {
      return encodeFrame(makeFrame(FrameType::Align, encodeAlignRequest(Req)));
    });
    // [u32 length][4-byte header][body] (serve/Protocol.h).
    std::string Body = Wire.substr(4 + FrameHeaderBytes);
    AlignRequest Decoded;
    if (!Clock.time("serve.decode_s",
                    [&] { return decodeAlignRequest(Body, Decoded); })) {
      R.mismatch("replay could not decode request " + std::to_string(I));
      continue;
    }
    std::optional<Program> Prog =
        Clock.time("ir.parse_s", [&] { return parseProgram(Decoded.CfgText); });
    if (!Prog) {
      R.mismatch("replay could not parse request " + std::to_string(I));
      continue;
    }
    ProgramProfile Train = Clock.time("serve.synth_profile_s", [&] {
      return synthesizeProfile(*Prog, Decoded.Seed, Decoded.Budget);
    });
    AlignmentOptions Options = oneShotOptions(Decoded);
    Options.Cache = CacheMode::Disk;
    Options.CacheImpl = &Cache;
    ProgramAlignment Result;
    for (size_t P = 0; P != Prog->numProcedures(); ++P) {
      const Procedure &Proc = Prog->proc(P);
      Clock.time("cache.fingerprint_s", [&] {
        return fingerprintProcedureInputs(Proc, Train.Procs[P], Options, P);
      });
      ProcedureAlignment PA;
      if (!Clock.time("cache.lookup_s", [&] {
            return Cache.lookup(Proc, Train.Procs[P], Options, P, PA);
          })) {
        PA = replayProcedure(Proc, Train.Procs[P], Options, P, Clock);
        Clock.time("cache.store_s", [&] {
          Cache.store(Proc, Train.Procs[P], Options, P, PA);
          return 0;
        });
        // The server's store flushes itself every 32 stores; here the
        // flush is called out so its time is its own.
        if (++StoresSinceFlush == 32) {
          StoresSinceFlush = 0;
          Clock.count("cache.flushes", 1);
          Clock.time("cache.flush_s", [&] { return Cache.flush(); });
        }
      }
      Result.Procs.push_back(std::move(PA));
    }
    std::string Report = Clock.time("serve.report_s", [&] {
      return renderAlignmentReport(*Prog, Train, Result, Decoded.ComputeBounds,
                                   /*EmitDot=*/false);
    });
    if (Report != Untraced.Responses[I].Body)
      R.mismatch("replayed request " + std::to_string(I) +
                 " differs from the server's response");

    double T0 = nowSeconds();
    Frame Handled = Direct.handleAlign(Decoded);
    HandleSeconds[I] = nowSeconds() - T0;
    if (Handled.Body != Report)
      R.mismatch("AlignService::handleAlign of request " + std::to_string(I) +
                 " differs from the decomposed replay");
  }
  double Handled = 0.0;
  for (double T : HandleSeconds)
    Handled += T;
  double ReplayWall =
      nowSeconds() - Start - Handled - Clock.sum(probeLayers());
  Clock.addSeconds("serve.handle_s", Handled);
  std::filesystem::remove_all(Dir);
  return ReplayWall;
}

} // namespace

RunResult runServeMixed(const RunConfig &Config) {
  RunResult R;
  unsigned Clients = Config.Smoke ? 2 : Config.Threads;
  std::string Dir = Config.WorkDir + "/serve-cache";

  std::vector<double> SetupTimes;
  Setup S;
  double GenerateSeconds = 0.0;
  for (int I = 0; I != 3; ++I) {
    double Start = nowSeconds();
    S = Setup();
    generate(S, Config);
    GenerateSeconds = nowSeconds() - Start;
    prewarm(S, Config, Dir);
    SetupTimes.push_back(nowSeconds() - Start);
  }
  R.note("requests", std::to_string(S.Stream.size()));
  R.note("edits", std::to_string(S.NumEdits));
  R.note("fresh", std::to_string(S.NumFresh));
  R.note("clients", std::to_string(Clients));

  StreamResult Out = runStream(S, Clients);
  // Before the gate's references add their own memory.
  double PeakRss = peakRssMiB();
  // A transport error leaves a wrong response, which the gate counts.
  R.Attempted = S.Stream.size();
  uint64_t Hits = Out.After.Hits - Out.Before.Hits;
  uint64_t Misses = Out.After.Misses - Out.Before.Misses;
  uint64_t Stores = Out.After.Stores - Out.Before.Stores;
  uint64_t Written = Out.After.BytesWritten - Out.Before.BytesWritten;
  R.note("setup_walls_s", jsonNumbers(SetupTimes));
  R.note("round_walls_s", jsonNumbers(Out.RoundWalls));
  R.note("transport_errors", std::to_string(Out.TransportErrors));
  R.note("cache_hits", std::to_string(Hits));
  R.note("cache_misses", std::to_string(Misses));
  R.note("store_entries", std::to_string(Out.After.Entries));

  // Gate, outside the timed region.
  std::vector<Reference> Refs = oneShotReferences(S, Config.Threads);
  checkStream(S, Out, Refs, R);
  Digest D;
  for (const Frame &F : Out.Responses)
    D.bytes(F.Body);
  std::string Want =
      committedDigest(Config.DigestFile, "serve-mixed", Config.Seed);
  if (!Want.empty() && Want != D.hex())
    R.mismatch("response digest " + D.hex() + " differs from the committed " +
               Want);
  R.note("digest", jsonString(D.hex()));
  R.note("digest_check",
         jsonString(Want.empty() ? "no-committed-digest" : "committed"));

  if (!Config.Trace) {
    std::vector<double> Ms;
    for (double L : Out.LatencySeconds)
      Ms.push_back(L * 1e3);
    double RoundWall = median(Out.RoundWalls);
    R.add("setup_s", median(SetupTimes), "s");
    R.add("align_wall_s", RoundWall, "s");
    R.add("peak_rss_mb", PeakRss, "MiB");
    addQuality(S, Refs, Config.Threads, R);
    R.add("serve_p50_ms", median(Ms), "ms");
    R.add("serve_p99_ms", percentile(Ms, 99.0), "ms");
    R.add("serve_rps",
          static_cast<double>(S.Stream.size() / StreamRounds) / RoundWall,
          "req/s");
    R.add("ok_frac",
          static_cast<double>(R.Attempted - std::min(R.Failed, R.Attempted)) /
              static_cast<double>(R.Attempted),
          "ratio");
    S.Svc.reset();
    return R;
  }

  // Traced run: the stream's first round against an identically
  // prewarmed server with the program's TraceSession installed, then
  // the serial replay of the same round.
  S.Svc.reset();
  prewarm(S, Config, Dir);
  TraceSession Session;
  Session.install();
  StreamResult Traced = runStream(S, Clients, /*Rounds=*/1);
  Session.uninstall();
  S.Svc.reset();
  for (size_t I = 0; I != replayedRequests(S); ++I)
    if (Traced.Responses[I].Body != Out.Responses[I].Body)
      R.mismatch("traced response " + std::to_string(I) +
                 " differs from the untraced one");

  LayerClock Clock;
  std::vector<double> HandleSeconds;
  double ReplayWall = replayStream(S, Config, Out, HandleSeconds, Clock, R);

  // Client latency minus handle time over the replayed hits (hot
  // repeats): a miss's solve time differs between the concurrent stream
  // and the serial replay by more than its wait.
  double Wait = 0.0;
  for (size_t I = 0; I != replayedRequests(S); ++I)
    if (S.Stream[I] < S.NumHot)
      Wait += Out.LatencySeconds[I] - HandleSeconds[I];
  R.add("workloads.build_s", GenerateSeconds, "s");
  for (const char *Layer :
       {"align.greedy_s", "align.reduction_s", "tsp.transform_s",
        "tsp.solve_s", "objective.evaluate_s", "cache.fingerprint_s",
        "cache.lookup_s",
        "cache.store_s", "cache.flush_s", "ir.parse_s", "serve.decode_s",
        "serve.encode_s", "serve.synth_profile_s", "serve.report_s",
        "serve.handle_s"})
    R.add(Layer, Clock.seconds(Layer), "s");
  double Runs = Clock.counted("tsp.solver_runs");
  R.add("tsp.solver_runs", Runs, "count");
  R.add("tsp.runs_tied_frac",
        Runs > 0 ? Clock.counted("tsp.runs_tied") / Runs : 0.0, "ratio");
  R.add("tsp.cities", Clock.counted("tsp.cities"), "count");
  R.add("tsp.matrix_bytes", Clock.counted("tsp.matrix_bytes"), "bytes");
  R.add("cache.hits", static_cast<double>(Hits), "count");
  R.add("cache.misses", static_cast<double>(Misses), "count");
  R.add("cache.hit_ratio",
        static_cast<double>(Hits) / static_cast<double>(Hits + Misses),
        "ratio");
  R.add("cache.flushes", Clock.counted("cache.flushes"), "count");
  R.add("cache.flush_bytes_per_store",
        Stores ? static_cast<double>(Written) / static_cast<double>(Stores)
               : 0.0,
        "bytes");
  R.add("serve.wait_s", Wait, "s");
  R.add("trace.replay_wall_s", ReplayWall, "s");
  std::vector<std::string> Outside = probeLayers();
  Outside.push_back("serve.handle_s");
  R.add("trace.coverage", Clock.total(Outside) / ReplayWall, "ratio");
  R.add("trace.overhead_pct",
        100.0 * (Traced.Wall / Out.RoundWalls.front() - 1.0), "%");
  addSpanCrossCheck(R, Clock, spanSeconds(Session));
  return R;
}

} // namespace balign::perfbench
