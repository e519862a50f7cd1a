//===- tests/serve_protocol_test.cpp - wire protocol fuzz/negative --------===//
//
// The balign-serve robustness battery: arbitrary bytes, truncated
// frames, hostile length prefixes, wrong versions, and mid-frame
// disconnects must all produce a structured error frame (or a clean
// close) in bounded time — never a crash, a hang, or a partial write.
// Runs under the ASan/UBSan and TSan CI legs like every other test.
//
//===--------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "robust/Durability.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "serve/Server.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <csignal>
#include <limits>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace balign;

namespace {

/// A peer that closed mid-response must not kill the test binary.
struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

const char *DemoCfg = R"(program demo
proc tokenize {
  entry:  size 4 jump -> header
  header: size 2 cond -> fill scan
  fill:   size 8 jump -> scan
  scan:   size 3 cond -> header done
  done:   size 2 ret
}
)";

AlignRequest demoRequest() {
  AlignRequest Req;
  Req.Seed = 7;
  Req.Budget = 2000;
  Req.CfgText = DemoCfg;
  return Req;
}

/// A connected socketpair; both ends close on destruction unless
/// released first.
struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  }
  ~SocketPair() {
    closeClient();
    closeServer();
  }
  int client() const { return Fds[0]; }
  int server() const { return Fds[1]; }
  void closeClient() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    Fds[0] = -1;
  }
  void closeServer() {
    if (Fds[1] >= 0)
      ::close(Fds[1]);
    Fds[1] = -1;
  }
};

/// Runs serveConnection on a background thread over \p Pair's server
/// end; joins in the destructor (the test must close/half-close the
/// client end to let the server finish).
struct ServerRun {
  ServerRun(AlignServer &Server, SocketPair &Pair)
      : Thread([&Server, &Pair, this] {
          End = Server.serveConnection(Pair.server(), Pair.server());
          // Mirror the accept loop, which closes a connection's fd when
          // serveConnection returns; without this a client draining to
          // EOF would block forever on the still-open server end.
          Pair.closeServer();
        }) {}
  ~ServerRun() {
    if (Thread.joinable())
      Thread.join();
  }
  void join() { Thread.join(); }

  AlignServer::ConnectionEnd End = AlignServer::ConnectionEnd::Eof;
  std::thread Thread;
};

/// Default single-threaded server over a cache-less base.
struct ServerFixture {
  AlignmentOptions Base;
  AlignServer Server;
  ServerFixture(ServeConfig Config = {}) : Server(Base, configOf(Config)) {}
  static ServeConfig configOf(ServeConfig Config) {
    if (Config.Threads == 0)
      Config.Threads = 1;
    return Config;
  }
};

void writeAll(int Fd, const std::string &Bytes) {
  ASSERT_TRUE(balign::writeAll(Fd, Bytes.data(), Bytes.size()));
}

Frame readResponse(int Fd) {
  Frame F;
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_EQ(ReadStatus::Ok, readFrame(Fd, F, Code, Message)) << Message;
  return F;
}

FrameError errorCodeOf(const Frame &F) {
  EXPECT_EQ(FrameType::Error, F.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_TRUE(decodeErrorFrame(F, Code, Message));
  return Code;
}

} // namespace

TEST(ServeProtocolTest, FrameRoundTrip) {
  Frame In = makeFrame(FrameType::Ping, "hello");
  std::string Wire = encodeFrame(In);
  // [u32 len][B S ver type][body]
  ASSERT_EQ(4 + FrameHeaderBytes + 5, Wire.size());
  EXPECT_EQ('B', Wire[4]);
  EXPECT_EQ('S', Wire[5]);
  EXPECT_EQ(ServeProtocolVersion, static_cast<uint8_t>(Wire[6]));

  int Pipe[2];
  ASSERT_EQ(0, ::pipe(Pipe));
  ASSERT_TRUE(balign::writeAll(Pipe[1], Wire.data(), Wire.size()));
  ::close(Pipe[1]);
  Frame Out;
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_EQ(ReadStatus::Ok, readFrame(Pipe[0], Out, Code, Message));
  EXPECT_EQ(In.Type, Out.Type);
  EXPECT_EQ(In.Body, Out.Body);
  EXPECT_EQ(ReadStatus::Eof, readFrame(Pipe[0], Out, Code, Message));
  ::close(Pipe[0]);
}

TEST(ServeProtocolTest, AlignRequestRoundTrip) {
  AlignRequest In = demoRequest();
  In.DeadlineMs = 250;
  In.Effort = EffortPolicy::Scaled;
  In.OnError = OnErrorPolicy::Fallback;
  In.ComputeBounds = true;
  In.HasProfile = true;
  In.ProfileText = "profile demo\n";

  AlignRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeAlignRequest(encodeAlignRequest(In), Out, &Error))
      << Error;
  EXPECT_EQ(In.Seed, Out.Seed);
  EXPECT_EQ(In.Budget, Out.Budget);
  EXPECT_EQ(In.DeadlineMs, Out.DeadlineMs);
  EXPECT_EQ(In.Effort, Out.Effort);
  EXPECT_EQ(In.OnError, Out.OnError);
  EXPECT_EQ(In.ComputeBounds, Out.ComputeBounds);
  EXPECT_EQ(In.HasProfile, Out.HasProfile);
  EXPECT_EQ(In.CfgText, Out.CfgText);
  EXPECT_EQ(In.ProfileText, Out.ProfileText);
}

TEST(ServeProtocolTest, ExtensionBlocksMatchRecordedWireBytes) {
  // Both extension blocks off their defaults, built through the shared
  // flag parser. These body bytes are what such a request has always
  // put on the wire; no encoder change may move them.
  std::vector<std::string> Args = {
      "tool", "--seed", "7", "--aligner", "exttsp", "--objective",
      "fallthrough", "--exttsp-window", "256", "--exttsp-weights",
      "0.25,0.5", "--encoding", "short-long", "--short-range", "64"};
  std::vector<char *> Argv;
  for (std::string &S : Args)
    Argv.push_back(S.data());
  int Argc = static_cast<int>(Argv.size());
  RequestFlags Flags;
  for (int I = 1; I != Argc; ++I)
    ASSERT_EQ(FlagParse::Consumed,
              parseRequestFlag(Argc, Argv.data(), I, Flags));
  std::string Hex;
  for (unsigned char C : encodeAlignRequest(Flags.Request)) {
    Hex += "0123456789abcdef"[C >> 4];
    Hex += "0123456789abcdef"[C & 15];
  }
  EXPECT_EQ("0700000000000000"  // seed
            "50c3000000000000"  // budget
            "00000000"          // deadline
            "00000c00"          // effort, on-error, flags, reserved
            "00000000"          // CFG length
            "00000000"          // profile length
            "0100"              // primary, objective
            "0001000000010000"  // windows
            "000000000000d03f"  // forward weight
            "000000000000e03f"  // backward weight
            "01"                // encoding
            "4000000000000000"  // short range
            "0100000001000000", // long extra instrs, long penalty
            Hex);
}

TEST(ServeProtocolTest, AlignRequestRejectsEveryTruncation) {
  std::string Full = encodeAlignRequest(demoRequest());
  AlignRequest Out;
  for (size_t Len = 0; Len != Full.size(); ++Len) {
    std::string Error;
    EXPECT_FALSE(decodeAlignRequest(Full.substr(0, Len), Out, &Error))
        << "length " << Len << " decoded";
    EXPECT_FALSE(Error.empty());
  }
  EXPECT_TRUE(decodeAlignRequest(Full, Out, nullptr));
}

TEST(ServeProtocolTest, AlignRequestStrictness) {
  AlignRequest Out;
  std::string Full = encodeAlignRequest(demoRequest());

  // Trailing bytes.
  EXPECT_FALSE(decodeAlignRequest(Full + "x", Out, nullptr));

  // Reserved byte nonzero (offset: 8 seed + 8 budget + 4 deadline +
  // 1 effort + 1 onerror + 1 flags = 23).
  std::string Bad = Full;
  Bad[23] = 1;
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));

  // Unknown effort / on-error / flag bits.
  Bad = Full;
  Bad[20] = 17;
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));
  Bad = Full;
  Bad[21] = 9;
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));
  Bad = Full;
  Bad[22] = static_cast<char>(0x80);
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));

  // Profile bytes without the profile flag: append a nonzero profile
  // length by rebuilding with HasProfile then clearing the flag bit.
  AlignRequest WithProf = demoRequest();
  WithProf.HasProfile = true;
  WithProf.ProfileText = "p";
  Bad = encodeAlignRequest(WithProf);
  Bad[22] &= ~char(2);
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));
}

TEST(ServeProtocolTest, ObjectiveExtensionRoundTrip) {
  AlignRequest In = demoRequest();
  In.Objective = ObjectiveBlock{{2048, 512, 0.375, 0.0625},
                                PrimaryAligner::ExtTsp,
                                ObjectiveKind::Fallthrough};

  AlignRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeAlignRequest(encodeAlignRequest(In), Out, &Error))
      << Error;
  EXPECT_EQ(In.Objective, Out.Objective);
}

TEST(ServeProtocolTest, ObjectiveExtensionDoesNotDisturbLegacyLayout) {
  // Without the extension block, the encoded bytes are exactly the
  // pre-extension layout — that is what keeps the committed golden
  // frames and old clients valid against this server.
  AlignRequest Legacy = demoRequest();
  AlignRequest Extended = demoRequest();
  Extended.Objective.emplace();
  std::string Ext = encodeAlignRequest(Extended);
  std::string Plain = encodeAlignRequest(Legacy);
  // The extension strictly appends (plus the flag bit): same prefix.
  ASSERT_EQ(Plain.size() + 26, Ext.size());
  EXPECT_EQ(Plain.substr(0, 22), Ext.substr(0, 22)); // Up to the flags.
  EXPECT_EQ(Plain.substr(23), Ext.substr(23, Plain.size() - 23));
}

TEST(ServeProtocolTest, ObjectiveExtensionRejectsBadValues) {
  AlignRequest Base = demoRequest();
  Base.Objective.emplace();
  AlignRequest Out;

  // Every truncation of the extension block fails.
  std::string Full = encodeAlignRequest(Base);
  for (size_t Cut = 1; Cut <= 26; ++Cut)
    EXPECT_FALSE(decodeAlignRequest(Full.substr(0, Full.size() - Cut), Out,
                                    nullptr))
        << "cut " << Cut;

  // Unknown primary / objective enum values.
  std::string Bad = Full;
  Bad[Full.size() - 26] = 2;
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));
  Bad = Full;
  Bad[Full.size() - 25] = 7;
  EXPECT_FALSE(decodeAlignRequest(Bad, Out, nullptr));

  // Out-of-range windows, and negative, oversized, NaN and infinite
  // weights (unspellable by the CLI, but raw frames can carry any bit
  // pattern).
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  for (ExtTspParams P : {ExtTspParams{0, 640, 0.1, 0.1},
                         ExtTspParams{1024, (1u << 20) + 1, 0.1, 0.1},
                         ExtTspParams{1024, 640, -0.5, 0.1},
                         ExtTspParams{1024, 640, 0.1, 1025.0},
                         ExtTspParams{1024, 640, NaN, 0.1},
                         ExtTspParams{1024, 640, 0.1, Inf}}) {
    AlignRequest Bad = Base;
    static_cast<ExtTspParams &>(*Bad.Objective) = P;
    EXPECT_FALSE(decodeAlignRequest(encodeAlignRequest(Bad), Out, nullptr));
  }
}

TEST(ServeProtocolTest, DecodeSurvivesRandomBytes) {
  Rng R(2026);
  AlignRequest Out;
  for (int I = 0; I != 500; ++I) {
    std::string Body(R.nextIndex(64), '\0');
    for (char &C : Body)
      C = static_cast<char>(R.nextIndex(256));
    std::string Error;
    // Must never crash or over-read; success is fine if the bytes
    // happen to form a request (vanishingly unlikely but legal).
    decodeAlignRequest(Body, Out, &Error);
  }
}

TEST(ServeProtocolTest, OversizedLengthPrefixRejectedBeforePayload) {
  SocketPair Pair;
  // Claim 4 GiB; send nothing else and DO NOT close — readFrame must
  // reject from the prefix alone, in bounded time, or this test hangs.
  std::string Prefix = {'\xff', '\xff', '\xff', '\xff'};
  writeAll(Pair.client(), Prefix);
  Frame F;
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_EQ(ReadStatus::Error, readFrame(Pair.server(), F, Code, Message));
  EXPECT_EQ(FrameError::TooLarge, Code);
}

TEST(ServeProtocolTest, TruncatedFrameIsBadFrame) {
  SocketPair Pair;
  std::string Wire = encodeFrame(makeFrame(FrameType::Ping, "ping-body"));
  writeAll(Pair.client(), Wire.substr(0, Wire.size() - 3));
  Pair.closeClient();
  Frame F;
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_EQ(ReadStatus::Error, readFrame(Pair.server(), F, Code, Message));
  EXPECT_EQ(FrameError::BadFrame, Code);
}

TEST(ServeProtocolTest, WrongVersionIsBadVersion) {
  SocketPair Pair;
  std::string Wire = encodeFrame(makeFrame(FrameType::Ping));
  Wire[6] = static_cast<char>(ServeProtocolVersion + 1);
  writeAll(Pair.client(), Wire);
  Frame F;
  FrameError Code = FrameError::None;
  std::string Message;
  EXPECT_EQ(ReadStatus::Error, readFrame(Pair.server(), F, Code, Message));
  EXPECT_EQ(FrameError::BadVersion, Code);
  EXPECT_NE(std::string::npos, Message.find(
      std::to_string(ServeProtocolVersion + 1)));
}

TEST(ServeProtocolTest, ServerAnswersGarbageWithErrorFrameAndSurvives) {
  ServerFixture Fixture;
  Rng R(7);
  for (int Round = 0; Round != 20; ++Round) {
    SocketPair Pair;
    ServerRun Run(Fixture.Server, Pair);
    std::string Garbage(8 + R.nextIndex(64), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(R.nextIndex(256));
    // Avoid the one prefix that waits for more input: a plausible small
    // length with too few bytes behind it is the half-close case below.
    ASSERT_TRUE(
        balign::writeAll(Pair.client(), Garbage.data(), Garbage.size()));
    ::shutdown(Pair.client(), SHUT_WR); // Mid-stream disconnect.
    // Whatever the garbage looked like, the connection must end in
    // bounded time with either a clean close or one error frame.
    Frame F;
    FrameError Code = FrameError::None;
    std::string Message;
    while (readFrame(Pair.client(), F, Code, Message) == ReadStatus::Ok) {
    }
    Run.join();
    EXPECT_NE(AlignServer::ConnectionEnd::Shutdown, Run.End);
  }
  // The server is still healthy: a clean connection works.
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  ServeClient Client;
  Client.wrap(Pair.client(), Pair.client());
  Frame Response;
  std::string Error;
  ASSERT_TRUE(Client.call(makeFrame(FrameType::Ping, "ok"), Response,
                          &Error))
      << Error;
  EXPECT_EQ(FrameType::Pong, Response.Type);
  EXPECT_EQ("ok", Response.Body);
  Pair.closeClient();
}

TEST(ServeProtocolTest, MidFrameDisconnectGetsStructuredError) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  std::string Wire =
      encodeFrame(makeFrame(FrameType::Align,
                            encodeAlignRequest(demoRequest())));
  writeAll(Pair.client(), Wire.substr(0, Wire.size() / 2));
  ::shutdown(Pair.client(), SHUT_WR); // Disconnect mid-frame...
  Frame Response = readResponse(Pair.client()); // ...still get an answer.
  EXPECT_EQ(FrameError::BadFrame, errorCodeOf(Response));
  Run.join();
  EXPECT_EQ(AlignServer::ConnectionEnd::ProtocolError, Run.End);
  EXPECT_EQ(1u, Fixture.Server.metrics().counter("serve.frames.bad"));
}

TEST(ServeProtocolTest, NonRequestTypeIsBadType) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  // A response type sent as a request is well-framed but not a request.
  writeAll(Pair.client(), encodeFrame(makeFrame(FrameType::Pong)));
  Frame Response = readResponse(Pair.client());
  EXPECT_EQ(FrameError::BadType, errorCodeOf(Response));
  // The connection survives a BadType (only framing errors close it).
  writeAll(Pair.client(), encodeFrame(makeFrame(FrameType::Ping, "x")));
  Response = readResponse(Pair.client());
  EXPECT_EQ(FrameType::Pong, Response.Type);
  Pair.closeClient();
  Run.join();
  EXPECT_EQ(AlignServer::ConnectionEnd::Eof, Run.End);
}

TEST(ServeProtocolTest, MetricsAndShutdownRejectBodies) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  writeAll(Pair.client(), encodeFrame(makeFrame(FrameType::Metrics, "x")));
  EXPECT_EQ(FrameError::BadRequest,
            errorCodeOf(readResponse(Pair.client())));
  writeAll(Pair.client(), encodeFrame(makeFrame(FrameType::Shutdown, "x")));
  EXPECT_EQ(FrameError::BadRequest,
            errorCodeOf(readResponse(Pair.client())));
  Pair.closeClient();
  Run.join();
  EXPECT_EQ(AlignServer::ConnectionEnd::Eof, Run.End);
}

TEST(ServeProtocolTest, MalformedAlignBodyIsBadRequestNotConnectionLoss) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  writeAll(Pair.client(),
           encodeFrame(makeFrame(FrameType::Align, "not a request")));
  EXPECT_EQ(FrameError::BadRequest,
            errorCodeOf(readResponse(Pair.client())));
  // Sibling request on the same connection still succeeds.
  writeAll(Pair.client(),
           encodeFrame(makeFrame(FrameType::Align,
                                 encodeAlignRequest(demoRequest()))));
  Frame Response = readResponse(Pair.client());
  EXPECT_EQ(FrameType::AlignOk, Response.Type);
  EXPECT_NE(std::string::npos, Response.Body.find("proc tokenize layout:"));
  Pair.closeClient();
  Run.join();
}

TEST(ServeProtocolTest, UnparsableCfgIsParseError) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  AlignRequest Req = demoRequest();
  Req.CfgText = "this is not a cfg";
  writeAll(Pair.client(),
           encodeFrame(makeFrame(FrameType::Align,
                                 encodeAlignRequest(Req))));
  EXPECT_EQ(FrameError::ParseError,
            errorCodeOf(readResponse(Pair.client())));
  Pair.closeClient();
  Run.join();
}

TEST(ServeProtocolTest, ShutdownFrameStopsCleanly) {
  ServerFixture Fixture;
  SocketPair Pair;
  ServerRun Run(Fixture.Server, Pair);
  writeAll(Pair.client(), encodeFrame(makeFrame(FrameType::Shutdown)));
  Frame Response = readResponse(Pair.client());
  EXPECT_EQ(FrameType::ShutdownOk, Response.Type);
  Run.join();
  EXPECT_EQ(AlignServer::ConnectionEnd::Shutdown, Run.End);
}
