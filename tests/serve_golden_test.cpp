//===- tests/serve_golden_test.cpp - pinned wire-format round trips -------===//
//
// The serve wire format is a compatibility contract: the exact request
// and response bytes for a ping, an align, and a bumped-version frame
// are committed under examples/data/serve_* and replayed here against a
// live server. Any codec change that silently reshapes the wire — a
// reordered field, a new header byte, a changed error code — breaks the
// byte comparison and must be made deliberately, by regenerating the
// corpus with BALIGN_REGEN_GOLDEN=1 and committing the diff.
//
//===--------------------------------------------------------------------===//

#include "serve/Server.h"

#include "robust/Durability.h"
#include "robust/Journal.h"
#include "serve/Client.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace balign;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

/// A fixed, hand-written CFG so the align golden does not depend on the
/// workload generator's internals.
constexpr const char *GoldenCfg = R"(program golden
proc tokenize {
  entry:  size 4 jump -> header
  header: size 2 cond -> fill scan
  fill:   size 8 jump -> scan
  scan:   size 3 cond -> header done
  done:   size 2 ret
}
)";

bool regenerating() {
  const char *Env = std::getenv("BALIGN_REGEN_GOLDEN");
  return Env && *Env && std::string(Env) != "0";
}

std::string goldenPath(const std::string &Name) {
  return std::string(BALIGN_DATA_DIR) + "/" + Name;
}

std::string readFile(const std::string &Path) {
  std::string Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes))
      << "cannot open golden file " << Path
      << " (regenerate with BALIGN_REGEN_GOLDEN=1)";
  return Bytes;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << "cannot write golden file " << Path;
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The pinned request frames. Byte changes here are protocol changes.
std::string goldenPingRequest() {
  return encodeFrame(makeFrame(FrameType::Ping, "golden"));
}

std::string goldenAlignRequest() {
  AlignRequest Req;
  Req.Seed = 7;
  Req.Budget = 2000;
  Req.CfgText = GoldenCfg;
  return encodeFrame(makeFrame(FrameType::Align, encodeAlignRequest(Req)));
}

/// A ping frame whose version byte is bumped past ServeProtocolVersion:
/// the canary that a version-2 peer is rejected loudly, not half-read.
std::string goldenBadVersionRequest() {
  std::string Wire = goldenPingRequest();
  Wire[FrameHeaderBytes + 2] =
      static_cast<char>(ServeProtocolVersion + 1);
  return Wire;
}

/// Replays raw request bytes against a fresh single-threaded server and
/// returns the raw response bytes (re-encoded from the response frame),
/// plus how the connection ended.
std::string replay(const std::string &RequestBytes,
                   AlignServer::ConnectionEnd &End) {
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);

  int Fds[2];
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::thread ServerThread([&Server, &End, Fd = Fds[1]] {
    End = Server.serveConnection(Fd, Fd);
    ::shutdown(Fd, SHUT_RDWR);
  });

  std::string ResponseBytes;
  EXPECT_TRUE(writeAll(Fds[0], RequestBytes.data(), RequestBytes.size()));
  ::shutdown(Fds[0], SHUT_WR); // One request, then EOF.
  Frame Response;
  FrameError Code = FrameError::None;
  std::string Message;
  if (readFrame(Fds[0], Response, Code, Message) == ReadStatus::Ok)
    ResponseBytes = encodeFrame(Response);
  ServerThread.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
  return ResponseBytes;
}

struct GoldenCase {
  const char *Name; ///< File stem under examples/data.
  std::string RequestBytes;
  AlignServer::ConnectionEnd ExpectedEnd;
};

std::vector<GoldenCase> goldenCases() {
  return {
      {"serve_ping", goldenPingRequest(), AlignServer::ConnectionEnd::Eof},
      {"serve_align", goldenAlignRequest(),
       AlignServer::ConnectionEnd::Eof},
      {"serve_badversion", goldenBadVersionRequest(),
       AlignServer::ConnectionEnd::ProtocolError},
  };
}

} // namespace

TEST(ServeGoldenTest, VersionByteIsPinned) {
  // Bumping the protocol version invalidates every committed golden
  // frame; this assertion makes that a loud, deliberate edit here too.
  EXPECT_EQ(1, ServeProtocolVersion);
}

TEST(ServeGoldenTest, CorpusRoundTripsByteForByte) {
  for (const GoldenCase &Case : goldenCases()) {
    SCOPED_TRACE(Case.Name);
    AlignServer::ConnectionEnd End = AlignServer::ConnectionEnd::Eof;
    std::string ResponseBytes = replay(Case.RequestBytes, End);
    ASSERT_FALSE(ResponseBytes.empty());
    EXPECT_EQ(Case.ExpectedEnd, End);

    if (regenerating()) {
      writeFile(goldenPath(std::string(Case.Name) + ".req"),
                Case.RequestBytes);
      writeFile(goldenPath(std::string(Case.Name) + ".resp"),
                ResponseBytes);
      continue;
    }
    EXPECT_EQ(readFile(goldenPath(std::string(Case.Name) + ".req")),
              Case.RequestBytes)
        << "request bytes drifted from the committed corpus";
    EXPECT_EQ(readFile(goldenPath(std::string(Case.Name) + ".resp")),
              ResponseBytes)
        << "response bytes drifted from the committed corpus";
  }
}

TEST(ServeGoldenTest, CommittedRequestsStillParse) {
  if (regenerating())
    GTEST_SKIP() << "regenerating corpus";
  // The committed .req files — not the freshly encoded ones — must
  // replay cleanly: this is what catches a decoder change that rejects
  // yesterday's valid traffic.
  for (const GoldenCase &Case : goldenCases()) {
    SCOPED_TRACE(Case.Name);
    std::string Committed =
        readFile(goldenPath(std::string(Case.Name) + ".req"));
    ASSERT_FALSE(Committed.empty());
    AlignServer::ConnectionEnd End = AlignServer::ConnectionEnd::Eof;
    std::string ResponseBytes = replay(Committed, End);
    ASSERT_FALSE(ResponseBytes.empty());
    EXPECT_EQ(Case.ExpectedEnd, End);
    EXPECT_EQ(readFile(goldenPath(std::string(Case.Name) + ".resp")),
              ResponseBytes);
  }
}

TEST(ServeGoldenTest, BumpedVersionIsRejectedLoudly) {
  AlignServer::ConnectionEnd End = AlignServer::ConnectionEnd::Eof;
  std::string ResponseBytes = replay(goldenBadVersionRequest(), End);
  EXPECT_EQ(AlignServer::ConnectionEnd::ProtocolError, End);

  // Decode the response we got back: a structured BadVersion error
  // naming both versions, not a hang or a silent close.
  ASSERT_GE(ResponseBytes.size(), FrameHeaderBytes + 4u);
  Frame Response;
  Response.Type = FrameType::Error;
  Response.Body = ResponseBytes.substr(FrameHeaderBytes + 4);
  ASSERT_EQ(static_cast<char>(FrameType::Error),
            ResponseBytes[FrameHeaderBytes + 3]);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::BadVersion, Code);
  EXPECT_NE(std::string::npos,
            Message.find(std::to_string(ServeProtocolVersion + 1)));
}
