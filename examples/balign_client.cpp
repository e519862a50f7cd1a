//===- examples/balign_client.cpp - balign-serve client --------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Talks to an `align_tool --serve SOCK` server: sends align requests
// over the length-prefixed wire protocol and prints the report bytes —
// byte-identical to running align_tool one-shot on the same inputs and
// request flags, none included — to stdout. Also exposes the service frames (ping, metrics, shutdown)
// so a shell script can health-check, scrape, and stop a server.
//
// Usage:
//   balign_client SOCK [file.cfg] [request flags] [--profile FILE]
//                 [--deadline MS] [--batch LIST] [--retry N]
//                 [--retry-backoff MS] [--ping] [--metrics] [--shutdown]
//
// The request flags are align_tool's: --seed --budget --bounds
// --on-error --effort-policy --aligner tsp|exttsp --objective
// --exttsp-window --exttsp-weights --encoding --short-range, parsed by
// the same serve/Oneshot.h function. The server and align_tool both
// run alignProgram and render the same report, so a served report
// equals the one-shot report for the same flags.
//
// Request order on one connection: ping first (when asked), then the
// align for file.cfg (or each entry of --batch LIST), then metrics,
// then shutdown. LIST has align_tool's --batch grammar: one
// "prog.cfg [profile.prof]" per line, blank lines and '#' comments
// skipped. An entry's profile column is the profile sent with it; an
// entry without one sends --profile FILE when given, else none (the
// server synthesizes the profile). --retry N resends transport-failed
// requests up to N attempts with deterministic doubling backoff — align
// resends are idempotent (byte-identical on the wire), so a server
// restart mid-batch is invisible. Exit codes: 0 success, 1 usage or
// local file error, 2 a connect/transport failure or a structured
// server error frame (one-line diagnostic on stderr either way).
//
//===--------------------------------------------------------------------===//

#include "robust/Journal.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "support/Flags.h"
#include "support/Format.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

using namespace balign;

namespace {

struct ClientOptions {
  std::string Socket;
  std::string File;
  std::string ProfileFile;
  std::string BatchFile;
  RequestFlags Flags; ///< Shared with align_tool (serve/Oneshot.h).
  uint64_t Retry = 1;          ///< Total attempts per request.
  uint64_t RetryBackoffMs = 50;
  bool Ping = false;
  bool Metrics = false;
  bool Shutdown = false;
};

bool parseArgs(int Argc, char **Argv, ClientOptions &Options) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    FlagParse Shared = parseRequestFlag(Argc, Argv, I, Options.Flags);
    if (Shared == FlagParse::Error)
      return false;
    if (Shared == FlagParse::Consumed)
      continue;
    auto needValue = [&](const char *Flag) -> const char * {
      return flagValue(Flag, Argc, Argv, I);
    };
    if (Arg == "--deadline") {
      uint64_t Ms = 0;
      if (!flagUInt("--deadline", Argc, Argv, I, Ms, UINT32_MAX))
        return false;
      Options.Flags.Request.DeadlineMs = static_cast<uint32_t>(Ms);
    } else if (Arg == "--profile") {
      const char *V = needValue("--profile");
      if (!V)
        return false;
      Options.ProfileFile = V;
    } else if (Arg == "--batch") {
      const char *V = needValue("--batch");
      if (!V)
        return false;
      Options.BatchFile = V;
    } else if (Arg == "--retry") {
      if (!flagUIntInRange("--retry", Argc, Argv, I, Options.Retry, 1, 100))
        return false;
    } else if (Arg == "--retry-backoff") {
      if (!flagUInt("--retry-backoff", Argc, Argv, I, Options.RetryBackoffMs,
                    60000))
        return false;
    } else if (Arg == "--ping") {
      Options.Ping = true;
    } else if (Arg == "--metrics") {
      Options.Metrics = true;
    } else if (Arg == "--shutdown") {
      Options.Shutdown = true;
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf("usage: balign_client SOCK [file.cfg] [request flags] "
                  "[--profile FILE] [--deadline MS]\n"
                  "                     [--batch LIST] [--retry N] "
                  "[--retry-backoff MS] [--ping] [--metrics]\n"
                  "                     [--shutdown]\n"
                  "Sends requests to an `align_tool --serve SOCK` server; "
                  "align reports go to\n"
                  "stdout byte-identical to one-shot align_tool given the "
                  "same request flags\n"
                  "(or none).\n"
                  "--batch LIST aligns every entry of LIST, one "
                  "'prog.cfg [profile.prof]' per line\n"
                  "('#' comments and blank lines skipped; an entry without "
                  "a profile sends\n"
                  "--profile FILE if given); --retry N resends "
                  "transport-failed requests\n"
                  "idempotently. Exit: 0 ok, 1 usage or local file error, "
                  "2 a connect/transport\n"
                  "failure or a server error frame.\n"
                  "request flags (shared with align_tool):\n%s",
                  requestFlagsHelp());
      return false;
    } else if (!Arg.empty() && Arg[0] != '-') {
      if (Options.Socket.empty())
        Options.Socket = Arg;
      else if (Options.File.empty())
        Options.File = Arg;
      else {
        std::fprintf(stderr, "error: unexpected argument '%s'\n",
                     Arg.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Options.Socket.empty()) {
    std::fprintf(stderr, "error: no server socket given (see --help)\n");
    return false;
  }
  if (Options.File.empty() && Options.BatchFile.empty() && !Options.Ping &&
      !Options.Metrics && !Options.Shutdown) {
    std::fprintf(stderr, "error: nothing to do: give a file.cfg, --batch, "
                 "--ping, --metrics, or --shutdown\n");
    return false;
  }
  if (!Options.File.empty() && !Options.BatchFile.empty()) {
    std::fprintf(stderr, "error: give either a file.cfg or --batch, "
                 "not both\n");
    return false;
  }
  warnIgnoredRequestFlags(Options.Flags);
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  if (readFileBytes(Path, Out))
    return true;
  std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  ClientOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 1;

  RetryPolicy Policy;
  Policy.MaxAttempts = static_cast<unsigned>(Options.Retry);
  Policy.InitialBackoffMs = Options.RetryBackoffMs;
  Policy.MaxBackoffMs = Options.RetryBackoffMs * 16;

  ServeClient Client;
  std::string Error;
  // ECONNREFUSED (and every other connect failure) is exit code 2 with
  // a one-line diagnostic: the distinct code lets a batch driver tell
  // "server unreachable" from its own usage errors.
  if (!Client.connectUnixRetry(Options.Socket, Policy, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  if (Options.Ping) {
    Frame Response;
    if (!Client.call(makeFrame(FrameType::Ping, "balign"), Response,
                     &Error) ||
        Response.Type != FrameType::Pong || Response.Body != "balign") {
      std::fprintf(stderr, "error: ping failed: %s\n", Error.c_str());
      return 2;
    }
    std::fprintf(stderr, "pong\n");
  }

  // Collect the align workload as (program, profile) pairs: the single
  // positional file, or every entry of --batch LIST.
  std::vector<std::pair<std::string, std::string>> Entries;
  if (!Options.File.empty())
    Entries.emplace_back(Options.File, Options.ProfileFile);
  if (!Options.BatchFile.empty()) {
    std::ifstream List(Options.BatchFile);
    if (!List) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   Options.BatchFile.c_str());
      return 1;
    }
    std::string Line, ProgramFile, ProfileFile;
    while (std::getline(List, Line))
      if (parseBatchLine(Line, ProgramFile, ProfileFile))
        Entries.emplace_back(ProgramFile, ProfileFile.empty()
                                              ? Options.ProfileFile
                                              : ProfileFile);
  }

  for (const auto &[File, ProfileFile] : Entries) {
    AlignRequest Request = Options.Flags.Request;
    if (!readFile(File, Request.CfgText))
      return 1;
    if (!ProfileFile.empty()) {
      if (!readFile(ProfileFile, Request.ProfileText))
        return 1;
      Request.HasProfile = true;
    }
    std::string Report;
    // Transport failures mid-call (the server died under us) reconnect
    // and resend the byte-identical request; a structured server error
    // is final either way.
    if (!Client.alignWithRetry(Options.Socket, Request, Report, Policy,
                               &Error)) {
      std::fprintf(stderr, "error: align '%s' failed: %s\n", File.c_str(),
                   escapeControlBytes(Error).c_str());
      return 2;
    }
    std::fwrite(Report.data(), 1, Report.size(), stdout);
  }

  if (Options.Metrics) {
    Frame Response;
    if (!Client.call(makeFrame(FrameType::Metrics), Response, &Error) ||
        Response.Type != FrameType::MetricsOk) {
      std::fprintf(stderr, "error: metrics failed: %s\n", Error.c_str());
      return 2;
    }
    std::fwrite(Response.Body.data(), 1, Response.Body.size(), stdout);
  }

  if (Options.Shutdown) {
    Frame Response;
    if (!Client.call(makeFrame(FrameType::Shutdown), Response, &Error) ||
        Response.Type != FrameType::ShutdownOk) {
      std::fprintf(stderr, "error: shutdown failed: %s\n", Error.c_str());
      return 2;
    }
    std::fprintf(stderr, "server shutting down\n");
  }
  return 0;
}
