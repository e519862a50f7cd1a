//===- serve/Protocol.h - balign-serve wire protocol ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The balign-serve wire format: length-prefixed frames over a byte
/// stream (a unix-domain socket or a stdin/stdout pipe). Every frame is
///
///   [u32 LE payload length N][N payload bytes]
///
/// and every payload starts with a fixed four-byte header
///
///   [0] 'B'   [1] 'S'   [2] protocol version   [3] frame type
///
/// followed by a type-specific body. The version byte is part of the
/// public contract: a server receiving any other version must reject the
/// frame loudly (FrameError::BadVersion) rather than guess, and the
/// golden request/response corpus under examples/data/serve_* pins the
/// byte layout so accidental format drift fails a round-trip test.
///
/// Robustness contract (what tests/serve_protocol_test.cpp attacks):
/// decoding arbitrary bytes must never crash, hang, or over-read —
/// malformed input yields a structured FrameError in bounded time. The
/// length prefix is capped at MaxFramePayload; a larger claim is
/// rejected *before* any payload read, so a malicious prefix cannot make
/// the server block on bytes that will never arrive.
///
/// Strictness is deliberate everywhere: reserved bytes must be zero,
/// nested lengths must add up exactly, and trailing bytes are errors.
/// A lenient reader would turn every stray byte into silent behavior
/// the golden corpus cannot pin.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_PROTOCOL_H
#define BALIGN_SERVE_PROTOCOL_H

#include "align/Pipeline.h"
#include "static/EffortPolicy.h"

#include <cstdint>
#include <optional>
#include <string>

namespace balign {

/// The protocol version this build speaks. Bump on any wire change.
inline constexpr uint8_t ServeProtocolVersion = 1;

/// Payload-size cap (header + body). Chosen generously above the largest
/// realistic CFG+profile request while keeping a hostile length prefix
/// from reserving gigabytes.
inline constexpr uint32_t MaxFramePayload = 16u << 20;

/// Bytes of the fixed payload header ('B', 'S', version, type).
inline constexpr size_t FrameHeaderBytes = 4;

/// Frame types. Requests live in [0, 16), responses in [16, 32); the
/// numeric values are wire contract, append-only.
enum class FrameType : uint8_t {
  // Requests.
  Ping = 0,     ///< Body echoed back in a Pong.
  Align = 1,    ///< An AlignRequest body; answered AlignOk or Error.
  Metrics = 2,  ///< Empty body; answered MetricsOk (JSON body).
  Shutdown = 3, ///< Empty body; answered ShutdownOk, then server stops.

  // Responses.
  Pong = 16,       ///< Ping echo.
  AlignOk = 17,    ///< Body: the one-shot align_tool report bytes.
  MetricsOk = 18,  ///< Body: --metrics-json-shaped JSON document.
  ShutdownOk = 19, ///< Empty body; the server is draining.
  Error = 31,      ///< Body: [u8 FrameError code][utf-8 message].
};

/// Returns a stable printable name ("align", "error", ...); "?" for
/// values outside the enum.
const char *frameTypeName(FrameType Type);

/// Structured error codes carried by FrameType::Error responses (wire
/// contract, append-only).
enum class FrameError : uint8_t {
  None = 0,         ///< Not an error (never sent).
  BadFrame = 1,     ///< Malformed frame: short payload, bad magic,
                    ///< truncated body, trailing bytes.
  BadVersion = 2,   ///< Version byte != ServeProtocolVersion.
  BadType = 3,      ///< Unknown or non-request frame type.
  TooLarge = 4,     ///< Length prefix exceeds MaxFramePayload.
  BadRequest = 5,   ///< Well-framed but semantically malformed body.
  ParseError = 6,   ///< CFG text did not parse.
  ProfileError = 7, ///< Profile text did not parse / mismatched, or
                    ///< no synthetic profile exists (a walk that
                    ///< cannot return; see ProfileWalkError).
  Aborted = 8,      ///< Alignment failed under OnErrorPolicy::Abort.
  Deadline = 9,     ///< The per-request deadline expired.
  Rejected = 10,    ///< Admission control: queue budget exhausted.
  Internal = 11,    ///< Anything else; the message says what.
  Stuck = 12,       ///< The request blew past its deadline and never
                    ///< returned; its connection thread abandoned the
                    ///< worker.
};

/// Returns a stable printable name ("bad-frame", "rejected", ...).
const char *frameErrorName(FrameError Code);

/// One parsed frame (type + body, header stripped).
struct Frame {
  FrameType Type = FrameType::Error;
  std::string Body;
};

/// Ranges the request knobs must lie in. The shared flag parser
/// (parseRequestFlag in serve/Oneshot.h) and decodeAlignRequest enforce
/// the same bounds: Ext-TSP windows in [1, MaxExtTspWindow], weights in
/// [0, MaxExtTspWeight], long-branch parameters <= MaxLongBranchParam.
inline constexpr uint32_t MaxExtTspWindow = 1u << 20;
inline constexpr double MaxExtTspWeight = 1024.0;
inline constexpr uint32_t MaxLongBranchParam = 1u << 20;

/// One align request: the inputs and the result-affecting options of one
/// alignment. align_tool and balign_client parse their shared flags into
/// this struct, and both align_tool and AlignService turn it into
/// AlignmentOptions through applyAlignRequest (serve/Oneshot.h), so a
/// request and a CLI invocation over the same inputs produce
/// byte-identical reports.
///
/// Flag 4 carries the objective block and flag 8 the branch-encoding
/// block. A present block follows the profile text, the objective block
/// first, as the bytes objectiveBlockBytes and encodingBlockBytes write
/// (align/Pipeline.h), which are also the bytes the cache key absorbs.
/// An absent block means its defaults, wherever the request is applied.
/// With both flags clear the body's byte layout is exactly the
/// pre-extension one, so the committed golden frames and old clients
/// keep working against a version-1 server unchanged.
struct AlignRequest {
  uint64_t Seed = 1;         ///< --seed: root solver/profile seed.
  uint64_t Budget = 50000;   ///< --budget: synthetic-profile branches.
  uint32_t DeadlineMs = 0;   ///< Per-request deadline (0 = server default).
  EffortPolicy Effort = EffortPolicy::Uniform;
  OnErrorPolicy OnError = OnErrorPolicy::Abort;
  bool ComputeBounds = false; ///< --bounds.
  bool HasProfile = false;    ///< ProfileText is meaningful.
  std::string CfgText;        ///< The textual CFG program.
  std::string ProfileText;    ///< Optional textual profile.
  std::optional<ObjectiveBlock> Objective; ///< --aligner and its knobs.
  std::optional<BranchEncodingParams> Encoding; ///< --encoding, --short-range.
};

/// Serializes a frame to wire bytes (length prefix + header + body).
/// The body must leave room for the header under MaxFramePayload.
std::string encodeFrame(const Frame &F);

/// Convenience constructors.
Frame makeFrame(FrameType Type, std::string Body = {});
Frame makeErrorFrame(FrameError Code, const std::string &Message);

/// Splits an Error frame body; returns false (and leaves outputs
/// untouched) when the body is empty/malformed.
bool decodeErrorFrame(const Frame &F, FrameError &Code,
                      std::string &Message);

/// Serializes an align request into a FrameType::Align body.
std::string encodeAlignRequest(const AlignRequest &Request);

/// Strictly decodes an Align body. On failure returns false and fills
/// \p Error with a one-line reason; \p Out is unspecified.
bool decodeAlignRequest(const std::string &Body, AlignRequest &Out,
                        std::string *Error = nullptr);

/// Outcome of readFrame.
enum class ReadStatus : uint8_t {
  Ok,    ///< A well-formed frame was read into Out.
  Eof,   ///< Clean end of stream at a frame boundary (before any byte).
  Error, ///< Protocol violation; Code/Message say what. The stream is
         ///< unrecoverable (no resync), the connection must close.
};

/// Reads one frame from \p Fd (blocking, EINTR-safe). Mid-frame EOF is
/// ReadStatus::Error (a truncated frame), EOF before the first length
/// byte is ReadStatus::Eof. Given a \p WakeFd, every read first polls it
/// together with \p Fd: bytes that have already arrived are still read,
/// and once \p WakeFd is readable while \p Fd has nothing to read, the
/// stream ends there as if at EOF — Eof at a frame boundary, Error
/// inside a frame — over a pipe as over a socket. The server passes the
/// wake pipe its drain fires.
ReadStatus readFrame(int Fd, Frame &Out, FrameError &Code,
                     std::string &Message, int WakeFd = -1);

/// Encodes and writes one frame through writeAll (robust/Durability.h):
/// false on any unrecoverable write error, never a partial frame left
/// unreported.
bool writeFrame(int Fd, const Frame &F);

} // namespace balign

#endif // BALIGN_SERVE_PROTOCOL_H
