//===- serve/Protocol.cpp - balign-serve wire protocol --------------------===//

#include "serve/Protocol.h"

#include "robust/Durability.h"
#include "support/Bytes.h"

#include <bit>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <unistd.h>

using namespace balign;

namespace {

bool fail(std::string *Error, const char *Reason) {
  if (Error)
    *Error = Reason;
  return false;
}

/// Reads exactly \p Size bytes. Returns the byte count actually read:
/// Size on success, less on EOF or once \p WakeFd (unless -1) is
/// readable while \p Fd has nothing to read, or SIZE_MAX on an error.
size_t readFull(int Fd, void *Data, size_t Size, int WakeFd) {
  uint8_t *Out = static_cast<uint8_t *>(Data);
  size_t Got = 0;
  while (Got != Size) {
    if (WakeFd >= 0) {
      pollfd Ready[2] = {{Fd, POLLIN, 0}, {WakeFd, POLLIN, 0}};
      if (::poll(Ready, 2, -1) < 0) {
        if (errno == EINTR)
          continue;
        return SIZE_MAX;
      }
      if (Ready[0].revents == 0)
        return Got; // Woken with nothing left to read.
    }
    ssize_t N = ::read(Fd, Out + Got, Size - Got);
    if (N > 0) {
      Got += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return Got; // EOF.
    if (errno != EINTR)
      return SIZE_MAX;
  }
  return Got;
}

} // namespace

const char *balign::frameTypeName(FrameType Type) {
  switch (Type) {
  case FrameType::Ping:
    return "ping";
  case FrameType::Align:
    return "align";
  case FrameType::Metrics:
    return "metrics";
  case FrameType::Shutdown:
    return "shutdown";
  case FrameType::Pong:
    return "pong";
  case FrameType::AlignOk:
    return "align-ok";
  case FrameType::MetricsOk:
    return "metrics-ok";
  case FrameType::ShutdownOk:
    return "shutdown-ok";
  case FrameType::Error:
    return "error";
  }
  return "?";
}

const char *balign::frameErrorName(FrameError Code) {
  switch (Code) {
  case FrameError::None:
    return "none";
  case FrameError::BadFrame:
    return "bad-frame";
  case FrameError::BadVersion:
    return "bad-version";
  case FrameError::BadType:
    return "bad-type";
  case FrameError::TooLarge:
    return "too-large";
  case FrameError::BadRequest:
    return "bad-request";
  case FrameError::ParseError:
    return "parse-error";
  case FrameError::ProfileError:
    return "profile-error";
  case FrameError::Aborted:
    return "aborted";
  case FrameError::Deadline:
    return "deadline";
  case FrameError::Rejected:
    return "rejected";
  case FrameError::Internal:
    return "internal";
  case FrameError::Stuck:
    return "stuck";
  }
  return "?";
}

std::string balign::encodeFrame(const Frame &F) {
  assert(F.Body.size() <= MaxFramePayload - FrameHeaderBytes &&
         "frame body exceeds the protocol payload cap");
  std::string Out;
  Out.reserve(4 + FrameHeaderBytes + F.Body.size());
  putU32(Out, static_cast<uint32_t>(FrameHeaderBytes + F.Body.size()));
  Out.push_back('B');
  Out.push_back('S');
  Out.push_back(static_cast<char>(ServeProtocolVersion));
  Out.push_back(static_cast<char>(F.Type));
  Out += F.Body;
  return Out;
}

Frame balign::makeFrame(FrameType Type, std::string Body) {
  Frame F;
  F.Type = Type;
  F.Body = std::move(Body);
  return F;
}

Frame balign::makeErrorFrame(FrameError Code, const std::string &Message) {
  Frame F;
  F.Type = FrameType::Error;
  F.Body.push_back(static_cast<char>(Code));
  F.Body += Message;
  return F;
}

bool balign::decodeErrorFrame(const Frame &F, FrameError &Code,
                              std::string &Message) {
  if (F.Type != FrameType::Error || F.Body.empty())
    return false;
  Code = static_cast<FrameError>(static_cast<uint8_t>(F.Body[0]));
  Message = F.Body.substr(1);
  return true;
}

std::string balign::encodeAlignRequest(const AlignRequest &Request) {
  std::string Out;
  Out.reserve(32 + Request.CfgText.size() + Request.ProfileText.size());
  putU64(Out, Request.Seed);
  putU64(Out, Request.Budget);
  putU32(Out, Request.DeadlineMs);
  Out.push_back(static_cast<char>(Request.Effort));
  Out.push_back(static_cast<char>(Request.OnError));
  uint8_t Flags = (Request.ComputeBounds ? 1 : 0) |
                  (Request.HasProfile ? 2 : 0) | (Request.Objective ? 4 : 0) |
                  (Request.Encoding ? 8 : 0);
  Out.push_back(static_cast<char>(Flags));
  Out.push_back(0); // Reserved; receivers require zero.
  putU32(Out, static_cast<uint32_t>(Request.CfgText.size()));
  Out += Request.CfgText;
  if (Request.HasProfile) {
    putU32(Out, static_cast<uint32_t>(Request.ProfileText.size()));
    Out += Request.ProfileText;
  } else {
    putU32(Out, 0);
  }
  if (Request.Objective) {
    auto Block = objectiveBlockBytes(*Request.Objective);
    Out.append(Block.data(), Block.size());
  }
  if (Request.Encoding) {
    auto Block = encodingBlockBytes(*Request.Encoding);
    Out.append(Block.data(), Block.size());
  }
  return Out;
}

bool balign::decodeAlignRequest(const std::string &Body, AlignRequest &Out,
                                std::string *Error) {
  ByteReader In(Body);
  uint8_t Effort = 0, OnError = 0, Flags = 0, Reserved = 0;
  uint32_t CfgLen = 0, ProfLen = 0;
  if (!In.u64(Out.Seed) || !In.u64(Out.Budget) || !In.u32(Out.DeadlineMs) ||
      !In.u8(Effort) || !In.u8(OnError) || !In.u8(Flags) || !In.u8(Reserved))
    return fail(Error, "align request body shorter than its fixed fields");
  if (Reserved != 0)
    return fail(Error, "align request reserved byte is nonzero");
  if (Effort > static_cast<uint8_t>(EffortPolicy::ScaledColdGreedy))
    return fail(Error, "align request names an unknown effort policy");
  if (OnError > static_cast<uint8_t>(OnErrorPolicy::Skip))
    return fail(Error, "align request names an unknown on-error policy");
  if (Flags & ~uint8_t(15))
    return fail(Error, "align request sets unknown flag bits");
  Out.Effort = static_cast<EffortPolicy>(Effort);
  Out.OnError = static_cast<OnErrorPolicy>(OnError);
  Out.ComputeBounds = (Flags & 1) != 0;
  Out.HasProfile = (Flags & 2) != 0;
  Out.Objective.reset();
  Out.Encoding.reset();
  if (!In.u32(CfgLen) || !In.bytes(CfgLen, Out.CfgText))
    return fail(Error, "align request CFG text is truncated");
  if (!In.u32(ProfLen) || !In.bytes(ProfLen, Out.ProfileText))
    return fail(Error, "align request profile text is truncated");
  if (!Out.HasProfile && ProfLen != 0)
    return fail(Error, "align request carries profile bytes without the "
                       "profile flag");
  if (Flags & 4) {
    ObjectiveBlock &P = Out.Objective.emplace();
    uint8_t Primary = 0, Kind = 0;
    uint64_t FwdBits = 0, BwdBits = 0;
    if (!In.u8(Primary) || !In.u8(Kind) || !In.u32(P.ExtTspForwardWindow) ||
        !In.u32(P.ExtTspBackwardWindow) || !In.u64(FwdBits) ||
        !In.u64(BwdBits))
      return fail(Error, "align request objective extension is truncated");
    if (Primary > static_cast<uint8_t>(PrimaryAligner::ExtTsp))
      return fail(Error, "align request names an unknown primary aligner");
    if (Kind > static_cast<uint8_t>(ObjectiveKind::ExtTsp))
      return fail(Error, "align request names an unknown objective");
    if (P.ExtTspForwardWindow < 1 || P.ExtTspForwardWindow > MaxExtTspWindow ||
        P.ExtTspBackwardWindow < 1 || P.ExtTspBackwardWindow > MaxExtTspWindow)
      return fail(Error, "align request Ext-TSP window is out of range");
    P.Primary = static_cast<PrimaryAligner>(Primary);
    P.Kind = static_cast<ObjectiveKind>(Kind);
    P.ExtTspForwardWeight = std::bit_cast<double>(FwdBits);
    P.ExtTspBackwardWeight = std::bit_cast<double>(BwdBits);
    // NaN fails both comparisons, so this one test rejects NaN and
    // every out-of-range (including infinite) weight at once.
    if (!(P.ExtTspForwardWeight >= 0.0 &&
          P.ExtTspForwardWeight <= MaxExtTspWeight) ||
        !(P.ExtTspBackwardWeight >= 0.0 &&
          P.ExtTspBackwardWeight <= MaxExtTspWeight))
      return fail(Error, "align request Ext-TSP weight is out of range");
  }
  if (Flags & 8) {
    BranchEncodingParams &E = Out.Encoding.emplace();
    uint8_t Encoding = 0;
    if (!In.u8(Encoding) || !In.u64(E.ShortBranchRange) ||
        !In.u32(E.LongBranchExtraInstrs) || !In.u32(E.LongBranchPenalty))
      return fail(Error, "align request encoding extension is truncated");
    if (Encoding > static_cast<uint8_t>(BranchEncoding::ShortLong))
      return fail(Error, "align request names an unknown branch encoding");
    if (E.LongBranchExtraInstrs > MaxLongBranchParam ||
        E.LongBranchPenalty > MaxLongBranchParam)
      return fail(Error, "align request long-branch parameter is out of "
                         "range");
    E.Encoding = static_cast<BranchEncoding>(Encoding);
  }
  if (!In.atEnd())
    return fail(Error, "align request has trailing bytes");
  return true;
}

ReadStatus balign::readFrame(int Fd, Frame &Out, FrameError &Code,
                             std::string &Message, int WakeFd) {
  char LenBytes[4];
  size_t Got = readFull(Fd, LenBytes, sizeof(LenBytes), WakeFd);
  if (Got == 0)
    return ReadStatus::Eof;
  if (Got != sizeof(LenBytes)) {
    Code = FrameError::BadFrame;
    Message = Got == SIZE_MAX ? "read error on frame length"
                              : "stream ends inside a frame length prefix";
    return ReadStatus::Error;
  }
  uint32_t Len = 0;
  ByteReader(std::string_view(LenBytes, sizeof(LenBytes))).u32(Len);
  // Reject a hostile length *before* reading any payload: waiting on
  // bytes a lying prefix promised is the unbounded-time failure mode the
  // protocol tests attack.
  if (Len > MaxFramePayload) {
    Code = FrameError::TooLarge;
    Message = "frame payload of " + std::to_string(Len) +
              " bytes exceeds the cap of " + std::to_string(MaxFramePayload);
    return ReadStatus::Error;
  }
  if (Len < FrameHeaderBytes) {
    Code = FrameError::BadFrame;
    Message = "frame payload of " + std::to_string(Len) +
              " bytes cannot hold the header";
    return ReadStatus::Error;
  }
  std::string Payload(Len, '\0');
  Got = readFull(Fd, Payload.data(), Len, WakeFd);
  if (Got != Len) {
    Code = FrameError::BadFrame;
    Message = Got == SIZE_MAX ? "read error inside a frame"
                              : "stream ends inside a frame payload";
    return ReadStatus::Error;
  }
  if (Payload[0] != 'B' || Payload[1] != 'S') {
    Code = FrameError::BadFrame;
    Message = "frame header magic is not 'BS'";
    return ReadStatus::Error;
  }
  uint8_t Version = static_cast<uint8_t>(Payload[2]);
  if (Version != ServeProtocolVersion) {
    Code = FrameError::BadVersion;
    Message = "frame speaks protocol version " + std::to_string(Version) +
              " but this server speaks " +
              std::to_string(ServeProtocolVersion);
    return ReadStatus::Error;
  }
  Out.Type = static_cast<FrameType>(static_cast<uint8_t>(Payload[3]));
  Out.Body.assign(Payload, FrameHeaderBytes,
                  Payload.size() - FrameHeaderBytes);
  return ReadStatus::Ok;
}

bool balign::writeFrame(int Fd, const Frame &F) {
  std::string Wire = encodeFrame(F);
  return writeAll(Fd, Wire.data(), Wire.size());
}
