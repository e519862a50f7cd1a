//===- robust/FailureReport.cpp -------------------------------------------===//

#include "robust/FailureReport.h"

#include "support/Format.h"

#include <cstdio>

using namespace balign;

const char *balign::ladderRungName(LadderRung Rung) {
  switch (Rung) {
  case LadderRung::Tsp:
    return "tsp";
  case LadderRung::Greedy:
    return "greedy";
  case LadderRung::Original:
    return "original";
  }
  return "?";
}

const char *balign::failureKindName(FailureKind Kind) {
  switch (Kind) {
  case FailureKind::Fault:
    return "fault";
  case FailureKind::Deadline:
    return "deadline";
  case FailureKind::ResourceCap:
    return "resource-cap";
  case FailureKind::Exception:
    return "exception";
  }
  return "?";
}

std::string ProcedureFailure::cause() const {
  std::string Out = "proc '" + escapeControlBytes(ProcName) + "': ";
  Out += failureKindName(Kind);
  Out += ": ";
  Out += What;
  return Out;
}

std::string ProcedureFailure::str() const {
  std::string Out = cause();
  Out += Skipped ? "; skipped (rung=" : "; rung=";
  Out += ladderRungName(Rung);
  if (Skipped)
    Out += ")";
  return Out;
}

size_t FailureReport::countRung(LadderRung Rung) const {
  size_t Count = 0;
  for (const ProcedureFailure &F : Failures)
    if (F.Rung == Rung)
      ++Count;
  return Count;
}

size_t FailureReport::countSkipped() const {
  size_t Count = 0;
  for (const ProcedureFailure &F : Failures)
    if (F.Skipped)
      ++Count;
  return Count;
}

std::string FailureReport::summary(size_t TotalProcs) const {
  char Buffer[160];
  size_t Greedy = countRung(LadderRung::Greedy);
  size_t Original = countRung(LadderRung::Original);
  std::snprintf(Buffer, sizeof(Buffer),
                "procs=%zu tsp=%zu greedy=%zu original=%zu skipped=%zu "
                "failures=%zu",
                TotalProcs, TotalProcs - Failures.size(), Greedy, Original,
                countSkipped(), Failures.size());
  return Buffer;
}
