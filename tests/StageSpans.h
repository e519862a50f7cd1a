//===- tests/StageSpans.h - Stage spans of a traced alignProgram -*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test helper: runs alignProgram under a fresh TraceSession and keeps
/// the drained spans. The `stage.*` spans are the only stage timers the
/// pipeline has, so tests read which stages ran for which procedure —
/// and that a warm cache ran none — off them.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_STAGESPANS_H
#define BALIGN_TESTS_STAGESPANS_H

#include "align/Pipeline.h"
#include "trace/Scope.h"

#include <string>
#include <vector>

namespace balign {

/// One alignProgram run and the spans it recorded, in program order.
struct TracedAlignment {
  ProgramAlignment Result;
  std::vector<TraceSpan> Spans;

  /// Number of spans named \p Name, on every track.
  size_t count(const std::string &Name) const {
    size_t N = 0;
    for (const TraceSpan &S : Spans)
      N += Name == S.Name;
    return N;
  }

  /// Number of stage spans (SpanCat::Stage, the `stage.*` names).
  size_t stageSpans() const {
    size_t N = 0;
    for (const TraceSpan &S : Spans)
      N += S.Cat == SpanCat::Stage;
    return N;
  }

  /// The stage span names procedure \p Proc's track recorded, in begin
  /// order.
  std::vector<std::string> stages(size_t Proc) const {
    std::vector<std::string> Names;
    for (const TraceSpan &S : Spans)
      if (S.Cat == SpanCat::Stage && S.Track == static_cast<int64_t>(Proc))
        Names.push_back(S.Name);
    return Names;
  }
};

/// alignProgram with a TraceSession installed around it.
inline TracedAlignment alignTraced(const Program &Prog,
                                   const ProgramProfile &Train,
                                   const AlignmentOptions &Options) {
  TraceSession Session;
  Session.install();
  TracedAlignment Run;
  Run.Result = alignProgram(Prog, Train, Options);
  Session.uninstall();
  Run.Spans = Session.drainSpans();
  return Run;
}

} // namespace balign

#endif // BALIGN_TESTS_STAGESPANS_H
