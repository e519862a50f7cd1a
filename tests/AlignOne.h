//===- tests/AlignOne.h - One procedure through alignProgram -----*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test helper: wraps one procedure and its profile in a one-procedure
/// Program and aligns it with alignProgram, so tests read the original,
/// greedy and TSP layouts off the one path that ships them.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_ALIGNONE_H
#define BALIGN_TESTS_ALIGNONE_H

#include "align/Pipeline.h"

namespace balign {

/// alignProgram's result for \p Proc alone, trained on \p Profile.
inline ProcedureAlignment alignOne(const Procedure &Proc,
                                   const ProcedureProfile &Profile,
                                   const AlignmentOptions &Options = {}) {
  Program Prog(Proc.getName());
  Prog.addProcedure(Proc);
  ProgramProfile Train;
  Train.Procs.push_back(Profile);
  return alignProgram(Prog, Train, Options).Procs[0];
}

} // namespace balign

#endif // BALIGN_TESTS_ALIGNONE_H
