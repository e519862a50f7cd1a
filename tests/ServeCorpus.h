//===- tests/ServeCorpus.h - Serve corpus and bundled inputs -*- C++ -*-======//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test helper: the twelve-program serve corpus and readers for the
/// bundled inputs under examples/data (the including test's
/// BALIGN_DATA_DIR). The profile-walk pins and the parser pins read both.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_SERVECORPUS_H
#define BALIGN_TESTS_SERVECORPUS_H

#include "ir/TextFormat.h"
#include "robust/Journal.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <string>

namespace balign {

inline std::string readData(const std::string &Name) {
  std::string Text;
  EXPECT_TRUE(readFileBytes(std::string(BALIGN_DATA_DIR) + "/" + Name, Text))
      << "cannot open " << Name;
  return Text;
}

inline Program readProgram(const std::string &Name) {
  std::string Error;
  std::optional<Program> Prog = parseProgram(readData(Name), &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  return Prog ? *Prog : Program();
}

/// Program \p I of the twelve-program serve corpus: the hot set of
/// perfbench's serve-mixed workload (`corpusProgram` in
/// perfbench/Serve.cpp generates the same programs).
inline Program serveCorpusProgram(uint64_t I) {
  Program Prog("serve" + std::to_string(I));
  Rng R(9000 + I * 31);
  GenParams Params;
  Params.TargetBranchSites = 8 + static_cast<unsigned>(I % 5);
  size_t NumProcs = 2 + I % 3;
  for (size_t P = 0; P != NumProcs; ++P)
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  return Prog;
}

} // namespace balign

#endif // BALIGN_TESTS_SERVECORPUS_H
