//===- perfbench/BuildProbe.cpp - Build-flag probe inside balign ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// The benchmark's CMakeLists compiles this file into balign_support, so
// it sees exactly the preprocessor state balign's own sources were built
// with. The benchmark refuses to report figures when it says assertions
// were compiled in.
//
//===--------------------------------------------------------------------===//

namespace balign::perfbench {

bool balignBuiltWithNdebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

} // namespace balign::perfbench
