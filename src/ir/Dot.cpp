//===- ir/Dot.cpp ----------------------------------------------------------===//

#include "ir/Dot.h"

#include <cassert>
#include <sstream>

using namespace balign;

std::string
balign::printDot(const Procedure &Proc,
                 const std::vector<std::vector<uint64_t>> *EdgeCounts) {
  std::ostringstream Out;
  Out << "digraph \"" << Proc.getName() << "\" {\n";
  Out << "  node [shape=box fontname=\"monospace\"];\n";
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    const BasicBlock &Block = Proc.block(Id);
    Out << "  n" << Id << " [label=\"" << Proc.blockName(Id) << "\\n"
        << terminatorKindName(Block.Kind) << " size=" << Block.InstrCount
        << "\"];\n";
  }
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    const std::vector<BlockId> &Succs = Proc.successors(Id);
    for (size_t I = 0; I != Succs.size(); ++I) {
      Out << "  n" << Id << " -> n" << Succs[I];
      if (EdgeCounts) {
        assert(Id < EdgeCounts->size() && I < (*EdgeCounts)[Id].size() &&
               "edge counts not parallel to successor lists");
        Out << " [label=\"" << (*EdgeCounts)[Id][I] << "\"]";
      }
      Out << ";\n";
    }
  }
  Out << "}\n";
  return Out.str();
}
