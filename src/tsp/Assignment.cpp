//===- tsp/Assignment.cpp ------------------------------------------------------===//

#include "tsp/Assignment.h"

#include <cassert>
#include <limits>
#include <vector>

using namespace balign;

/// Classic O(n^3) Hungarian algorithm with row/column potentials
/// (shortest augmenting paths). Rows are "from" cities, columns are "to"
/// cities; the diagonal is forbidden with a large finite cost that can
/// never be selected when n >= 2 (every row has n-1 cheaper entries and
/// a perfect matching avoiding the diagonal always exists).
AssignmentResult balign::assignmentBound(const DirectedTsp &Dtsp) {
  size_t N = Dtsp.numCities();
  assert(N >= 2 && "assignment bound needs at least two cities");

  // Large-but-safe forbidden cost: any assignment using a diagonal entry
  // costs at least Forbidden - totalAbs > totalAbs >= any diagonal-free
  // assignment, even with negative entries present.
  BigMConstants BigM = bigMConstants(Dtsp);
  assert(BigM.Fits && "the self-loop cost overflows int64_t");
  const int64_t Forbidden = BigM.SelfLoopCost;
  auto CostOf = [&](size_t From, size_t To) {
    return From == To ? Forbidden : Dtsp.cost(static_cast<City>(From),
                                              static_cast<City>(To));
  };

  const int64_t Inf = std::numeric_limits<int64_t>::max() / 4;
  // 1-based arrays per the standard potentials formulation.
  std::vector<int64_t> U(N + 1, 0), V(N + 1, 0);
  std::vector<size_t> MatchedRow(N + 1, 0); // Column -> row.
  std::vector<size_t> Way(N + 1, 0);

  for (size_t Row = 1; Row <= N; ++Row) {
    MatchedRow[0] = Row;
    size_t FreeCol = 0;
    std::vector<int64_t> MinSlack(N + 1, Inf);
    std::vector<bool> Used(N + 1, false);
    do {
      Used[FreeCol] = true;
      size_t RowHere = MatchedRow[FreeCol];
      int64_t Delta = Inf;
      size_t NextCol = 0;
      for (size_t Col = 1; Col <= N; ++Col) {
        if (Used[Col])
          continue;
        int64_t Slack =
            CostOf(RowHere - 1, Col - 1) - U[RowHere] - V[Col];
        if (Slack < MinSlack[Col]) {
          MinSlack[Col] = Slack;
          Way[Col] = FreeCol;
        }
        if (MinSlack[Col] < Delta) {
          Delta = MinSlack[Col];
          NextCol = Col;
        }
      }
      for (size_t Col = 0; Col <= N; ++Col) {
        if (Used[Col]) {
          U[MatchedRow[Col]] += Delta;
          V[Col] -= Delta;
        } else {
          MinSlack[Col] -= Delta;
        }
      }
      FreeCol = NextCol;
    } while (MatchedRow[FreeCol] != 0);
    // Augment along the alternating path.
    do {
      size_t PrevCol = Way[FreeCol];
      MatchedRow[FreeCol] = MatchedRow[PrevCol];
      FreeCol = PrevCol;
    } while (FreeCol != 0);
  }

  AssignmentResult Result;
  Result.Successor.assign(N, InvalidCity);
  for (size_t Col = 1; Col <= N; ++Col) {
    size_t Row = MatchedRow[Col];
    assert(Row >= 1 && Row <= N && "unmatched column after Hungarian");
    Result.Successor[Row - 1] = static_cast<City>(Col - 1);
    assert(Row != Col && "forbidden diagonal entry selected");
    Result.Cost += Dtsp.cost(static_cast<City>(Row - 1),
                             static_cast<City>(Col - 1));
  }

  // Count the cycles of the successor permutation.
  std::vector<bool> Seen(N, false);
  for (size_t Start = 0; Start != N; ++Start) {
    if (Seen[Start])
      continue;
    ++Result.NumCycles;
    for (size_t Walk = Start; !Seen[Walk]; Walk = Result.Successor[Walk])
      Seen[Walk] = true;
  }
  return Result;
}
