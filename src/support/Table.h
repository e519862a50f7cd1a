//===- support/Table.h - ASCII table rendering ---------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A small column-aligned ASCII table used by the benchmark harnesses to
/// print the paper's tables and figure series. Columns are left-aligned
/// for text and right-aligned for numbers; the renderer pads to the widest
/// cell per column.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_TABLE_H
#define BALIGN_SUPPORT_TABLE_H

#include <cstddef>
#include <string>
#include <vector>

namespace balign {

/// Column-aligned text table builder.
class TextTable {
public:
  enum class AlignKind { Left, Right };

  /// Adds a column with header \p Name. Call before any addRow.
  void addColumn(std::string Name, AlignKind Align = AlignKind::Left);

  /// Adds a data row; must have exactly as many cells as columns.
  void addRow(std::vector<std::string> Cells);

  /// Adds a horizontal separator row.
  void addSeparator();

  /// Renders the table, including the header and a separator under it.
  std::string render() const;

private:
  struct Column {
    std::string Name;
    AlignKind Align;
  };
  struct Row {
    bool IsSeparator = false;
    std::vector<std::string> Cells;
  };

  std::vector<Column> Columns;
  std::vector<Row> Rows;
};

} // namespace balign

#endif // BALIGN_SUPPORT_TABLE_H
