//===- TableFormatter.h - Aligned text tables -------------------*- C++ -*-===//
///
/// \file
/// Renders experiment results as aligned, human-readable text tables and as
/// CSV. Every bench binary uses this so that paper-table reproductions share
/// one output format.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_TABLEFORMATTER_H
#define NPRAL_SUPPORT_TABLEFORMATTER_H

#include <ostream>
#include <string>
#include <vector>

namespace npral {

/// Collects rows of string cells and prints them with per-column alignment.
class TableFormatter {
public:
  explicit TableFormatter(std::vector<std::string> Header);

  /// Start a new row; subsequent cell() calls append to it.
  TableFormatter &row();

  TableFormatter &cell(const std::string &Text);
  TableFormatter &cell(long long Value);
  TableFormatter &cell(unsigned long long Value);
  TableFormatter &cell(long Value) { return cell(static_cast<long long>(Value)); }
  TableFormatter &cell(unsigned long Value) {
    return cell(static_cast<unsigned long long>(Value));
  }
  TableFormatter &cell(int Value) { return cell(static_cast<long long>(Value)); }
  TableFormatter &cell(unsigned Value) {
    return cell(static_cast<unsigned long long>(Value));
  }
  /// Fixed-point rendering with \p Decimals fractional digits.
  TableFormatter &cell(double Value, int Decimals = 2);
  /// Percent rendering: 0.183 -> "18.3%".
  TableFormatter &percentCell(double Fraction, int Decimals = 1);

  /// Render as an aligned table with a rule under the header.
  void print(std::ostream &OS) const;
  /// Render as CSV (no alignment padding).
  void printCsv(std::ostream &OS) const;
  /// Render as a JSON object {"header": [...], "rows": [[...], ...]} with
  /// every cell a string, exactly as it would print. \p Indent prefixes
  /// each line (for embedding in a larger document).
  void printJSON(std::ostream &OS, const std::string &Indent = "") const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace npral

#endif // NPRAL_SUPPORT_TABLEFORMATTER_H
