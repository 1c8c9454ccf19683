// Fixed-width ASCII table rendering for bench output.
//
// Every bench binary prints paper-style tables; this keeps the formatting in
// one place so all reproductions read identically.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace nocmap {

/// A simple column-aligned text table. Cells are strings; helpers format
/// doubles with a chosen precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with column separators and a header rule.
  void print(std::ostream& os) const;

  /// Writes header + rows to `path` as RFC-4180-ish CSV (the
  /// machine-readable twin of print(), for external plotting). Throws
  /// nocmap::Error when the file cannot be written.
  void save_csv(const std::string& path) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes a single CSV cell per RFC 4180: quotes cells that contain
/// commas, quotes or newlines.
std::string csv_escape(const std::string& cell);

/// Formats a double with fixed precision (default 2 decimals).
std::string fmt(double v, int precision = 2);

/// Formats as a percentage with sign, e.g. "+3.82%".
std::string fmt_percent(double fraction, int precision = 2);

}  // namespace nocmap
