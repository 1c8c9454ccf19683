#include "util/table.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/error.h"

namespace nocmap {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  NOCMAP_REQUIRE(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  NOCMAP_REQUIRE(cells.size() == header_.size(),
                 "row arity must match header");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      os << (c + 1 < row.size() ? " | " : " |\n");
    }
  };

  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void TextTable::save_csv(const std::string& path) const {
  std::ofstream out(path);
  NOCMAP_REQUIRE(out.good(), "cannot open CSV file: " + path);
  auto write_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << csv_escape(cells[i]);
      if (i + 1 < cells.size()) out << ',';
    }
    out << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

std::string csv_escape(const std::string& cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_percent(double fraction, int precision) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(precision)
     << fraction * 100.0 << '%';
  return os.str();
}

}  // namespace nocmap
