#include "workload/io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/parse.h"

namespace nocmap {

void write_workload_csv(const Workload& workload, std::ostream& out) {
  // Refuse the names read_workload_csv would reject or misread.
  std::set<std::string> names;
  for (std::size_t a = 0; a < workload.num_applications(); ++a) {
    const std::string& name = workload.application(a).name;
    NOCMAP_REQUIRE(!name.empty(), "application " + std::to_string(a) +
                                      " has no name to write to CSV");
    NOCMAP_REQUIRE(name.find_first_of(",\n") == std::string::npos,
                   "application name '" + name +
                       "' holds a comma or newline");
    NOCMAP_REQUIRE(names.insert(name).second,
                   "application name '" + name + "' is used twice");
  }
  // Enough digits that every rate reads back to the same double.
  const std::streamsize precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "application,thread,cache_rate,memory_rate\n";
  for (std::size_t a = 0; a < workload.num_applications(); ++a) {
    const Application& app = workload.application(a);
    for (std::size_t t = 0; t < app.threads.size(); ++t) {
      out << app.name << ',' << t << ',' << app.threads[t].cache_rate << ','
          << app.threads[t].memory_rate << '\n';
    }
  }
  out.precision(precision);
}

void save_workload_csv(const Workload& workload, const std::string& path) {
  std::ostringstream text;
  write_workload_csv(workload, text);  // refuses bad names before any I/O
  std::ofstream out(path);
  NOCMAP_REQUIRE(out.good(), "cannot open workload CSV for writing: " + path);
  out << text.str();
  NOCMAP_REQUIRE(out.good(), "write failure on workload CSV: " + path);
}

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

double parse_rate(const std::string& cell, std::size_t line_no) {
  const std::string where = "CSV line " + std::to_string(line_no);
  const double v = parse_number<double>(cell, "rate on " + where);
  NOCMAP_REQUIRE(std::isfinite(v), "non-finite rate on " + where);
  NOCMAP_REQUIRE(v >= 0.0, "negative rate on " + where);
  return v;
}

}  // namespace

Workload read_workload_csv(std::istream& in) {
  std::string line;
  NOCMAP_REQUIRE(static_cast<bool>(std::getline(in, line)),
                 "empty workload CSV");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  NOCMAP_REQUIRE(line == "application,thread,cache_rate,memory_rate",
                 "unexpected workload CSV header: " + line);

  std::vector<Application> apps;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    NOCMAP_REQUIRE(cells.size() == 4, "expected 4 columns on CSV line " +
                                          std::to_string(line_no));
    const std::string& name = cells[0];
    NOCMAP_REQUIRE(!name.empty(), "empty application name on CSV line " +
                                      std::to_string(line_no));

    if (apps.empty() || apps.back().name != name) {
      // New application block; re-opening an earlier name is a format error
      // (thread rows must be contiguous per application).
      for (const Application& existing : apps) {
        NOCMAP_REQUIRE(existing.name != name,
                       "application '" + name +
                           "' split across non-contiguous CSV blocks");
      }
      apps.push_back(Application{name, {}});
    }
    Application& app = apps.back();

    const std::size_t expected_index = app.threads.size();
    NOCMAP_REQUIRE(cells[1] == std::to_string(expected_index),
                   "thread index mismatch on CSV line " +
                       std::to_string(line_no) + " (expected " +
                       std::to_string(expected_index) + ")");
    app.threads.push_back(
        {parse_rate(cells[2], line_no), parse_rate(cells[3], line_no)});
  }
  NOCMAP_REQUIRE(!apps.empty(), "workload CSV has no data rows");
  return Workload(std::move(apps));
}

Workload load_workload_csv(const std::string& path) {
  std::ifstream in(path);
  NOCMAP_REQUIRE(in.good(), "cannot open workload CSV: " + path);
  return read_workload_csv(in);
}

}  // namespace nocmap
