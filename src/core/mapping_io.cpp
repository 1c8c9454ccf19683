#include "core/mapping_io.h"

#include <fstream>

#include "util/parse.h"

namespace nocmap {

void write_mapping_csv(const Mapping& mapping, std::ostream& out) {
  out << "thread,tile\n";
  for (std::size_t j = 0; j < mapping.size(); ++j) {
    out << j << ',' << mapping.thread_to_tile[j] << '\n';
  }
}

void save_mapping_csv(const Mapping& mapping, const std::string& path) {
  std::ofstream out(path);
  NOCMAP_REQUIRE(out.good(), "cannot open mapping CSV for writing: " + path);
  write_mapping_csv(mapping, out);
  NOCMAP_REQUIRE(out.good(), "write failure on mapping CSV: " + path);
}

Mapping read_mapping_csv(std::istream& in) {
  std::string line;
  NOCMAP_REQUIRE(static_cast<bool>(std::getline(in, line)),
                 "empty mapping CSV");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  NOCMAP_REQUIRE(line == "thread,tile",
                 "unexpected mapping CSV header: " + line);

  Mapping mapping;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string where = " on mapping CSV line " + std::to_string(line_no);
    const std::size_t comma = line.find(',');
    NOCMAP_REQUIRE(comma != std::string::npos &&
                       line.find(',', comma + 1) == std::string::npos,
                   "expected 2 columns" + where);
    NOCMAP_REQUIRE(parse_number<std::uint64_t>(line.substr(0, comma),
                                               "thread" + where) ==
                       mapping.thread_to_tile.size(),
                   "thread index mismatch" + where);
    mapping.thread_to_tile.push_back(
        parse_number<TileId>(line.substr(comma + 1), "tile" + where));
  }
  NOCMAP_REQUIRE(!mapping.thread_to_tile.empty(), "mapping CSV has no rows");
  NOCMAP_REQUIRE(mapping.is_valid_permutation(mapping.size()),
                 "mapping CSV is not a valid thread-to-tile permutation");
  return mapping;
}

Mapping load_mapping_csv(const std::string& path) {
  std::ifstream in(path);
  NOCMAP_REQUIRE(in.good(), "cannot open mapping CSV: " + path);
  return read_mapping_csv(in);
}

}  // namespace nocmap
