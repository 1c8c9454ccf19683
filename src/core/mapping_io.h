// Mapping persistence: CSV save/load so a computed thread-to-tile mapping
// can be handed to an external scheduler (or re-evaluated later) without
// recomputation.
//
// Format (header required), 0-based indices:
//   thread,tile
//   0,12
//   1,3
#pragma once

#include <iosfwd>
#include <string>

#include "core/problem.h"

namespace nocmap {

void save_mapping_csv(const Mapping& mapping, const std::string& path);
void write_mapping_csv(const Mapping& mapping, std::ostream& out);

/// Parses a mapping. Throws nocmap::Error on malformed input (bad header,
/// a row without exactly two decimal cells, thread-index gaps,
/// duplicate/out-of-range tiles — the result is always a valid
/// permutation).
Mapping load_mapping_csv(const std::string& path);
Mapping read_mapping_csv(std::istream& in);

}  // namespace nocmap
