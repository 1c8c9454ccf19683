// Resumable campaign execution (DESIGN.md §15, docs/campaigns.md).
//
// run_campaign drives an expanded spec through ParallelTrialRunner in
// fixed-size chunks — one unit per scenario maps, evaluates and (when the
// netsim stage applies) simulates it — appending one compact JSON line per
// completed scenario to <out_dir>/campaign.jsonl. Scenarios complete strictly in id order, so the
// log is always a prefix of the full campaign: resuming is "count the
// complete lines, truncate any torn tail, continue from there". Every
// per-scenario record is deterministic for the spec (mappers run their
// canonical serial protocol inside each scenario; parallelism comes from
// sharding scenarios across workers), so the final log — and therefore the
// aggregate built from it — is identical at any worker count and across
// any interrupt/resume history. The only non-reproducible record field is
// `map_us` (per-scenario wall clock), which the aggregator ignores.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/json.h"
#include "sweep/spec.h"

namespace nocmap::sweep {

inline constexpr const char* kSweepLogSchema = "nocmap.sweep_log/1";

/// Execution knobs for one run_campaign call.
struct CampaignOptions {
  /// Directory for campaign.jsonl (created on demand).
  std::string out_dir = "campaign";
  /// Workers for the per-scenario fan-out (default: one, inline). Each
  /// scenario maps and simulates on the one worker that runs it.
  ParallelConfig parallel;
  /// Scenarios per chunk: the commit granularity. A chunk fully completes
  /// (and its records are flushed line-by-line) before the next starts.
  std::size_t chunk_size = 64;
  /// Stop after completing this many *new* scenarios (0 = run to the end).
  /// The interruption story in one knob: a capped run plus a later
  /// uncapped run equals one uninterrupted run, byte for byte (minus
  /// map_us values).
  std::size_t max_scenarios = 0;
  /// Progress lines on stdout every chunk.
  bool verbose = false;
};

/// What one run_campaign call did.
struct CampaignResult {
  std::uint64_t total = 0;      ///< scenarios in the expansion
  std::uint64_t resumed = 0;    ///< found already complete in the log
  std::uint64_t completed = 0;  ///< newly completed by this call
  bool finished = false;        ///< log now covers the whole campaign
  std::string log_path;
};

/// A parsed campaign log: the header plus every complete record, in id
/// order. `good_bytes` is the file offset just past the last complete
/// line — anything beyond it (a torn write from a kill) is garbage the
/// runner truncates away on resume.
struct CampaignLog {
  obs::JsonValue header;
  std::vector<obs::JsonValue> records;
  std::uintmax_t good_bytes = 0;
};

/// Reads a campaign log, tolerating a truncated or corrupt tail: parsing
/// stops at the first incomplete/malformed line or id-sequence break, and
/// everything before it is returned. Throws only when the file cannot be
/// opened or its header is missing/foreign.
CampaignLog read_campaign_log(const std::string& path);

/// Runs (or resumes) the campaign described by `spec`. When the log file
/// already exists, its header must carry this spec's digest — a resume
/// against a different spec throws instead of mixing scenario numberings.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options);

}  // namespace nocmap::sweep
