// darnet_analyze findings, reporting, and the baseline/suppression file.
//
// Output contract (run_fixtures.sh and humans read it the same way): one
// finding per line on stderr,
//     <file>:<line>: [<rule>] <message>
// exit 1 when findings remain, 0 when clean, 2 on usage/IO errors.
//
// --format=json writes a deterministic (sorted) JSON document to stdout:
//     {"findings":[{"rule":...,"file":...,"line":N,"symbol":...,
//                   "message":...},...]}
//
// The baseline file (tools/analyze/analyze_baseline.json) suppresses known,
// reviewed findings. Matching is on (rule, file, symbol) — deliberately not
// on line numbers, so unrelated edits don't invalidate entries. Every entry
// must keep matching something: a suppression that no longer fires becomes a
// `stale-baseline` finding so the file cannot rot.
#pragma once

#include <string>
#include <vector>

namespace darnet::analyze {

struct Finding {
  std::string rule;
  std::string file;  // repo-relative path
  int line = 0;
  std::string symbol;  // function/member/mutex the finding is about
  std::string message;
};

struct Suppression {
  std::string rule;
  std::string file;
  std::string symbol;
  std::string reason;
};

// Parse the baseline JSON. Returns false (with `error` set) on malformed
// input. The expected shape is
//   {"suppressions":[{"rule":"...","file":"...","symbol":"...",
//                     "reason":"..."},...]}
bool parse_baseline(const std::string& text, std::vector<Suppression>& out,
                    std::string& error);

// Apply the baseline: removes suppressed findings from `findings`; appends a
// `stale-baseline` finding for every suppression that matched nothing.
void apply_baseline(std::vector<Finding>& findings,
                    const std::vector<Suppression>& baseline,
                    const std::string& baseline_path, bool stale_check);

// Sort findings (file, line, rule, message) for deterministic output.
void sort_findings(std::vector<Finding>& findings);

// Render to the human format (one line per finding).
std::string format_text(const std::vector<Finding>& findings);

// Render the deterministic JSON document.
std::string format_json(const std::vector<Finding>& findings);

}  // namespace darnet::analyze
