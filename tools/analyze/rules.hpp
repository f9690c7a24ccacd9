// darnet_analyze rules, in two stages over one lexer pass per file:
//  - the per-file stage (file_rules.cpp) checks token-level conventions in
//    each file on its own, plus the two doc contracts that need every
//    file's names collected first;
//  - the semantic stage (this file's rule_* functions, rules.cpp) runs over
//    the cross-file symbol index.
//
// kRuleCatalogue is the one list of rule ids. Ids are stable: fixture dirs
// (tests/analyze_fixtures/<rule>/) and baseline entries key on them, and
// docs/STATIC_ANALYSIS.md documents each rule.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/analyze/index.hpp"
#include "tools/analyze/report.hpp"

namespace darnet::analyze {

// The rule catalogue printed by --list and counted by bench_analyze.
struct RuleInfo {
  std::string_view name;
  std::string_view what;
};
inline constexpr RuleInfo kRuleCatalogue[] = {
    // Per-file stage.
    {"pragma-once", "every header opens with #pragma once"},
    {"raw-new", "manual new outside the make_unique/make_shared idiom"},
    {"raw-delete", "manual delete (ownership must be scoped)"},
    {"thread-outside-parallel", "std::thread anywhere but src/parallel/"},
    {"unseeded-rng", "default-seeded random engine"},
    {"hot-path-io", "console I/O inside the numeric hot-path dirs"},
    {"hot-path-alloc", "float/double vector in a hot-path directory"},
    {"serve-bounded-queue", "queue push with no capacity check nearby"},
    {"sync-raw-primitive", "raw std primitives outside src/sync/"},
    {"sync-guarded-by", "lock-owning member without DARNET_GUARDED_BY"},
    {"sync-assert-held", "REQUIRES comment without DARNET_ASSERT_HELD"},
    {"engine-deprecated-shim", "any DARNET_ALLOW_DEPRECATED* gate token"},
    {"obs-name-literal", "metric name off the segment/charset grammar"},
    {"obs-doc-missing", "metric with no docs/OBSERVABILITY.md row"},
    {"obs-doc-stale", "documented metric no longer in the code"},
    {"sim-doc-missing", "scenario with no docs/SIMULATION.md row"},
    {"sim-doc-stale", "documented scenario no longer registered"},
    {"io-error", "a source file the analyzer could not read"},
    // Semantic stage, then the baseline check (report.cpp).
    {"lock-order", "mutex acquisition-order cycles / hierarchy breaks"},
    {"guarded-by", "guarded member touched without its lock held"},
    {"hot-path-alloc-transitive", "allocation reachable from hot roots"},
    {"unchecked-status", "Admit/Status result discarded as a statement"},
    {"blocking-under-lock", "may-block call reachable under a sync::Lock"},
    {"time-source-purity", "wall-clock read outside whitelisted seams"},
    {"unchecked-posix-io", "::send/recv/accept/close status discarded"},
    {"stale-baseline", "baseline suppression matching nothing"},
};

// (file_id, function index) — identifies a FunctionInfo in an Index.
using FnId = std::pair<int, int>;

// Interprocedural effects of one function, computed as a fixpoint over the
// strictly-resolved call graph: a function has an effect if it performs the
// primitive directly or any strictly-resolved callee has the effect.
struct Effects {
  bool may_block = false;    // may wait on a CV/socket/future/sleep/join
  bool reads_clock = false;  // reads std::chrono::{steady,system}_clock::now()
  // Witness chains from this function down to the primitive. The last element
  // describes the primitive itself ("::recv at src/http/http.cpp:204"); the
  // preceding elements are the callee symbols on the path.
  std::vector<std::string> block_path;
  std::vector<std::string> clock_path;
};

// Compute effects for every indexed function (exposed for unit tests and the
// --dump-effects debug artefact).
std::map<FnId, Effects> compute_effects(const Index& idx);

// One edge of the static lock-order graph: while holding `from`, `to` was
// (possibly transitively, through calls) acquired.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;  // site of the inner acquisition or the mediating call
  int line = 0;
  std::string via;   // function whose body holds the outer lock
};

// One function's computed effects, flattened for --dump-effects and tests.
struct EffectEntry {
  std::string symbol;  // "Class::function" or "function"
  std::string file;
  int line = 0;
  bool may_block = false;
  bool reads_clock = false;
  std::vector<std::string> block_path;
  std::vector<std::string> clock_path;
};

struct AnalysisResult {
  std::vector<Finding> findings;
  std::vector<LockEdge> lock_edges;  // full static lock-order graph
  std::vector<EffectEntry> effects;  // every function with a non-empty effect
  int files_indexed = 0;
  int functions_indexed = 0;
};

// Lex every source file of the repo at `root` once, run the per-file stage
// on each, then index the semantic-scope files and run every semantic rule.
AnalysisResult analyze_tree(const std::filesystem::path& root);

// A metric/span or scenario name the per-file stage saw registered.
struct NameUse {
  std::string name;
  std::string file;
  int line = 0;
};
struct ContractUses {
  std::vector<NameUse> metrics;    // DARNET_* obs macros, registry() calls
  std::vector<NameUse> scenarios;  // register_scenario("name", ...) calls
};

// Per-file stage: every per-file rule over one lexed file. Names that the
// doc contracts check are appended to `uses`.
void rule_file(const LexedFile& lexed, ContractUses& uses,
               std::vector<Finding>& findings);
// The doc contracts, both ways: `uses` against the tables in
// docs/OBSERVABILITY.md and docs/SIMULATION.md under `root`.
void rule_doc_contracts(const std::filesystem::path& root,
                        const ContractUses& uses,
                        std::vector<Finding>& findings);

// True when a path entry of the hot-path exemption registry (rules.cpp)
// exempts `file` from the hot-path-alloc directory ban.
bool hot_path_alloc_exempt_file(const std::string& file);

// Semantic rule entry points (exposed for tests).
void rule_lock_order(const Index& idx, std::vector<LockEdge>& edges,
                     std::vector<Finding>& findings);
void rule_guarded_by(const Index& idx, std::vector<Finding>& findings);
void rule_hot_path_alloc(const Index& idx, std::vector<Finding>& findings);
void rule_unchecked_status(const Index& idx, std::vector<Finding>& findings);
void rule_blocking_under_lock(const Index& idx,
                              const std::map<FnId, Effects>& effects,
                              std::vector<Finding>& findings);
void rule_time_source_purity(const Index& idx, std::vector<Finding>& findings);
void rule_unchecked_posix_io(const Index& idx, std::vector<Finding>& findings);

}  // namespace darnet::analyze
