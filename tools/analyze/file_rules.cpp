// darnet_analyze per-file stage: the tree-wide conventions that can be
// checked one file at a time (DESIGN.md "Correctness tooling",
// docs/STATIC_ANALYSIS.md). Every rule reads the shared lexer's output --
// tokens, directives and comments are separate streams -- so a banned
// construct spelled inside a comment or a string literal (raw strings
// included) never fires, and code after such a literal is never hidden.
//
// Text-like bans (raw new/delete, threads, RNGs, console I/O, the deprecated
// shim gate) also scan the tokens of each preprocessor directive, so
// `#define X new Foo` cannot dodge them.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "tools/analyze/rules.hpp"

namespace darnet::analyze {
namespace {

namespace fs = std::filesystem;

// `std :: <name>` at tokens[i]: returns <name>, or "" when absent.
std::string_view std_member(const std::vector<Token>& T, size_t i) {
  if (i + 2 < T.size() && is_ident(T[i], "std") && is_punct(T[i + 1], "::") &&
      T[i + 2].kind == Tok::kIdent) {
    return T[i + 2].text;
  }
  return "";
}

// True when tokens[i] is the name in a `std :: name` spelling.
bool std_qualified(const std::vector<Token>& T, size_t i) {
  return i >= 2 && is_punct(T[i - 1], "::") && is_ident(T[i - 2], "std");
}

// True when the token after tokens[i] starts an expression operand, which
// tells `new Foo` / `delete p` / `delete[] p` apart from other spellings.
bool operand_follows(const std::vector<Token>& T, size_t i) {
  if (i + 1 >= T.size()) return false;
  const Token& n = T[i + 1];
  return n.kind == Tok::kIdent || is_punct(n, "(") || is_punct(n, "[") ||
         is_punct(n, "::");
}

// `operator new` / `operator delete[]` name allocation functions (e.g. the
// counting allocator in tests/test_hotpath_alloc.cpp); they are not
// expressions.
bool after_operator(const std::vector<Token>& T, size_t i) {
  return i > 0 && is_ident(T[i - 1], "operator");
}

// Every directive's tokens, each directive opened by a "#" token so that no
// pattern spans two directives. Tokens carry the directive's line.
std::vector<Token> directive_tokens(const LexedFile& lexed) {
  std::vector<Token> out;
  for (const Directive& d : lexed.directives) {
    out.push_back(Token{Tok::kPunct, "#", d.line});
    out.push_back(Token{Tok::kIdent, d.name, d.line});
    for (Token t : lex(d.rest, lexed.path).tokens) {
      t.line = d.line;
      out.push_back(std::move(t));
    }
  }
  return out;
}

// Matches the registry's metric-name grammar: lowercase [a-z0-9_]
// segments joined by '/', at least two segments (`subsystem/verb_noun`).
bool valid_obs_name(std::string_view name) {
  if (name.empty() || name.front() == '/' || name.back() == '/') return false;
  bool slash = false;
  char prev = '\0';
  for (const char c : name) {
    if (c == '/') {
      if (prev == '/') return false;
      slash = true;
    } else if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') {
      return false;
    }
    prev = c;
  }
  return slash;
}

// The calls whose first argument is a documented name: the DARNET_*
// observability macros, and `serving_count`, the helper through which the
// HTTP edge's /metrics renders the serving counts from the Stats structs.
const std::set<std::string, std::less<>> kObsMacros = {
    "DARNET_COUNTER_ADD", "DARNET_GAUGE_SET",   "DARNET_HISTOGRAM_NS",
    "DARNET_TIMER",       "DARNET_SPAN_DETAIL", "DARNET_SPAN",
    "serving_count",
};

const std::set<std::string, std::less<>> kRawPrimitives = {
    "mutex",        "recursive_mutex",    "timed_mutex",
    "recursive_timed_mutex",              "shared_mutex",
    "shared_timed_mutex",                 "condition_variable",
    "condition_variable_any",             "lock_guard",
    "unique_lock",  "scoped_lock",        "shared_lock"};

// Render a member declaration's tokens for a diagnostic: spaces between
// tokens except around scope/member access and brackets, with `*` / `&`
// bound to the type on their left.
std::string render(const std::vector<Token>& T, size_t begin, size_t end) {
  static const std::set<std::string, std::less<>> kNoSpaceAfter = {
      "::", ".", "->", "(", "[", "<"};
  static const std::set<std::string, std::less<>> kNoSpaceBefore = {
      "::", ".", "->", "(", ")", "[", "]", "<", ">", ",", ";", "*", "&",
      "&&"};
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    const Token& t = T[i];
    if (i > begin && !(T[i - 1].kind == Tok::kPunct &&
                       kNoSpaceAfter.contains(T[i - 1].text)) &&
        !(t.kind == Tok::kPunct && kNoSpaceBefore.contains(t.text))) {
      out += ' ';
    }
    if (t.kind == Tok::kString) {
      out += '"' + t.text + '"';
    } else if (t.kind == Tok::kChar) {
      out += '\'' + t.text + '\'';
    } else {
      out += t.text;
    }
  }
  return out;
}

struct FileCheck {
  const LexedFile& lexed;
  ContractUses& uses;
  std::vector<Finding>& findings;
  const std::string& rel = lexed.path;
  const std::vector<Token>& T = lexed.tokens;

  void report(int line, std::string rule, std::string message) {
    findings.push_back(
        Finding{std::move(rule), rel, line, "", std::move(message)});
  }
  bool in(std::string_view dir) const { return rel.starts_with(dir); }

  // The bans that name a construct; run over the code tokens and again over
  // the directive tokens.
  void banned_tokens(const std::vector<Token>& toks) {
    const bool hot_path = in("src/tensor/") || in("src/nn/");
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      // src/sync/ is exempt from raw-new: the lock-order checker
      // immortalises its graph state on purpose (see sync.cpp) so locks
      // taken during static/TLS destruction never touch destroyed objects.
      if (t.text == "new" && !in("src/sync/") && operand_follows(toks, i) &&
          !after_operator(toks, i)) {
        report(t.line, "raw-new",
               "raw new expression; use value types, containers or "
               "std::make_unique");
      }
      if (t.text == "delete" && !(i > 0 && is_punct(toks[i - 1], "=")) &&
          operand_follows(toks, i) && !after_operator(toks, i)) {
        report(t.line, "raw-delete",
               "raw delete expression; ownership must be RAII-managed");
      }
      const std::string_view member = std_member(toks, i);
      if (!in("src/parallel/") &&
          (member == "thread" || member == "jthread" || member == "async")) {
        report(t.line, "thread-outside-parallel",
               "std::" + std::string(member) +
                   " outside src/parallel/; build on parallel_for");
      }
      if (member == "rand" || member == "random_device" ||
          member == "mt19937" || member == "default_random_engine" ||
          t.text == "srand") {
        report(t.line, "unseeded-rng",
               (t.text == "srand" ? "srand" : "std::" + std::string(member)) +
                   "; all randomness must flow through util::Rng with an "
                   "explicit seed");
      }
      if (t.text == "rand" && !std_qualified(toks, i) && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(")) {
        report(t.line, "unseeded-rng",
               "C rand(); all randomness must flow through util::Rng");
      }
      if (hot_path &&
          (t.text == "printf" || t.text == "fprintf" || t.text == "sprintf" ||
           t.text == "puts" || member == "cout" || member == "cerr" ||
           member == "clog")) {
        const std::string what =
            member.empty() ? t.text : "std::" + std::string(member);
        report(t.line, "hot-path-io",
               what + " in a tensor/nn hot path; route diagnostics through "
                      "darnet::check or util::logging");
      }
      // The deprecated engine shim API was deleted outright: any
      // DARNET_ALLOW_DEPRECATED* gate token, engine shim or future copycat,
      // is an attempt to resurrect a removed API. Prefix match so renamed
      // suffixes cannot dodge the ban.
      if (t.text.starts_with("DARNET_ALLOW_DEPRECATED")) {
        report(t.line, "engine-deprecated-shim",
               "DARNET_ALLOW_DEPRECATED* gate token; the deprecated engine "
               "shim API is gone -- use ClassifyRequest / classify_batch and "
               "engine::borrow instead of re-enabling removed shims");
      }
    }
  }

  // hot-path-alloc: float/double vectors are banned in the directories the
  // steady-state inference path runs through. The sanctioned replacements
  // (tensor::Storage, tensor::ArenaAlloc<T>) recycle allocations through
  // the per-worker arena, which is what lets test_hotpath_alloc assert zero
  // heap allocations per classify_batch after warm-up.
  void hot_path_alloc() {
    if (!(in("src/tensor/") || in("src/nn/") || in("src/engine/") ||
          in("src/serve/")) ||
        hot_path_alloc_exempt_file(rel)) {
      return;
    }
    for (size_t i = 0; i + 5 < T.size(); ++i) {
      if (std_member(T, i) != "vector" || !is_punct(T[i + 3], "<")) continue;
      const Token& elem = T[i + 4];
      if ((!is_ident(elem, "float") && !is_ident(elem, "double")) ||
          !is_punct(T[i + 5], ">")) {
        continue;
      }
      report(T[i].line, "hot-path-alloc",
             "std::vector<" + elem.text +
                 "> in an inference hot-path directory; use tensor::Storage "
                 "or tensor::ArenaAlloc so the steady-state path stays "
                 "zero-alloc (or add a kHotPathAllocExempt entry with a "
                 "reason)");
    }
  }

  // serve-bounded-queue: the admission queue is the server's only elastic
  // buffer. A member push/emplace into an identifier containing "queue"
  // inside src/serve/ needs a "capacity" identifier in the code of the
  // preceding 8 lines (e.g. a DARNET_CHECK or an if against queue_capacity).
  void bounded_queue() {
    if (!in("src/serve/")) return;
    static const std::set<std::string, std::less<>> kPushes = {
        "push",    "push_back",    "push_front",
        "emplace", "emplace_back", "emplace_front"};
    for (size_t i = 2; i < T.size(); ++i) {
      if (T[i].kind != Tok::kIdent || !kPushes.contains(T[i].text) ||
          !is_punct(T[i - 1], ".") || T[i - 2].kind != Tok::kIdent) {
        continue;
      }
      const std::string& receiver = T[i - 2].text;
      if (receiver.find("queue") == std::string::npos) continue;
      bool guarded = false;
      for (size_t j = i - 2; j-- > 0 && T[j].line >= T[i - 2].line - 7;) {
        if (T[j].kind == Tok::kIdent &&
            T[j].text.find("capacity") != std::string::npos) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        report(T[i].line, "serve-bounded-queue",
               "push into '" + receiver +
                   "' with no capacity guard in the preceding 8 lines; the "
                   "serve admission queue must stay bounded (check against "
                   "queue_capacity before pushing)");
      }
    }
  }

  void raw_primitives() {
    for (size_t i = 0; i < T.size(); ++i) {
      const std::string_view member = std_member(T, i);
      if (member.empty() || !kRawPrimitives.contains(member)) continue;
      report(T[i].line, "sync-raw-primitive",
             "std::" + std::string(member) +
                 " outside src/sync/; use sync::Mutex / sync::Lock / "
                 "sync::UniqueLock / sync::CondVar so checked builds can "
                 "track held locks and lock order");
    }
  }

  // sync-guarded-by: in every class/struct definition that owns a
  // sync::Mutex or sync::CondVar, each mutable data member must declare its
  // discipline -- DARNET_GUARDED_BY / DARNET_ATOMIC / DARNET_THREAD_LOCAL,
  // or be a sync primitive / std::atomic itself. const/static members,
  // nested types and member functions are exempt.
  void guarded_by() {
    for (size_t i = 0; i < T.size(); ++i) {
      if (!is_ident(T[i], "class") && !is_ident(T[i], "struct")) continue;
      // Skip `enum class` and template-parameter introducers.
      if (i > 0 && (is_punct(T[i - 1], "<") || is_punct(T[i - 1], ",") ||
                    is_ident(T[i - 1], "enum"))) {
        continue;
      }
      // A definition has '{' before the next ';'; anything else (forward
      // declaration, elaborated type specifier) is skipped.
      size_t open = i + 1;
      while (open < T.size() && !is_punct(T[open], "{") &&
             !is_punct(T[open], ";")) {
        ++open;
      }
      if (open >= T.size() || is_punct(T[open], ";")) continue;
      const size_t close = match_forward(T, open, "{", "}");
      if (close >= T.size()) continue;
      class_body(open + 1, close);
    }
  }

  // Split one class body [begin, end) into top-level member statements
  // (function bodies and nested brace groups are skipped as units) and apply
  // the guarded-by contract when the class owns a lock.
  void class_body(size_t begin, size_t end) {
    std::vector<std::pair<size_t, size_t>> stmts;  // token ranges
    size_t start = begin;
    for (size_t i = begin; i < end; ++i) {
      if (is_punct(T[i], "{")) {
        const size_t close = match_forward(T, i, "{", "}");
        if (close >= end) break;
        if (close + 1 < end && is_punct(T[close + 1], ";")) {
          // Brace initializer (`int x_{0};`) or nested type definition: the
          // ';' ends the statement. The braces are not part of its text.
          stmts.emplace_back(start, i);
          i = close + 1;
          start = close + 2;
        } else {
          start = close + 1;  // a function body: its header is no member
          i = close;
        }
      } else if (is_punct(T[i], ";")) {
        stmts.emplace_back(start, i);
        start = i + 1;
      } else if (i == start &&
                 (is_ident(T[i], "public") || is_ident(T[i], "private") ||
                  is_ident(T[i], "protected")) &&
                 i + 1 < end && is_punct(T[i + 1], ":")) {
        start = i + 2;  // access label
        ++i;
      }
    }
    const auto names_sync = [&](size_t b, size_t e) {
      for (size_t k = b; k + 2 < e; ++k) {
        if (is_ident(T[k], "sync") && is_punct(T[k + 1], "::") &&
            (is_ident(T[k + 2], "Mutex") || is_ident(T[k + 2], "CondVar"))) {
          return true;
        }
      }
      return false;
    };
    bool owns_lock = false;
    for (const auto& [b, e] : stmts) owns_lock = owns_lock || names_sync(b, e);
    if (!owns_lock) return;

    static const std::set<std::string, std::less<>> kExemptLead = {
        "const",  "static", "constexpr", "using",    "typedef", "friend",
        "enum",   "class",  "struct",    "template", "inline"};
    for (const auto& [b, e] : stmts) {
      size_t lead = b;  // the first word decides the declaration kind
      while (lead < e && T[lead].kind != Tok::kIdent) ++lead;
      if (lead == e || kExemptLead.contains(T[lead].text) ||
          names_sync(b, e)) {
        continue;
      }
      bool declared = false;
      for (size_t k = b; k < e && !declared; ++k) {
        const std::string& w = T[k].text;
        declared = is_punct(T[k], "(") ||  // a member function declaration
                   (T[k].kind == Tok::kIdent &&
                    (w.find("DARNET_GUARDED_BY") != std::string::npos ||
                     w.find("DARNET_ATOMIC") != std::string::npos ||
                     w.find("DARNET_THREAD_LOCAL") != std::string::npos)) ||
                   std_member(T, k).starts_with("atomic");
      }
      if (declared) continue;
      std::string shown = render(T, b, e);
      if (shown.size() > 48) shown = shown.substr(0, 48) + "...";
      report(T[b].line, "sync-guarded-by",
             "member `" + shown +
                 "` of a lock-owning class declares no synchronisation "
                 "discipline; annotate it with DARNET_GUARDED_BY(mu) / "
                 "DARNET_ATOMIC / DARNET_THREAD_LOCAL (or make it const)");
    }
  }

  // sync-assert-held: every `REQUIRES: <mu> held|free` comment attached to a
  // function *definition* must be backed by DARNET_ASSERT_HELD(<mu>) (resp.
  // DARNET_ASSERT_NOT_HELD(<mu>)) in the body. Markers on declarations
  // document the contract for callers and are enforced at the definition.
  void assert_held() {
    const auto word = [](const std::string& s, size_t& i) {
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
      const size_t b = i;
      while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                              s[i] == '_')) {
        ++i;
      }
      return s.substr(b, i - b);
    };
    for (const Comment& c : lexed.comments) {
      for (size_t pos = c.text.find("REQUIRES:"); pos != std::string::npos;
           pos = c.text.find("REQUIRES:", pos + 1)) {
        size_t i = pos + 9;
        const std::string name = word(c.text, i);
        const std::string mode = word(c.text, i);
        if (name.empty() || (mode != "held" && mode != "free")) continue;
        size_t open = c.next_tok;
        while (open < T.size() && !is_punct(T[open], "{") &&
               !is_punct(T[open], ";")) {
          ++open;
        }
        if (open >= T.size() || is_punct(T[open], ";")) continue;
        const size_t close = match_forward(T, open, "{", "}");
        if (close >= T.size()) continue;
        const char* macro =
            mode == "held" ? "DARNET_ASSERT_HELD" : "DARNET_ASSERT_NOT_HELD";
        bool asserted = false;
        for (size_t k = open; k + 2 < close && !asserted; ++k) {
          asserted = is_ident(T[k], macro) && is_punct(T[k + 1], "(") &&
                     is_ident(T[k + 2], name);
        }
        if (asserted) continue;
        const int line = c.line + static_cast<int>(std::count(
                                      c.text.begin(),
                                      c.text.begin() + static_cast<std::ptrdiff_t>(pos),
                                      '\n'));
        report(line, "sync-assert-held",
               "`REQUIRES: " + name + " " + mode +
                   "` on a function definition without a matching " + macro +
                   "(" + name +
                   ") in the body; lock preconditions are executable, not "
                   "prose");
      }
    }
  }

  // Scenario-catalogue contract extraction: every
  // `register_scenario("name", ...)` call in src/sim/. The definition site
  // (`const auto register_scenario = [...]`) is not followed by '(' +
  // string, so only call sites are collected.
  void collect_scenarios() {
    if (!in("src/sim/")) return;
    for (size_t i = 0; i + 2 < T.size(); ++i) {
      if (is_ident(T[i], "register_scenario") && is_punct(T[i + 1], "(") &&
          T[i + 2].kind == Tok::kString) {
        uses.scenarios.push_back(NameUse{T[i + 2].text, rel, T[i].line});
      }
    }
  }

  // Observability contract extraction: every metric/span name registered
  // through the DARNET_* macros in src/, every serving count /metrics
  // renders through serving_count, and direct registry() registrations
  // (`registry().counter("name")` et al., used by layers such as src/sync
  // that cannot go through the macros). src/obs/ defines the macros and
  // registers nothing itself.
  void collect_metrics() {
    if (!in("src/") || in("src/obs/")) return;
    for (size_t i = 0; i < T.size(); ++i) {
      if (T[i].kind == Tok::kIdent && kObsMacros.contains(T[i].text)) {
        if (i + 1 >= T.size() || !is_punct(T[i + 1], "(")) {
          continue;  // macro definition mention, not a call site
        }
        if (i + 2 >= T.size() || T[i + 2].kind != Tok::kString) {
          report(T[i].line, "obs-name-literal",
                 T[i].text +
                     ": metric/span name must be a string literal so the "
                     "documented contract is statically checkable");
          continue;
        }
        uses.metrics.push_back(NameUse{T[i + 2].text, rel, T[i].line});
        continue;
      }
      if (is_ident(T[i], "registry") && i + 6 < T.size() &&
          is_punct(T[i + 1], "(") && is_punct(T[i + 2], ")") &&
          is_punct(T[i + 3], ".") &&
          (is_ident(T[i + 4], "counter") || is_ident(T[i + 4], "gauge") ||
           is_ident(T[i + 4], "histogram")) &&
          is_punct(T[i + 5], "(") && T[i + 6].kind == Tok::kString) {
        uses.metrics.push_back(NameUse{T[i + 6].text, rel, T[i].line});
      }
    }
  }

  void run() {
    if (rel.ends_with(".hpp")) {
      bool once = false;
      for (const Directive& d : lexed.directives) {
        once = once || (d.name == "pragma" && d.rest == "once");
      }
      if (!once) report(1, "pragma-once", "header is missing #pragma once");
    }
    banned_tokens(T);
    banned_tokens(directive_tokens(lexed));
    if (in("src/tensor/") || in("src/nn/")) {
      for (const std::string& inc : lexed.includes) {
        if (inc == "iostream") {
          report(1, "hot-path-io",
                 "<iostream> include in a tensor/nn hot path");
        }
      }
    }
    hot_path_alloc();
    bounded_queue();
    // src/sync/ is the one place allowed to name the raw std primitives (it
    // wraps them), and its own classes are the annotation vocabulary.
    if (!in("src/sync/")) {
      raw_primitives();
      guarded_by();
      assert_held();
    }
    collect_scenarios();
    collect_metrics();
  }
};

// Documented names in a markdown file, from table rows (first non-space
// character '|'): every backticked token that matches the metric-name
// grammar, or with `first_only` the row's first backticked token. With
// markers, only rows between the begin and end marker lines count.
struct DocTable {
  bool exists = false;
  std::map<std::string, int> names;  // name -> first line
};

DocTable read_doc_table(const fs::path& path, bool first_only,
                        std::string_view begin_marker,
                        std::string_view end_marker) {
  DocTable doc;
  std::ifstream in(path, std::ios::binary);
  if (!in) return doc;
  doc.exists = true;
  std::string text;
  int line_no = 0;
  bool inside = begin_marker.empty();
  while (std::getline(in, text)) {
    ++line_no;
    if (!begin_marker.empty() && text.find(begin_marker) != std::string::npos) {
      inside = true;
      continue;
    }
    if (!end_marker.empty() && text.find(end_marker) != std::string::npos) {
      inside = false;
      continue;
    }
    if (!inside) continue;
    const size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos || text[first] != '|') continue;
    for (size_t tick = text.find('`'); tick != std::string::npos;
         tick = text.find('`', tick + 1)) {
      const size_t end = text.find('`', tick + 1);
      if (end == std::string::npos) break;
      const std::string token = text.substr(tick + 1, end - tick - 1);
      if (first_only) {
        if (!token.empty()) doc.names.emplace(token, line_no);
        break;
      }
      // File paths never match the grammar (no '.'), so
      // `src/nn/trainer.cpp` in a row is not a name.
      if (valid_obs_name(token)) doc.names.emplace(token, line_no);
      tick = end;
    }
  }
  return doc;
}

}  // namespace

void rule_file(const LexedFile& lexed, ContractUses& uses,
               std::vector<Finding>& findings) {
  FileCheck{lexed, uses, findings}.run();
}

void rule_doc_contracts(const fs::path& root, const ContractUses& uses,
                        std::vector<Finding>& findings) {
  // docs/OBSERVABILITY.md: backticked `subsystem/name` tokens on any table
  // row. Every registered name must have a row; every row must still be
  // registered.
  const DocTable obs =
      read_doc_table(root / "docs" / "OBSERVABILITY.md", false, "", "");
  const std::string obs_doc = "docs/OBSERVABILITY.md";
  if (!obs.exists) {
    if (!uses.metrics.empty()) {
      findings.push_back(Finding{
          "obs-doc-missing", obs_doc, 0, "",
          "docs/OBSERVABILITY.md does not exist but " +
              std::to_string(uses.metrics.size()) +
              " metric/span registration(s) were found in src/"});
    }
  } else {
    std::set<std::string> registered;
    for (const NameUse& use : uses.metrics) {
      registered.insert(use.name);
      if (!valid_obs_name(use.name)) {
        findings.push_back(Finding{
            "obs-name-literal", use.file, use.line, "",
            "metric/span name '" + use.name +
                "' violates the subsystem/verb_noun grammar ([a-z0-9_]+, >= "
                "2 '/'-separated segments)"});
      } else if (!obs.names.contains(use.name)) {
        findings.push_back(Finding{
            "obs-doc-missing", use.file, use.line, "",
            "metric/span '" + use.name +
                "' is registered here but has no table row in "
                "docs/OBSERVABILITY.md"});
      }
    }
    for (const auto& [name, line] : obs.names) {
      if (!registered.contains(name)) {
        findings.push_back(Finding{"obs-doc-stale", obs_doc, line, "",
                                   "documented metric/span '" + name +
                                       "' is not registered anywhere in src/"});
      }
    }
  }

  // docs/SIMULATION.md: the first backticked token of each catalogue row
  // between the scenarios:begin/end markers, against the registered
  // scenarios, both ways.
  const DocTable sim =
      read_doc_table(root / "docs" / "SIMULATION.md", true,
                     "<!-- scenarios:begin -->", "<!-- scenarios:end -->");
  const std::string sim_doc = "docs/SIMULATION.md";
  if (!sim.exists) {
    if (!uses.scenarios.empty()) {
      findings.push_back(Finding{
          "sim-doc-missing", sim_doc, 0, "",
          "docs/SIMULATION.md does not exist but " +
              std::to_string(uses.scenarios.size()) +
              " scenario registration(s) were found in src/sim/"});
    }
    return;
  }
  std::set<std::string> registered;
  for (const NameUse& use : uses.scenarios) {
    registered.insert(use.name);
    if (!sim.names.contains(use.name)) {
      findings.push_back(Finding{
          "sim-doc-missing", use.file, use.line, "",
          "scenario '" + use.name +
              "' is registered here but has no catalogue row between the "
              "scenarios:begin/end markers in docs/SIMULATION.md"});
    }
  }
  for (const auto& [name, line] : sim.names) {
    if (!registered.contains(name)) {
      findings.push_back(
          Finding{"sim-doc-stale", sim_doc, line, "",
                  "documented scenario '" + name +
                      "' is not registered anywhere in src/sim/"});
    }
  }
}

}  // namespace darnet::analyze
