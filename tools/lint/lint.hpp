// mtd-lint: a determinism/discipline linter for this repository.
//
// The reproduction's core guarantee — bit-identical aggregates for any
// worker count, fault schedule, or stop/resume split — is easy to break
// with one innocent line: a std::random_device seed, a wall-clock read
// folded into results, an iteration over an unordered container feeding an
// order-sensitive sum (a parallel collector merging per-worker partials in
// hash order). These are correctness bugs that compile cleanly and pass
// tests until the thread schedule shifts. mtd-lint bans them at analysis time.
//
// Architecture: a two-pass analyzer. Pass 1 builds a ProjectModel
// (project_model.hpp) — include graph, struct fields, function bodies,
// fault_fire sites, EventKind switches, lock-acquisition edges — from
// every scanned SourceFile, whose comments and string/character literals
// have been blanked (so banned tokens inside strings or docs never fire).
// Pass 2 runs the rules: per-file rules override check() and see one file
// at a time; cross-file rules override check_project() and see the model,
// anchoring findings back to concrete file:line sites. Findings are
// suppressible inline either way:
//
//   foo();  // mtd-lint: allow(rule-name[, other-rule])   same line
//   // mtd-lint: allow(rule-name)                          next line
//   // mtd-lint: allow-file(rule-name)                     whole file
//
// Pre-existing findings can also be grandfathered in a committed baseline
// file (baseline.hpp) that only ever shrinks: new findings fail the gate,
// fixed ones must be removed with --update-baseline.
//
// The CLI (main.cpp) prints human-readable "path:line: [rule] message"
// lines or, with --json, a machine-readable document built with mtd::Json.
// Per-file rules live in rules.cpp, cross-file rules in cross_rules.cpp;
// DESIGN.md sections 9 and 14 document how to add one.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/project_model.hpp"

namespace mtd::lint {

/// One rule violation.
struct Finding {
  std::string rule;
  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string message;
};

/// A source file prepared for lexical analysis.
struct SourceFile {
  std::string path;
  /// Raw lines, as read (suppression comments are parsed from these).
  std::vector<std::string> lines;
  /// Same lines with comments and string/char literal contents blanked to
  /// spaces; rules match against these so docs and literals cannot fire.
  std::vector<std::string> code;

  /// True when findings of `rule` at `line` (1-based) are suppressed by an
  /// allow() on the same or preceding line, or an allow-file() anywhere.
  [[nodiscard]] bool suppressed(std::string_view rule,
                                std::size_t line) const;

  [[nodiscard]] bool is_header() const;

  /// Splits `content` into lines, blanks comments/literals, and parses
  /// suppression comments. `path` is used for reporting and per-path rule
  /// sanctioning only; the file is not read from disk.
  [[nodiscard]] static SourceFile from_content(std::string path,
                                               std::string_view content);

  /// Reads `path` and delegates to from_content. Throws mtd::IoError.
  [[nodiscard]] static SourceFile from_path(const std::string& path);

  // (rule, 1-based line) pairs enabled by inline allow() comments.
  std::set<std::pair<std::string, std::size_t>> line_allows;
  // Rules disabled for the whole file by allow-file().
  std::set<std::string, std::less<>> file_allows;
};

/// A lint rule. Stateless; findings are appended to `out` unsuppressed —
/// the registry applies suppressions afterwards. Per-file rules override
/// check(); cross-file rules override check_project() (called once per
/// run, after the model is built). Either default is a no-op so a rule
/// implements only the pass it needs.
class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  /// The suppression comment that silences this rule at one site. The
  /// default is the generic allow(); rules with a more specific mechanism
  /// (e.g. an exhaustive-default marker) override it.
  [[nodiscard]] virtual std::string escape_hatch() const;
  virtual void check(const SourceFile& file, const ProjectModel& model,
                     std::vector<Finding>& out) const;
  virtual void check_project(const ProjectModel& model,
                             std::vector<Finding>& out) const;
};

class RuleRegistry {
 public:
  void add(std::unique_ptr<Rule> rule);

  [[nodiscard]] const std::vector<std::unique_ptr<Rule>>& rules()
      const noexcept {
    return rules_;
  }

  /// Runs pass 1 (build_project_model) then every rule over every file,
  /// and returns the surviving (unsuppressed) findings, ordered by
  /// (path, line, rule). Cross-file findings are suppressed through the
  /// SourceFile they anchor to, same grammar as per-file ones.
  [[nodiscard]] std::vector<Finding> run(
      const std::vector<SourceFile>& files) const;

  /// All built-in rules: the per-file catalog (rules.cpp) followed by the
  /// cross-file catalog (cross_rules.cpp).
  [[nodiscard]] static RuleRegistry built_in();

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Registers the per-file rules (rules.cpp). Used by built_in().
void register_file_rules(RuleRegistry& registry);
/// Registers the cross-file rules (cross_rules.cpp). Used by built_in().
void register_cross_rules(RuleRegistry& registry);

/// Collects function names whose declared return type marks them
/// must-check (types matching *Result, RunReport, ErrorCode, Status).
/// Shared by the missing-nodiscard and ignored-result rules.
void collect_must_check_functions(const SourceFile& file,
                                  std::set<std::string, std::less<>>& out);

/// Collects function names declared with a void return, used to disqualify
/// ambiguous names from the ignored-result rule.
void collect_void_functions(const SourceFile& file,
                            std::set<std::string, std::less<>>& out);

/// Machine-readable report: {"files_scanned": N, "findings": [...]}.
[[nodiscard]] std::string findings_to_json(const std::vector<Finding>& findings,
                                           std::size_t files_scanned);

/// The --list-rules text: one block per registered rule with its name,
/// one-line heuristic, and escape hatch. Factored out of main.cpp so the
/// test suite can assert the listing matches the registry.
[[nodiscard]] std::string list_rules_text(const RuleRegistry& registry);

}  // namespace mtd::lint
