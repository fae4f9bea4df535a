// Fixture-driven tests for mtd-lint (tools/lint). Each bad fixture proves
// its rule fires at the documented lines; the ok fixtures prove the
// suppression grammar and that idiomatic engine code stays clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "io/json.hpp"
#include "lint/baseline.hpp"
#include "lint/lint.hpp"

namespace {

using mtd::lint::Baseline;
using mtd::lint::Finding;
using mtd::lint::RuleRegistry;
using mtd::lint::SourceFile;

std::string fixture_path(const std::string& name) {
  return std::string(MTD_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_path(fixture_path(name)));
  return RuleRegistry::built_in().run(files);
}

// Lints a whole fixture mini-tree (a `<name>/src/...` directory) in one
// registry pass, the way the CLI lints the real tree. The file list is
// spelled out so a stray file added to the fixture dir cannot silently
// change what these tests cover.
std::vector<Finding> lint_tree(const std::string& tree,
                               const std::vector<std::string>& rel_paths) {
  std::vector<SourceFile> files;
  for (const auto& rel : rel_paths) {
    files.push_back(SourceFile::from_path(fixture_path(tree + "/" + rel)));
  }
  return RuleRegistry::built_in().run(files);
}

const std::vector<std::string>& project_ok_files() {
  static const std::vector<std::string> kFiles = {
      "src/common/base.hpp",       "src/core/locks.cpp",
      "src/engine/checkpoint.cpp", "src/engine/checkpoint.hpp",
      "src/events/event.hpp",      "src/events/sink.cpp",
      "src/store/writer.cpp",      "src/usecases/replay.cpp",
  };
  return kFiles;
}

const std::vector<std::string>& project_bad_files() {
  static const std::vector<std::string> kFiles = {
      "src/common/a.hpp",          "src/common/b.hpp",
      "src/common/util.hpp",       "src/core/locks.cpp",
      "src/core/locks_reverse.cpp", "src/engine/checkpoint.cpp",
      "src/engine/checkpoint.hpp", "src/events/event.hpp",
      "src/events/sink.cpp",       "src/math/helper.hpp",
      "src/store/compactor.cpp",   "src/store/writer.cpp",
  };
  return kFiles;
}

// True iff a finding for `rule` exists whose path ends with `path_suffix`
// at exactly `line`.
bool has_finding(const std::vector<Finding>& findings, const std::string& rule,
                 const std::string& path_suffix, std::size_t line) {
  for (const auto& f : findings) {
    if (f.rule != rule || f.line != line) continue;
    if (f.path.size() >= path_suffix.size() &&
        f.path.compare(f.path.size() - path_suffix.size(), path_suffix.size(),
                       path_suffix) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<std::size_t> lines_of(const std::vector<Finding>& findings,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const auto& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

TEST(LintRules, BannedRandomFiresOnEntropyCallsOnly) {
  const auto findings = lint_fixture("banned_random_bad.cpp");
  EXPECT_EQ(lines_of(findings, "banned-random"),
            (std::vector<std::size_t>{6, 11, 12}));
  // The mentions inside comments and string literals must not fire, so
  // banned-random accounts for every finding in this fixture.
  for (const auto& f : findings) EXPECT_EQ(f.rule, "banned-random") << f.line;
}

TEST(LintRules, WallClockFiresButSteadyClockIsSanctioned) {
  const auto findings = lint_fixture("wall_clock_bad.cpp");
  EXPECT_EQ(lines_of(findings, "wall-clock"),
            (std::vector<std::size_t>{6, 11, 15}));
}

TEST(LintRules, RawMutexFiresOutsideWrapperAndSkipsPreprocessor) {
  const auto findings = lint_fixture("raw_mutex_bad.cpp");
  // The two `#include <mutex>`/`<condition_variable>` lines and the
  // suppressed recursive_mutex must not fire; the four raw uses must.
  EXPECT_EQ(lines_of(findings, "raw-mutex"),
            (std::vector<std::size_t>{6, 7, 12, 17}));
}

TEST(LintRules, RawMutexSanctionsTheWrapperFileItself) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_content("src/common/mutex.hpp",
                                           "std::mutex mutex_;\n"));
  const auto findings = RuleRegistry::built_in().run(files);
  EXPECT_EQ(lines_of(findings, "raw-mutex"), (std::vector<std::size_t>{}));
}

TEST(LintRules, UnorderedFoldFlagsOrderSensitiveAccumulation) {
  const auto findings = lint_fixture("unordered_fold_bad.cpp");
  // The += fold and the push_back collection fire at their for-statements;
  // the pure lookup loop at the bottom of the fixture must not.
  EXPECT_EQ(lines_of(findings, "unordered-fold"),
            (std::vector<std::size_t>{12, 22}));
}

TEST(LintRules, MissingNodiscardFlagsBareResultDeclarations) {
  const auto findings = lint_fixture("missing_nodiscard_bad.hpp");
  EXPECT_EQ(lines_of(findings, "missing-nodiscard"),
            (std::vector<std::size_t>{13, 15}));
}

TEST(LintRules, IgnoredResultFlagsDiscardedCalls) {
  const auto findings = lint_fixture("ignored_result_bad.cpp");
  // Bare parse_all() and engine.run(); the bound and static_cast<void>
  // uses further down must not fire.
  EXPECT_EQ(lines_of(findings, "ignored-result"),
            (std::vector<std::size_t>{15, 16}));
}

TEST(LintRules, IncludeHygieneFlagsPragmaDuplicatesAndParentPaths) {
  const auto findings = lint_fixture("include_hygiene_bad.hpp");
  EXPECT_EQ(lines_of(findings, "include-hygiene"),
            (std::vector<std::size_t>{1, 5, 6}));
}

TEST(LintRules, InlineAllowSuppressesSameAndPrecedingLine) {
  const auto findings = lint_fixture("suppressed_ok.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().rule << " at line "
                                << findings.front().line;
}

TEST(LintRules, AllowFileScopesToTheNamedRuleOnly) {
  const auto findings = lint_fixture("allow_file_ok.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-random");
  EXPECT_EQ(findings[0].line, 9u);
}

TEST(LintRules, CleanEngineStyleCodePasses) {
  const auto findings = lint_fixture("clean_ok.cpp");
  EXPECT_TRUE(findings.empty()) << findings.front().rule << " at line "
                                << findings.front().line;
}

TEST(LintRules, CommentsAndLiteralsAreBlanked) {
  const auto file = SourceFile::from_content(
      "blank.cpp",
      "// std::random_device in a comment\n"
      "/* rand() in a block\n"
      "   comment spanning lines */\n"
      "const char* msg = \"calls rand() and localtime()\";\n"
      "char c = 'r';\n");
  std::vector<SourceFile> files;
  files.push_back(file);
  const auto findings = RuleRegistry::built_in().run(files);
  EXPECT_TRUE(findings.empty()) << findings.front().rule << " at line "
                                << findings.front().line;
}

TEST(LintRules, RawStringsAreBlanked) {
  const auto file = SourceFile::from_content(
      "raw.cpp",
      "const char* doc = R\"(uses rand() and std::random_device)\";\n"
      "int after() { return rand(); }\n");
  std::vector<SourceFile> files;
  files.push_back(file);
  const auto findings = RuleRegistry::built_in().run(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-random");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintRules, MustCheckFunctionsCrossFiles) {
  // A declaration in one file makes a bare call in another file a finding:
  // the registry's pre-pass collects must-check names project-wide.
  auto decl = SourceFile::from_content(
      "api.hpp",
      "#pragma once\n[[nodiscard]] LoadResult load_everything();\n");
  auto use = SourceFile::from_content(
      "use.cpp", "void go() {\n  load_everything();\n}\n");
  std::vector<SourceFile> files;
  files.push_back(std::move(decl));
  files.push_back(std::move(use));
  const auto findings = RuleRegistry::built_in().run(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ignored-result");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].path, "use.cpp");
}

TEST(LintRules, JsonReportRoundTrips) {
  const auto findings = lint_fixture("banned_random_bad.cpp");
  const std::string doc =
      mtd::lint::findings_to_json(findings, /*files_scanned=*/1);
  const mtd::Json parsed = mtd::Json::parse(doc);
  EXPECT_EQ(parsed.at("files_scanned").as_number(), 1.0);
  EXPECT_EQ(parsed.at("violations").as_number(),
            static_cast<double>(findings.size()));
  const auto& arr = parsed.at("findings").as_array();
  ASSERT_EQ(arr.size(), findings.size());
  EXPECT_EQ(arr[0].at("rule").as_string(), "banned-random");
  EXPECT_EQ(arr[0].at("line").as_number(), 6.0);
  EXPECT_EQ(arr[0].at("path").as_string(),
            fixture_path("banned_random_bad.cpp"));
  EXPECT_FALSE(arr[0].at("message").as_string().empty());
}

TEST(LintRules, CatalogHasUniqueNonEmptyNames) {
  const auto registry = RuleRegistry::built_in();
  std::vector<std::string> names;
  for (const auto& rule : registry.rules()) {
    EXPECT_FALSE(rule->name().empty());
    EXPECT_FALSE(rule->description().empty());
    names.emplace_back(rule->name());
  }
  EXPECT_GE(names.size(), 12u);
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

TEST(LintRules, HotPathFilesLintClean) {
  // The hot-path additions (alias sampling, to_chars formatters, the
  // micro-benchmark) are linted here as shipped, pinning include-hygiene
  // and must-check coverage to the real files rather than fixtures. All
  // files run in one registry pass so the must-check pre-pass sees every
  // [[nodiscard]] declaration project-style.
  const std::vector<std::string> paths = {
      "src/common/alias_table.hpp", "src/common/alias_table.cpp",
      "src/common/fmt.hpp",         "bench/bench_hot_paths.cpp",
  };
  std::vector<SourceFile> files;
  for (const auto& p : paths) {
    files.push_back(
        SourceFile::from_path(std::string(MTD_LINT_SOURCE_DIR) + "/" + p));
  }
  const auto findings = RuleRegistry::built_in().run(files);
  EXPECT_TRUE(findings.empty())
      << findings.front().rule << " at " << findings.front().path << ":"
      << findings.front().line;
}

TEST(LintRules, StoreFilesLintClean) {
  // The trace-store subsystem (PR 6) is linted as shipped: the on-disk
  // format helpers, the writer's commit path, the reader, the engine
  // runner, and the CLI all stay include-hygienic and must-check clean.
  const std::vector<std::string> paths = {
      "src/store/trace_store.hpp",    "src/store/format.hpp",
      "src/store/format.cpp",         "src/store/bloom.hpp",
      "src/store/bloom.cpp",          "src/store/manifest.cpp",
      "src/store/store_writer.cpp",   "src/store/store_reader.cpp",
      "src/store/store_session_source.hpp",
      "src/store/store_session_source.cpp",
      "src/events/session_source.hpp",
      "src/events/session_source.cpp",
      "src/engine/store_runner.hpp",  "src/engine/store_runner.cpp",
      "tools/store/main.cpp",
  };
  std::vector<SourceFile> files;
  for (const auto& p : paths) {
    files.push_back(
        SourceFile::from_path(std::string(MTD_LINT_SOURCE_DIR) + "/" + p));
  }
  const auto findings = RuleRegistry::built_in().run(files);
  EXPECT_TRUE(findings.empty())
      << findings.front().rule << " at " << findings.front().path << ":"
      << findings.front().line;
}

// ---------------------------------------------------------------------------
// Cross-file rules: the project_ok / project_bad fixture mini-trees.

TEST(LintCrossRules, CleanProjectTreePasses) {
  const auto findings = lint_tree("project_ok", project_ok_files());
  EXPECT_TRUE(findings.empty())
      << findings.front().rule << " at " << findings.front().path << ":"
      << findings.front().line;
}

TEST(LintCrossRules, BadProjectTreeFiresEveryRuleAtDocumentedLines) {
  const auto findings = lint_tree("project_bad", project_bad_files());

  // include-layering: an a.hpp <-> b.hpp cycle (reported once, on the edge
  // that closes it), an upward common -> engine include, a math -> io
  // peer include, and an upward store -> usecases include (the legal
  // direction is usecases -> store, exercised by project_ok).
  EXPECT_TRUE(has_finding(findings, "include-layering", "common/b.hpp", 5));
  EXPECT_TRUE(has_finding(findings, "include-layering", "common/util.hpp", 5));
  EXPECT_TRUE(has_finding(findings, "include-layering", "math/helper.hpp", 5));
  EXPECT_TRUE(
      has_finding(findings, "include-layering", "store/compactor.cpp", 5));

  // checkpoint-field-coverage: clock_minute is serialized and loaded but
  // never compared in StreamEngine::resume.
  EXPECT_TRUE(has_finding(findings, "checkpoint-field-coverage",
                          "engine/checkpoint.hpp", 11));

  // commit-protocol-order: a counter bump between fault_fire and the write
  // it guards (in both the commit and the compaction path — the rule
  // guards store.compact.* sites the same way), and a publish that renames
  // before flushing.
  EXPECT_TRUE(
      has_finding(findings, "commit-protocol-order", "store/writer.cpp", 11));
  EXPECT_TRUE(
      has_finding(findings, "commit-protocol-order", "store/writer.cpp", 17));
  EXPECT_TRUE(has_finding(findings, "commit-protocol-order",
                          "store/compactor.cpp", 11));
  // The manifest-log sequence: commit_appended() appends the manifest
  // record before syncing its pages, commit_unsynced() never syncs them
  // and bumps a counter between fault_fire and the manifest append.
  EXPECT_TRUE(
      has_finding(findings, "commit-protocol-order", "store/writer.cpp", 24));
  EXPECT_TRUE(
      has_finding(findings, "commit-protocol-order", "store/writer.cpp", 34));
  EXPECT_TRUE(
      has_finding(findings, "commit-protocol-order", "store/writer.cpp", 37));

  // event-kind-exhaustiveness: a switch missing kSession with no default,
  // and a default that hides it without the exhaustive-default marker.
  EXPECT_TRUE(
      has_finding(findings, "event-kind-exhaustiveness", "events/sink.cpp", 9));
  EXPECT_TRUE(has_finding(findings, "event-kind-exhaustiveness",
                          "events/sink.cpp", 21));

  // lock-ordering: locks.cpp takes table -> stats, locks_reverse.cpp takes
  // stats -> table; both acquisition sites are reported.
  EXPECT_TRUE(has_finding(findings, "lock-ordering", "core/locks.cpp", 10));
  EXPECT_TRUE(
      has_finding(findings, "lock-ordering", "core/locks_reverse.cpp", 9));

  // Exactly the documented violations — nothing extra fires on the tree.
  EXPECT_EQ(findings.size(), 15u);
}

TEST(LintCrossRules, CrossRulesStayInertOnPartialFileLists) {
  // Linting only the struct definition (no role bodies, no enum users)
  // must not fire coverage or exhaustiveness: the model cannot tell a
  // missing mention from a file it never scanned.
  const auto findings =
      lint_tree("project_bad", {"src/engine/checkpoint.hpp"});
  for (const auto& f : findings) {
    EXPECT_NE(f.rule, "checkpoint-field-coverage")
        << f.path << ":" << f.line;
  }
}

// ---------------------------------------------------------------------------
// Baseline: parse/serialize round-trip and the ratchet protocol.

TEST(LintBaseline, TextRoundTripsThroughParse) {
  const auto findings = lint_tree("project_bad", project_bad_files());
  ASSERT_FALSE(findings.empty());
  const std::string text = Baseline::to_text(findings);
  const Baseline parsed = Baseline::from_text(text);
  ASSERT_EQ(parsed.entries().size(), findings.size());
  // Serializing the parsed entries reproduces the exact committed form.
  EXPECT_EQ(Baseline::to_text(parsed.entries()), text);
}

TEST(LintBaseline, MalformedEntryLineThrows) {
  EXPECT_THROW(Baseline::from_text("not a finding line\n"), mtd::ParseError);
  EXPECT_THROW(Baseline::from_text("path/only.cpp: [rule] no line number\n"),
               mtd::ParseError);
}

TEST(LintBaseline, CommentsAndBlankLinesAreIgnored) {
  const Baseline b = Baseline::from_text(
      "# header comment\n"
      "\n"
      "a.cpp:3: [banned-random] uses rand()\n");
  ASSERT_EQ(b.entries().size(), 1u);
  EXPECT_EQ(b.entries()[0].rule, "banned-random");
  EXPECT_EQ(b.entries()[0].path, "a.cpp");
  EXPECT_EQ(b.entries()[0].line, 3u);
}

TEST(LintBaseline, DiffClassifiesFreshStaleGrandfathered) {
  const auto findings = lint_tree("project_bad", project_bad_files());
  ASSERT_GE(findings.size(), 2u);

  // Baseline everything: every finding is grandfathered, the gate passes.
  const Baseline full = Baseline::from_text(Baseline::to_text(findings));
  const auto all_old = full.diff(findings);
  EXPECT_TRUE(all_old.fresh.empty());
  EXPECT_TRUE(all_old.stale.empty());
  EXPECT_EQ(all_old.grandfathered.size(), findings.size());

  // Drop one entry from the baseline: that finding comes back fresh.
  auto fewer = findings;
  const Finding dropped = fewer.back();
  fewer.pop_back();
  const Baseline partial = Baseline::from_text(Baseline::to_text(fewer));
  const auto ratchet = partial.diff(findings);
  ASSERT_EQ(ratchet.fresh.size(), 1u);
  EXPECT_EQ(ratchet.fresh[0].rule, dropped.rule);
  EXPECT_EQ(ratchet.fresh[0].line, dropped.line);
  EXPECT_TRUE(ratchet.stale.empty());
  EXPECT_EQ(ratchet.grandfathered.size(), findings.size() - 1);

  // Fix the code instead (fewer findings than baseline): the leftover
  // baseline entry is stale and forces a --update-baseline ratchet.
  const auto burn_down = full.diff(fewer);
  EXPECT_TRUE(burn_down.fresh.empty());
  ASSERT_EQ(burn_down.stale.size(), 1u);
  EXPECT_EQ(burn_down.stale[0].rule, dropped.rule);
  EXPECT_EQ(burn_down.grandfathered.size(), fewer.size());
}

TEST(LintBaseline, MatchIsExactOnRulePathLineMessage) {
  // Moving a finding by one line un-baselines it: the old entry goes
  // stale and the moved finding is fresh.
  auto findings = lint_tree("project_bad", project_bad_files());
  ASSERT_FALSE(findings.empty());
  const Baseline base = Baseline::from_text(Baseline::to_text(findings));
  findings.front().line += 1;
  const auto moved = base.diff(findings);
  EXPECT_EQ(moved.fresh.size(), 1u);
  EXPECT_EQ(moved.stale.size(), 1u);
  EXPECT_EQ(moved.grandfathered.size(), findings.size() - 1);
}

TEST(LintBaseline, EmptyBaselineGrandfathersNothing) {
  const Baseline empty = Baseline::from_text("# nothing grandfathered\n");
  const auto findings = lint_tree("project_bad", project_bad_files());
  const auto diff = empty.diff(findings);
  EXPECT_EQ(diff.fresh.size(), findings.size());
  EXPECT_TRUE(diff.stale.empty());
  EXPECT_TRUE(diff.grandfathered.empty());
}

// ---------------------------------------------------------------------------
// --list-rules: the printed catalog must match the registry.

TEST(LintCatalog, ListRulesTextCoversEveryRegisteredRule) {
  const auto registry = RuleRegistry::built_in();
  const std::string text = mtd::lint::list_rules_text(registry);
  std::size_t blocks = 0;
  for (std::size_t pos = 0;
       (pos = text.find("escape hatch:", pos)) != std::string::npos; ++pos) {
    ++blocks;
  }
  EXPECT_EQ(blocks, registry.rules().size());
  for (const auto& rule : registry.rules()) {
    EXPECT_NE(text.find(rule->name()), std::string::npos) << rule->name();
    EXPECT_NE(text.find(rule->description()), std::string::npos)
        << rule->name();
    EXPECT_NE(text.find(rule->escape_hatch()), std::string::npos)
        << rule->name();
  }
}

TEST(LintRules, FindingsAreOrderedByPathLineRule) {
  const auto findings = lint_fixture("include_hygiene_bad.hpp");
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    const auto& a = findings[i - 1];
    const auto& b = findings[i];
    EXPECT_TRUE(std::tie(a.path, a.line, a.rule) <=
                std::tie(b.path, b.line, b.rule));
  }
}

}  // namespace
