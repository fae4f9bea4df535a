// Cross-file rule catalog for mtd-lint (pass 2 of the two-pass analyzer).
//
// These rules consume the ProjectModel built in pass 1 and check
// project-wide invariants the per-file rules cannot see: the include-layer
// DAG, checkpoint field parity across serialize/load/resume code, the
// append→flush→rename commit protocol, StreamEvent kind coverage in every
// sink switch, and the lock-acquisition order implied by MutexLock
// nesting. Each finding anchors to a concrete file:line, so the ordinary
// allow() suppression grammar applies unchanged. Fixture mini-trees under
// tools/lint/fixtures/*/src/ prove each rule fires on seeded-bad input
// (tests/test_lint_rules.cpp).
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lex.hpp"
#include "lint/lint.hpp"

namespace mtd::lint {

namespace {

// ---------------------------------------------------------------------------
// include-layering: enforce the layer DAG and reject include cycles.
// ---------------------------------------------------------------------------

/// The sanctioned layer ranks, lowest first. A src/ file may include only
/// same-layer headers or headers from a strictly lower rank; two
/// different layers on the same rank may not include each other
/// (they are peers by design, not by accident). Keys are matched by
/// longest path prefix, so a nested directory (common/batch_rng) can be
/// its own layer above its parent: batch_rng builds on common/rng but
/// plain common code must not reach up into the vector kernels.
const std::map<std::string, int, std::less<>>& layer_ranks() {
  static const std::map<std::string, int, std::less<>> kRanks = {
      {"common", 0},
      {"common/batch_rng", 1},
      {"math", 2},     {"io", 2},       {"packet", 2},
      {"dataset", 3},
      {"core", 4},     {"mobility", 4},
      {"events", 5},
      {"store", 6},
      {"analysis", 7}, {"usecases", 7},
      {"engine", 8},
      {"scenario", 9},
  };
  return kRanks;
}

/// The path of `path` relative to its src/ root (empty when not in src/).
std::string src_rel(std::string_view path) {
  std::size_t start = 0;
  if (path.rfind("src/", 0) == 0) {
    start = 4;
  } else {
    const std::size_t pos = path.find("/src/");
    if (pos == std::string_view::npos) return {};
    start = pos + 5;
  }
  return std::string(path.substr(start));
}

/// Longest layer_ranks() key that is a directory prefix of `rel` (a path
/// relative to src/); empty when no rank covers it.
std::string layer_of(std::string_view rel) {
  std::string best;
  for (const auto& [key, rank] : layer_ranks()) {
    static_cast<void>(rank);
    if (rel.size() > key.size() && rel.compare(0, key.size(), key) == 0 &&
        rel[key.size()] == '/' && key.size() > best.size()) {
      best = key;
    }
  }
  return best;
}

class IncludeLayeringRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "include-layering";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "src/ includes must follow the layer DAG (common < "
           "common/batch_rng < math/io/packet < dataset < core/mobility "
           "< events < store < analysis/usecases < engine < scenario; "
           "layers match by longest path prefix): no upward, "
           "same-rank-peer, or cyclic includes";
  }
  void check_project(const ProjectModel& model,
                     std::vector<Finding>& out) const override {
    const auto& ranks = layer_ranks();
    // Edge checks: layer ranks by longest prefix.
    for (const IncludeEdge& edge : model.includes) {
      if (!ProjectModel::in_src(edge.path)) continue;
      const std::size_t slash = edge.target.find('/');
      if (slash == std::string::npos) continue;  // local "foo.hpp" include
      const std::string from_dir = layer_of(src_rel(edge.path));
      const std::string to_dir = layer_of(edge.target);
      if (from_dir == to_dir && !from_dir.empty()) continue;
      const auto from_it = ranks.find(from_dir);
      const auto to_it = ranks.find(to_dir);
      if (from_it == ranks.end() || to_it == ranks.end()) {
        const std::string unknown = from_it == ranks.end()
                                        ? ProjectModel::src_dir(edge.path)
                                        : edge.target.substr(0, slash);
        out.push_back({std::string(name()), edge.path, edge.line,
                       "directory 'src/" + unknown +
                           "' has no layer rank; add it to the layer table "
                           "in tools/lint/cross_rules.cpp"});
        continue;
      }
      if (to_it->second >= from_it->second) {
        out.push_back(
            {std::string(name()), edge.path, edge.line,
             "include of '" + edge.target + "' from layer '" + from_dir +
                 "' (rank " + std::to_string(from_it->second) +
                 ") reaches " +
                 (to_it->second == from_it->second ? "peer" : "upward") +
                 " layer '" + to_dir + "' (rank " +
                 std::to_string(to_it->second) +
                 "); dependencies must point strictly down the DAG"});
      }
    }
    check_cycles(model, out);
  }

 private:
  /// File-level cycle detection. Include targets are written relative to
  /// src/, so a target resolves to the scanned file sharing the includer's
  /// tree prefix (everything up to and including "src/") — fixture
  /// mini-trees stay separate from the real one.
  void check_cycles(const ProjectModel& model,
                    std::vector<Finding>& out) const {
    struct Edge {
      std::size_t to;
      std::size_t line;
    };
    std::vector<std::string> nodes;
    auto node_id = [&](const std::string& path) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == path) return i;
      }
      nodes.push_back(path);
      return nodes.size() - 1;
    };
    std::map<std::size_t, std::vector<Edge>> adj;
    std::set<std::string> known;
    for (const IncludeEdge& e : model.includes) known.insert(e.path);
    for (const IncludeEdge& e : model.includes) {
      if (!ProjectModel::in_src(e.path)) continue;
      const std::size_t src_pos = e.path.rfind("src/");
      const std::string resolved =
          e.path.substr(0, src_pos + 4) + e.target;
      if (known.count(resolved) == 0) continue;  // not scanned: no node
      adj[node_id(e.path)].push_back({node_id(resolved), e.line});
    }
    // Iterative DFS with colors; a back edge to a gray node is a cycle.
    enum : std::uint8_t { kWhite, kGray, kBlack };
    std::vector<std::uint8_t> color(nodes.size(), kWhite);
    std::vector<std::size_t> order(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return nodes[a] < nodes[b]; });
    for (const std::size_t root : order) {
      if (color[root] != kWhite) continue;
      std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, edge#
      stack.emplace_back(root, 0);
      color[root] = kGray;
      while (!stack.empty()) {
        auto& [node, next] = stack.back();
        const auto it = adj.find(node);
        if (it == adj.end() || next >= it->second.size()) {
          color[node] = kBlack;
          stack.pop_back();
          continue;
        }
        const Edge edge = it->second[next++];
        if (color[edge.to] == kGray) {
          // Reconstruct the cycle path for the message.
          std::string path;
          bool in_cycle = false;
          for (const auto& [n, unused] : stack) {
            if (n == edge.to) in_cycle = true;
            if (in_cycle) path += nodes[n] + " -> ";
          }
          path += nodes[edge.to];
          out.push_back({std::string(name()), nodes[node], edge.line,
                         "include cycle: " + path});
          continue;
        }
        if (color[edge.to] == kWhite) {
          color[edge.to] = kGray;
          stack.emplace_back(edge.to, 0);
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// checkpoint-field-coverage: every persisted-struct field must appear in
// each serialize/load/compare role.
// ---------------------------------------------------------------------------

struct RoleSpec {
  std::string_view role;
  std::vector<std::string_view> functions;
};

struct CoverageSpec {
  std::string_view struct_name;
  std::vector<RoleSpec> roles;
};

const std::vector<CoverageSpec>& coverage_specs() {
  static const std::vector<CoverageSpec> kSpecs = {
      {"EngineCheckpoint",
       {
           {"serialize", {"EngineCheckpoint::to_json"}},
           {"load", {"EngineCheckpoint::from_json", "parse_common"}},
           {"resume-compare", {"StreamEngine::resume"}},
       }},
      {"StoreManifest",
       {
           {"serialize", {"StoreManifest::to_text"}},
           {"load", {"StoreManifest::from_text"}},
           {"commit-compare",
            {"TraceStoreWriter::append", "TraceStoreWriter::Impl::commit"}},
       }},
  };
  return kSpecs;
}

class CheckpointFieldCoverageRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "checkpoint-field-coverage";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "every field of EngineCheckpoint/StoreManifest must be "
           "mentioned in the serialize, load, and resume/commit comparison "
           "code — catches \"added a field, forgot resume parity\"";
  }
  void check_project(const ProjectModel& model,
                     std::vector<Finding>& out) const override {
    for (const CoverageSpec& spec : coverage_specs()) {
      const std::vector<const StructField*> fields =
          model.fields_of(spec.struct_name);
      if (fields.empty()) continue;
      for (const RoleSpec& role : spec.roles) {
        std::vector<const FunctionBody*> bodies;
        for (const std::string_view fn : role.functions) {
          for (const FunctionBody* b : model.bodies_of(fn)) {
            bodies.push_back(b);
          }
        }
        // No scanned body plays this role (partial file list): stay inert
        // rather than flag every field of a file linted in isolation.
        if (bodies.empty()) continue;
        for (const StructField* field : fields) {
          bool mentioned = false;
          for (const FunctionBody* b : bodies) {
            if (lex::find_identifier(b->text, field->field) !=
                std::string_view::npos) {
              mentioned = true;
              break;
            }
          }
          if (!mentioned) {
            std::string fns;
            for (const std::string_view fn : role.functions) {
              if (!fns.empty()) fns += ", ";
              fns += fn;
            }
            out.push_back(
                {std::string(name()), field->path, field->line,
                 "field '" + std::string(spec.struct_name) +
                     "::" + field->field + "' is never mentioned in the " +
                     std::string(role.role) + " code (" + fns +
                     "); persisted state must round-trip through every "
                     "role or resumes diverge silently"});
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// commit-protocol-order: append/write < flush or sync < publication (an
// atomic replace, or append_manifest for the store's manifest log), and no
// observable side effect between a fault_fire and the operation it guards.
// ---------------------------------------------------------------------------

class CommitProtocolOrderRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "commit-protocol-order";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "in commit paths, writes/appends must precede the flush/sync, "
           "which must precede the atomic rename/manifest replace or the "
           "manifest-log append (append_manifest), and no state mutation "
           "may sit between a store.commit.*/store.compact.* fault_fire "
           "and the I/O it guards";
  }
  void check_project(const ProjectModel& model,
                     std::vector<Finding>& out) const override {
    check_order(model, out);
    check_fault_adjacency(model, out);
  }

 private:
  void check_order(const ProjectModel& model,
                   std::vector<Finding>& out) const {
    for (const FunctionBody& fn : model.functions) {
      const std::string& t = fn.text;
      // The durability barrier: a stream flush, or a DurableFile sync.
      const std::size_t flush = std::min(t.find(".flush("), t.find(".sync("));
      std::size_t atomic = t.find("write_file_atomic(");
      const std::size_t rename = lex::find_identifier(t, "rename");
      if (atomic == std::string::npos ||
          (rename != std::string::npos && rename < atomic)) {
        atomic = rename;
      }
      // The store's commit point: a record appended to the manifest log.
      const std::size_t record = t.find("append_manifest(");
      std::size_t write = t.find(".write(");
      const std::size_t append = t.find("append(");
      if (write == std::string::npos ||
          (append != std::string::npos && append < write)) {
        write = append;
      }
      if (record != std::string::npos &&
          (flush == std::string::npos || record < flush) &&
          write != std::string::npos && write < record) {
        out.push_back({std::string(name()), fn.path, fn.line,
                       "'" + fn.name +
                           "' appends the manifest record before syncing "
                           "the pages it vouches for; a power cut can "
                           "leave a durable record pointing at lost pages"});
        continue;
      }
      atomic = std::min(atomic, record);
      // Only functions that both flush and publish are commit paths;
      // everything else is ordinary I/O.
      if (flush == std::string::npos || atomic == std::string::npos) {
        continue;
      }
      if (write != std::string::npos && write > flush) {
        out.push_back({std::string(name()), fn.path, fn.line,
                       "'" + fn.name +
                           "' writes after flushing; the commit protocol "
                           "is append/write, then flush, then atomic "
                           "replace — later writes are not covered by the "
                           "durability barrier"});
      }
      if (atomic < flush) {
        out.push_back({std::string(name()), fn.path, fn.line,
                       "'" + fn.name +
                           "' atomically replaces before flushing; a crash "
                           "after the replace but before the flush can "
                           "publish a manifest pointing at unsynced data"});
      }
    }
  }

  void check_fault_adjacency(const ProjectModel& model,
                             std::vector<Finding>& out) const {
    static constexpr std::array<std::string_view, 8> kIoTokens = {
        ".write(",  ".flush(", "write_file_atomic(", "rename(",
        ".append(", ".sync(",  "append_manifest(",   "fault_fire",
    };
    static constexpr std::array<std::string_view, 9> kMutations = {
        "push_back",  "emplace_back", ".insert(", ".erase(", ".reset(",
        "+=",         "-=",           "++",       "--",
    };
    // Map each guarded fault site back to its file's blanked lines.
    for (const FaultSite& site : model.fault_sites) {
      const bool guarded = site.point.rfind("store.commit.", 0) == 0 ||
                           site.point.rfind("store.compact.", 0) == 0;
      if (!guarded) continue;
      const std::vector<std::string>* code = nullptr;
      for (const auto& [path, lines] : model.file_code) {
        if (path == site.path) {
          code = &lines;
          break;
        }
      }
      if (code == nullptr || site.line == 0) continue;
      // Scan from just after the fault_fire to the next I/O token; any
      // mutation in between is observable state the injected fault would
      // leave behind, breaking exactly-once crash recovery.
      const std::size_t limit = std::min(code->size(), site.line + 10);
      for (std::size_t i = site.line - 1; i < limit; ++i) {
        std::string_view line = (*code)[i];
        if (i == site.line - 1) {
          const std::size_t after = line.find("fault_fire");
          const std::size_t close =
              after == std::string_view::npos ? 0 : line.find(')', after);
          line = close == std::string_view::npos
                     ? std::string_view{}
                     : line.substr(close + 1);
        }
        std::size_t io_pos = std::string_view::npos;
        for (const std::string_view tok : kIoTokens) {
          const std::size_t p = line.find(tok);
          if (p != std::string_view::npos && p < io_pos) io_pos = p;
        }
        const std::string_view before =
            io_pos == std::string_view::npos ? line : line.substr(0, io_pos);
        for (const std::string_view mut : kMutations) {
          if (before.find(mut) != std::string_view::npos) {
            out.push_back(
                {std::string(name()), site.path, i + 1,
                 "state mutation ('" + std::string(mut) +
                     "') between fault_fire(\"" + site.point +
                     "\") and the I/O it guards; an injected fault here "
                     "leaves observable side effects behind"});
            break;
          }
        }
        if (io_pos != std::string_view::npos) break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// event-kind-exhaustiveness: every EventKind handled in each kind switch.
// ---------------------------------------------------------------------------

class EventKindExhaustivenessRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "event-kind-exhaustiveness";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "every switch over an event kind must handle all EventKind "
           "enumerators, or carry a default explicitly marked "
           "'mtd-lint: exhaustive-default' — silent drops of a new kind "
           "break conservation accounting";
  }
  [[nodiscard]] std::string escape_hatch() const override {
    return "// mtd-lint: exhaustive-default (on the default:), or "
           "// mtd-lint: allow(event-kind-exhaustiveness)";
  }
  void check_project(const ProjectModel& model,
                     std::vector<Finding>& out) const override {
    if (model.event_kinds.empty()) return;  // enum not scanned: inert
    for (const KindSwitch& sw : model.kind_switches) {
      if (sw.cases.empty()) continue;  // not an EventKind switch
      std::vector<std::string> missing;
      for (const std::string& kind : model.event_kinds) {
        if (sw.cases.count(kind) == 0) missing.push_back(kind);
      }
      if (missing.empty()) continue;
      bool marked_default = false;
      for (const bool marked : sw.default_marked) {
        marked_default = marked_default || marked;
      }
      if (marked_default) continue;
      std::string list;
      for (const std::string& kind : missing) {
        if (!list.empty()) list += ", ";
        list += "EventKind::" + kind;
      }
      const bool has_default = !sw.default_lines.empty();
      out.push_back(
          {std::string(name()), sw.path,
           has_default ? sw.default_lines.front() : sw.line,
           has_default
               ? "default swallows unhandled kinds (" + list +
                     "); handle them or mark the default with "
                     "'// mtd-lint: exhaustive-default'"
               : "switch over event kind does not handle " + list +
                     "; add the cases or a default marked "
                     "'// mtd-lint: exhaustive-default'"});
    }
  }
};

// ---------------------------------------------------------------------------
// lock-ordering: cycles in the lock-acquisition graph.
// ---------------------------------------------------------------------------

class LockOrderingRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lock-ordering";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "derives the lock-acquisition graph from MutexLock nesting and "
           "MTD_REQUIRES contracts and fails on cycles: two locks taken in "
           "both orders anywhere in the tree can deadlock";
  }
  void check_project(const ProjectModel& model,
                     std::vector<Finding>& out) const override {
    // For each acquisition edge held -> acquired, a path acquired => held
    // elsewhere closes a deadlock cycle. BFS over the distinct edge set.
    std::map<std::string, std::set<std::string>> adj;
    for (const LockEdge& e : model.lock_edges) {
      adj[e.held].insert(e.acquired);
    }
    std::set<std::pair<std::string, std::size_t>> reported;
    for (const LockEdge& e : model.lock_edges) {
      if (!reachable(adj, e.acquired, e.held)) continue;
      if (!reported.emplace(e.path, e.line).second) continue;
      out.push_back(
          {std::string(name()), e.path, e.line,
           "lock-ordering cycle: '" + e.acquired + "' is acquired here "
               "while '" + e.held + "' is held, but '" + e.held +
               "' is also acquired (directly or transitively) while '" +
               e.acquired + "' is held elsewhere; pick one global order"});
    }
  }

 private:
  static bool reachable(
      const std::map<std::string, std::set<std::string>>& adj,
      const std::string& from, const std::string& to) {
    std::set<std::string> seen;
    std::vector<const std::string*> queue = {&from};
    seen.insert(from);
    while (!queue.empty()) {
      const std::string* node = queue.back();
      queue.pop_back();
      if (*node == to) return true;
      const auto it = adj.find(*node);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (seen.insert(next).second) queue.push_back(&next);
      }
    }
    return false;
  }
};

}  // namespace

void register_cross_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<IncludeLayeringRule>());
  registry.add(std::make_unique<CheckpointFieldCoverageRule>());
  registry.add(std::make_unique<CommitProtocolOrderRule>());
  registry.add(std::make_unique<EventKindExhaustivenessRule>());
  registry.add(std::make_unique<LockOrderingRule>());
}

}  // namespace mtd::lint
