#pragma once
// lint:: — a rule-based static-analysis engine over the arena AST and the
// NetGraph: the classical, explainable counterpart to the learned detector.
//
// Two rule families:
//  * structural hygiene (W1xx): undriven / multiply-driven nets, unused
//    signals, combinational loops, inferred latches, case-without-default,
//    dead always blocks — the findings any RTL lint would raise;
//  * trojan signatures (T2xx): heuristics keyed to trojan::TrojanInserter's
//    trigger/payload archetypes — wide rare-trigger equality comparators,
//    free-running counter time bombs, output-bypass muxes, and output
//    disable gates. bench_lint_matrix scores them against the full 3x3
//    trigger/payload grid and against the clean designgen corpus.
//
// The engine follows the PR 5 workspace discipline: LintWorkspace owns
// every intermediate, everything is grow-only, and a warm run() performs
// zero heap allocations (asserted by the counting-operator-new harness in
// tests/test_lint.cpp). One workspace per thread, never shared;
// thread_workspace() hands pool workers their instance. Findings returned
// by run() are workspace-resident views (symbols resolve against the
// producing parse's pool) valid until the next run(); to_owned()
// materializes a self-contained copy for reports and CLI output.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/netgraph.h"
#include "util/intern.h"
#include "verilog/fast_ast.h"

namespace noodle::lint {

enum class Severity : std::uint8_t { Info, Warning, Error };

const char* to_string(Severity severity) noexcept;

enum class RuleId : std::uint8_t {
  // Structural hygiene.
  UndrivenNet,         // W101: net read but never driven
  MultiplyDrivenNet,   // W102: conflicting continuous/procedural drivers
  UnusedSignal,        // W103: internal signal never read
  CombinationalLoop,   // W104: cycle through unclocked logic
  InferredLatch,       // W105: incomplete assignment in combinational block
  CaseWithoutDefault,  // W106: case statement with no default item
  DeadAlwaysBlock,     // W107: always block that assigns nothing
  // Trojan-signature heuristics (see DESIGN.md §7 for what each keys on).
  RareTriggerComparator,  // T201: wide ==-const feeding an internal scalar
  FreeRunningCounter,     // T202: unguarded counter compared to a magic value
  OutputBypass,           // T203: output mux between a carrier and a tap of it
  OutputDisableGate,      // T204: output mux forcing a constant
};

inline constexpr std::size_t kRuleCount = 11;

struct RuleInfo {
  const char* code;  ///< stable short id, e.g. "W103"
  const char* slug;  ///< kebab-case rule name, e.g. "unused-signal"
  Severity severity;
  bool trojan_signature;  ///< true for the T2xx family
};

/// Static metadata for a rule (never fails; RuleId is a closed enum).
const RuleInfo& rule_info(RuleId rule) noexcept;

/// Compact workspace-resident finding. `module`/`subject` are symbols in
/// the intern pool of the parse that produced the linted AST; resolve them
/// before the next parse/run invalidates that pool's non-vocabulary ids.
struct Finding {
  RuleId rule{};
  util::Symbol module = util::kNoSymbol;
  util::Symbol subject = util::kNoSymbol;  ///< offending signal, if any
  int line = 0;                            ///< 1-based, 0 = unknown
  int column = 0;
};

/// Self-contained finding carried on core::DetectionReport and printed by
/// the CLIs; safe to move across threads and outlive every workspace.
struct OwnedFinding {
  RuleId rule{};
  std::string module;
  std::string subject;
  int line = 0;
  int column = 0;
  std::string message;
};

OwnedFinding to_owned(const Finding& finding, const util::SymbolTable& symbols);

/// Most findings of one pass kept as OwnedFinding. The verdict line lists
/// 8; a legal 1 MiB line of 60 000 unused wires would otherwise pin 60 000
/// owned findings (about 12 MiB) in every cached verdict.
inline constexpr std::size_t kMaxOwnedFindings = 64;

/// One pass in owned form: its first kMaxOwnedFindings findings in run()
/// order, and every finding counted per rule (indexed by RuleId), so the
/// counts stay exact past the cap.
struct OwnedFindings {
  std::vector<OwnedFinding> first;
  std::array<std::uint64_t, kRuleCount> per_rule{};

  std::uint64_t total() const noexcept;
};

OwnedFindings to_owned(std::span<const Finding> findings,
                       const util::SymbolTable& symbols);

/// One-line rendering: "W105 inferred-latch mod.sig:12:3 <message>".
std::string format_finding(const OwnedFinding& finding);

/// Reusable analysis state for one lint pass: per-signal driver/read
/// accounting, the procedural-assignment table with enclosing-condition
/// chains, and the graph scratch for cycle detection. Grow-only below
/// kMaxRetainedNodes; after warm-up, run() touches the heap zero times.
class LintWorkspace {
 public:
  /// Graph size past which the next run() first frees every container,
  /// so one outsized module does not keep its storage resident for the
  /// thread's lifetime (the rule feat::FeaturizeWorkspace applies to the
  /// parse). A corpus design lowers to a few hundred nodes.
  static constexpr std::size_t kMaxRetainedNodes = std::size_t{1} << 14;

  LintWorkspace() = default;
  LintWorkspace(const LintWorkspace&) = delete;
  LintWorkspace& operator=(const LintWorkspace&) = delete;

  /// Lints one module. `graph` must be the NetGraph lowered from `module`
  /// and share `symbols` with it (a feat::FeaturizeWorkspace guarantees
  /// both). The returned span is valid until the next run().
  std::span<const Finding> run(const verilog::fast::Module& module,
                               const graph::NetGraph& graph,
                               const util::SymbolTable& symbols);

  /// Largest graph linted since the containers were last freed.
  std::size_t retained_nodes() const noexcept { return retained_nodes_; }

 private:
  /// Frees every container (clear() keeps their capacity).
  void release_storage();

  // Everything a rule needs to know about one declared signal.
  struct SignalInfo {
    util::Symbol name = util::kNoSymbol;
    std::uint8_t dir = 0;  // 0 internal, 1 input, 2 output, 3 inout
    bool is_reg = false;
    bool has_init = false;
    int width = 1;
    verilog::fast::SrcLoc decl_loc{};
    std::uint16_t cont_drivers = 0;     // whole-signal continuous assigns
    std::uint16_t partial_drivers = 0;  // bit/part-select or concat-member
    std::int32_t proc_block = -1;       // -1 none, -2 several, else block idx
    bool seq_assigned = false;
    bool comb_assigned = false;
    bool initial_assigned = false;
    std::uint32_t reads = 0;
    bool instance_connected = false;
  };

  // One procedural assignment with its enclosing-condition chain (a slice
  // of cond_pool_) — the flattened form every trojan rule matches against.
  struct ProcAssign {
    util::Symbol target = util::kNoSymbol;
    const verilog::fast::Expr* rhs = nullptr;
    verilog::fast::SrcLoc loc{};
    std::uint32_t block = 0;
    std::uint32_t cond_begin = 0;
    std::uint32_t cond_end = 0;
    bool partial = false;
  };

  SignalInfo& signal(util::Symbol name);
  SignalInfo* find_signal(util::Symbol name);
  void note_reads(const verilog::fast::Expr& e);
  void note_lhs(const verilog::fast::Expr& e, bool partial);
  void walk_stmt(const verilog::fast::Stmt& s, std::uint32_t block, bool in_initial);
  void emit(RuleId rule, util::Symbol subject, verilog::fast::SrcLoc loc);

  void collect_declarations();
  void scan_module_items();
  void rule_signal_accounting();   // W101/W102/W103
  void rule_combinational_loop();  // W104
  void rule_inferred_latch();      // W105
  void rule_dead_always();         // W107 (W106 fires during the walk)
  void rule_rare_trigger_comparator();  // T201
  void rule_free_running_counter();     // T202
  void rule_output_muxes();             // T203/T204

  const verilog::fast::Module* module_ = nullptr;
  const graph::NetGraph* graph_ = nullptr;
  const util::SymbolTable* symbols_ = nullptr;

  std::vector<Finding> findings_;
  util::SymbolMap<std::uint32_t> signal_index_;
  std::vector<SignalInfo> signals_;
  std::vector<ProcAssign> proc_assigns_;
  std::vector<const verilog::fast::Expr*> cond_pool_;
  std::vector<const verilog::fast::Expr*> cond_stack_;
  std::vector<std::uint32_t> block_assigns_;  // per-always assignment count
  std::vector<util::Symbol> sym_scratch_;
  std::vector<std::uint8_t> node_excluded_;
  graph::AnalysisScratch graph_scratch_;
  std::size_t retained_nodes_ = 0;
};

/// The calling thread's workspace (created on first use) — how scan paths
/// and the service workers honor one-workspace-per-worker without
/// plumbing, mirroring feat::thread_workspace().
LintWorkspace& thread_workspace();

}  // namespace noodle::lint
