#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "verilog/token.h"

namespace noodle::lint {

using verilog::ExprKind;
using verilog::NetKind;
using verilog::PortDir;
using verilog::StmtKind;
using verilog::fast::AlwaysBlock;
using verilog::fast::ContAssign;
using verilog::fast::Expr;
using verilog::fast::Module;
using verilog::fast::SrcLoc;
using verilog::fast::Stmt;

namespace {

constexpr verilog::PunctId kPEq = verilog::punct_id_of("==");
constexpr verilog::PunctId kPPlus = verilog::punct_id_of("+");
constexpr verilog::PunctId kPMinus = verilog::punct_id_of("-");

constexpr std::array<RuleInfo, kRuleCount> kRules = {{
    {"W101", "undriven-net", Severity::Warning, false},
    {"W102", "multiply-driven-net", Severity::Error, false},
    {"W103", "unused-signal", Severity::Info, false},
    {"W104", "combinational-loop", Severity::Error, false},
    {"W105", "inferred-latch", Severity::Warning, false},
    {"W106", "case-without-default", Severity::Info, false},
    {"W107", "dead-always-block", Severity::Info, false},
    {"T201", "rare-trigger-comparator", Severity::Warning, true},
    {"T202", "free-running-counter", Severity::Warning, true},
    {"T203", "output-bypass", Severity::Warning, true},
    {"T204", "output-disable-gate", Severity::Warning, true},
}};

/// Width of a Number operand as the comparator rules see it: the declared
/// width when the literal was sized, the minimal binary width otherwise.
int effective_width(const Expr& number) {
  if (number.width > 0) return number.width;
  return std::max(1, static_cast<int>(std::bit_width(number.value)));
}

/// Reset-style name per the corpus conventions (matches the inserter's
/// is_reset_name, lowercased without allocating).
bool is_reset_like(std::string_view name) {
  auto equals_lower = [&](std::string_view want) {
    if (name.size() != want.size()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      char c = name[i];
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      if (c != want[i]) return false;
    }
    return true;
  };
  return equals_lower("rst") || equals_lower("reset") || equals_lower("rst_n") ||
         equals_lower("resetn") || equals_lower("arst");
}

bool expr_reads_sym(const Expr& e, util::Symbol sym) {
  if (e.kind == ExprKind::Identifier) return e.name == sym;
  for (const Expr* child : e.operands) {
    if (child && expr_reads_sym(*child, sym)) return true;
  }
  return false;
}

/// Every identifier read by `e` is reset-like (vacuously true for
/// constant-only expressions).
bool reads_only_reset_like(const Expr& e, const util::SymbolTable& symbols) {
  if (e.kind == ExprKind::Identifier) return is_reset_like(symbols.text(e.name));
  for (const Expr* child : e.operands) {
    if (child && !reads_only_reset_like(*child, symbols)) return false;
  }
  return true;
}

/// Any `<something> == <number>` comparison inside `e`.
bool contains_eq_const(const Expr& e) {
  if (e.kind == ExprKind::Binary && e.op == kPEq &&
      (e.operands[0]->kind == ExprKind::Number ||
       e.operands[1]->kind == ExprKind::Number)) {
    return true;
  }
  for (const Expr* child : e.operands) {
    if (child && contains_eq_const(*child)) return true;
  }
  return false;
}

/// `sym == <nonzero number>` (either operand order) inside `e`.
bool contains_eq_magic(const Expr& e, util::Symbol sym) {
  if (e.kind == ExprKind::Binary && e.op == kPEq) {
    const Expr& a = *e.operands[0];
    const Expr& b = *e.operands[1];
    if (a.kind == ExprKind::Identifier && a.name == sym && b.kind == ExprKind::Number &&
        b.value != 0) {
      return true;
    }
    if (b.kind == ExprKind::Identifier && b.name == sym && a.kind == ExprKind::Number &&
        a.value != 0) {
      return true;
    }
  }
  for (const Expr* child : e.operands) {
    if (child && contains_eq_magic(*child, sym)) return true;
  }
  return false;
}

bool stmt_reads_sym(const Stmt& s, util::Symbol sym) {
  if (s.cond && expr_reads_sym(*s.cond, sym)) return true;
  if (s.rhs && expr_reads_sym(*s.rhs, sym)) return true;
  // Index/range operands of the target are reads too.
  if (s.lhs && s.lhs->kind != ExprKind::Identifier && expr_reads_sym(*s.lhs, sym)) {
    return true;
  }
  if (s.then_branch && stmt_reads_sym(*s.then_branch, sym)) return true;
  if (s.else_branch && stmt_reads_sym(*s.else_branch, sym)) return true;
  for (const Stmt* child : s.body) {
    if (child && stmt_reads_sym(*child, sym)) return true;
  }
  for (const auto& item : s.case_items) {
    for (const Expr* label : item.labels) {
      if (label && expr_reads_sym(*label, sym)) return true;
    }
    if (item.body && stmt_reads_sym(*item.body, sym)) return true;
  }
  if (s.for_init && stmt_reads_sym(*s.for_init, sym)) return true;
  if (s.for_step && stmt_reads_sym(*s.for_step, sym)) return true;
  return false;
}

/// The assignment target's base signal(s) include `sym`.
bool lhs_base_matches(const Expr& lhs, util::Symbol sym) {
  switch (lhs.kind) {
    case ExprKind::Identifier:
      return lhs.name == sym;
    case ExprKind::Index:
    case ExprKind::Range:
      return lhs_base_matches(*lhs.operands[0], sym);
    case ExprKind::Concat:
      for (const Expr* part : lhs.operands) {
        if (part && lhs_base_matches(*part, sym)) return true;
      }
      return false;
    default:
      return false;
  }
}

/// Conservative "definitely assigned on every path" — the classic inferred-
/// latch completeness check (if needs both branches, case needs a default
/// plus every item; a for body is treated as executing).
bool definitely_assigned(const Stmt& s, util::Symbol sym) {
  switch (s.kind) {
    case StmtKind::Block:
      for (const Stmt* child : s.body) {
        if (child && definitely_assigned(*child, sym)) return true;
      }
      return false;
    case StmtKind::If:
      return s.else_branch != nullptr && s.then_branch != nullptr &&
             definitely_assigned(*s.then_branch, sym) &&
             definitely_assigned(*s.else_branch, sym);
    case StmtKind::Case: {
      bool has_default = false;
      for (const auto& item : s.case_items) {
        if (item.body == nullptr || !definitely_assigned(*item.body, sym)) return false;
        if (item.labels.empty()) has_default = true;
      }
      return has_default && !s.case_items.empty();
    }
    case StmtKind::For:
      return !s.body.empty() && s.body.front() != nullptr &&
             definitely_assigned(*s.body.front(), sym);
    case StmtKind::BlockingAssign:
    case StmtKind::NonBlockingAssign:
      return s.lhs != nullptr && lhs_base_matches(*s.lhs, sym);
    default:
      return false;
  }
}

}  // namespace

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "unknown";
}

const RuleInfo& rule_info(RuleId rule) noexcept {
  return kRules[static_cast<std::size_t>(rule)];
}

// ---------------------------------------------------------------------------
// LintWorkspace — state accumulation
// ---------------------------------------------------------------------------

LintWorkspace::SignalInfo& LintWorkspace::signal(util::Symbol name) {
  if (const std::uint32_t* idx = signal_index_.find(name)) return signals_[*idx];
  signal_index_.put(name, static_cast<std::uint32_t>(signals_.size()));
  SignalInfo info;
  info.name = name;
  signals_.push_back(info);
  return signals_.back();
}

LintWorkspace::SignalInfo* LintWorkspace::find_signal(util::Symbol name) {
  const std::uint32_t* idx = signal_index_.find(name);
  return idx == nullptr ? nullptr : &signals_[*idx];
}

void LintWorkspace::note_reads(const Expr& e) {
  if (e.kind == ExprKind::Identifier) {
    ++signal(e.name).reads;
    return;
  }
  for (const Expr* child : e.operands) {
    if (child) note_reads(*child);
  }
}

void LintWorkspace::note_lhs(const Expr& e, bool partial) {
  switch (e.kind) {
    case ExprKind::Identifier: {
      SignalInfo& info = signal(e.name);
      if (partial) {
        ++info.partial_drivers;
      } else {
        ++info.cont_drivers;
      }
      return;
    }
    case ExprKind::Index:
    case ExprKind::Range:
      note_lhs(*e.operands[0], /*partial=*/true);
      for (std::size_t i = 1; i < e.operands.size(); ++i) {
        if (e.operands[i]) note_reads(*e.operands[i]);
      }
      return;
    case ExprKind::Concat:
      for (const Expr* part : e.operands) {
        if (part) note_lhs(*part, /*partial=*/true);
      }
      return;
    default:
      return;  // malformed target; the parser rejects these upstream
  }
}

void LintWorkspace::emit(RuleId rule, util::Symbol subject, SrcLoc loc) {
  findings_.push_back(Finding{rule, module_->name, subject, loc.line, loc.column});
}

void LintWorkspace::walk_stmt(const Stmt& s, std::uint32_t block, bool in_initial) {
  switch (s.kind) {
    case StmtKind::Block:
      for (const Stmt* child : s.body) {
        if (child) walk_stmt(*child, block, in_initial);
      }
      return;
    case StmtKind::If:
      note_reads(*s.cond);
      cond_stack_.push_back(s.cond);
      if (s.then_branch) walk_stmt(*s.then_branch, block, in_initial);
      if (s.else_branch) walk_stmt(*s.else_branch, block, in_initial);
      cond_stack_.pop_back();
      return;
    case StmtKind::Case: {
      note_reads(*s.cond);
      bool has_default = false;
      cond_stack_.push_back(s.cond);
      for (const auto& item : s.case_items) {
        if (item.labels.empty()) has_default = true;
        for (const Expr* label : item.labels) {
          if (label) note_reads(*label);
        }
        if (item.body) walk_stmt(*item.body, block, in_initial);
      }
      cond_stack_.pop_back();
      if (!has_default && !in_initial) {
        emit(RuleId::CaseWithoutDefault, util::kNoSymbol, s.loc);
      }
      return;
    }
    case StmtKind::For:
      if (s.for_init) walk_stmt(*s.for_init, block, in_initial);
      note_reads(*s.cond);
      cond_stack_.push_back(s.cond);
      for (const Stmt* child : s.body) {
        if (child) walk_stmt(*child, block, in_initial);
      }
      if (s.for_step) walk_stmt(*s.for_step, block, in_initial);
      cond_stack_.pop_back();
      return;
    case StmtKind::BlockingAssign:
    case StmtKind::NonBlockingAssign: {
      note_reads(*s.rhs);
      if (s.lhs->kind != ExprKind::Identifier) {
        // Index/range/concat targets: selector operands are reads, and the
        // drive is partial.
        for (const Expr* part : s.lhs->operands) {
          if (part && part != s.lhs->operands[0]) note_reads(*part);
        }
      }
      const bool sequential =
          !in_initial && module_->always_blocks[block].is_sequential();
      // One ProcAssign per base target (concat lhs yields several).
      sym_scratch_.clear();
      struct Collect {
        static void bases(const Expr& lhs, bool partial,
                          std::vector<util::Symbol>& out, bool& any_partial) {
          switch (lhs.kind) {
            case ExprKind::Identifier:
              out.push_back(lhs.name);
              any_partial = any_partial || partial;
              return;
            case ExprKind::Index:
            case ExprKind::Range:
              bases(*lhs.operands[0], true, out, any_partial);
              return;
            case ExprKind::Concat:
              for (const Expr* part : lhs.operands) {
                if (part) bases(*part, true, out, any_partial);
              }
              return;
            default:
              return;
          }
        }
      };
      bool partial = false;
      Collect::bases(*s.lhs, false, sym_scratch_, partial);
      for (const util::Symbol target : sym_scratch_) {
        SignalInfo& info = signal(target);
        if (in_initial) {
          info.initial_assigned = true;
          continue;
        }
        if (sequential) {
          info.seq_assigned = true;
        } else {
          info.comb_assigned = true;
        }
        const auto signed_block = static_cast<std::int32_t>(block);
        if (info.proc_block == -1) {
          info.proc_block = signed_block;
        } else if (info.proc_block != signed_block) {
          info.proc_block = -2;
        }
        ProcAssign pa;
        pa.target = target;
        pa.rhs = s.rhs;
        pa.loc = s.loc;
        pa.block = block;
        pa.partial = partial || s.lhs->kind != ExprKind::Identifier;
        pa.cond_begin = static_cast<std::uint32_t>(cond_pool_.size());
        cond_pool_.insert(cond_pool_.end(), cond_stack_.begin(), cond_stack_.end());
        pa.cond_end = static_cast<std::uint32_t>(cond_pool_.size());
        proc_assigns_.push_back(pa);
      }
      if (!in_initial) ++block_assigns_[block];
      return;
    }
    default:
      return;
  }
}

void LintWorkspace::collect_declarations() {
  for (const auto& port : module_->ports) {
    SignalInfo& info = signal(port.name);
    switch (port.dir) {
      case PortDir::Input: info.dir = 1; break;
      case PortDir::Output: info.dir = 2; break;
      case PortDir::Inout: info.dir = 3; break;
    }
    info.is_reg = info.is_reg || port.net == NetKind::Reg;
    info.width = port.range ? port.range->width() : 1;
    if (info.decl_loc.line == 0) info.decl_loc = port.loc;
  }
  for (const auto& net : module_->nets) {
    SignalInfo& info = signal(net.name);
    info.is_reg = info.is_reg || net.kind == NetKind::Reg;
    if (info.dir == 0) {
      info.width =
          net.range ? net.range->width() : (net.kind == NetKind::Integer ? 32 : 1);
    }
    if (net.init != nullptr) {
      info.has_init = true;
      note_reads(*net.init);
    }
    if (info.decl_loc.line == 0) info.decl_loc = net.loc;
  }
}

void LintWorkspace::scan_module_items() {
  for (const auto& assign : module_->assigns) {
    note_lhs(*assign.lhs, /*partial=*/false);
    note_reads(*assign.rhs);
  }
  block_assigns_.assign(module_->always_blocks.size(), 0);
  for (std::size_t b = 0; b < module_->always_blocks.size(); ++b) {
    const AlwaysBlock& block = module_->always_blocks[b];
    for (const auto& item : block.sensitivity) ++signal(item.signal).reads;
    cond_stack_.clear();
    if (block.body) {
      walk_stmt(*block.body, static_cast<std::uint32_t>(b), /*in_initial=*/false);
    }
  }
  for (const auto& block : module_->initial_blocks) {
    cond_stack_.clear();
    if (block.body) walk_stmt(*block.body, 0, /*in_initial=*/true);
  }
  for (const auto& inst : module_->instances) {
    for (const auto& conn : inst.connections) {
      if (conn.actual == nullptr) continue;
      note_reads(*conn.actual);
      // Port directions of the child module are unknown here, so an actual
      // counts as both read and (potentially) driven.
      struct Mark {
        static void connected(LintWorkspace& ws, const Expr& e) {
          if (e.kind == ExprKind::Identifier) {
            ws.signal(e.name).instance_connected = true;
            return;
          }
          for (const Expr* child : e.operands) {
            if (child) connected(ws, *child);
          }
        }
      };
      Mark::connected(*this, *conn.actual);
    }
  }
}

// ---------------------------------------------------------------------------
// Structural rules
// ---------------------------------------------------------------------------

void LintWorkspace::rule_signal_accounting() {
  for (const SignalInfo& info : signals_) {
    const bool driven = info.cont_drivers > 0 || info.partial_drivers > 0 ||
                        info.proc_block != -1 || info.has_init ||
                        info.initial_assigned || info.instance_connected;
    if (info.dir == 0 && !driven && info.reads > 0) {
      emit(RuleId::UndrivenNet, info.name, info.decl_loc);
    }
    if (info.dir == 2 && !driven) {
      emit(RuleId::UndrivenNet, info.name, info.decl_loc);
    }
    const bool multi = info.cont_drivers >= 2 ||
                       (info.cont_drivers >= 1 && info.proc_block != -1) ||
                       info.proc_block == -2;
    if (multi && info.dir != 1) {
      emit(RuleId::MultiplyDrivenNet, info.name, info.decl_loc);
    }
    if (info.dir == 0 && info.reads == 0 && !info.instance_connected) {
      emit(RuleId::UnusedSignal, info.name, info.decl_loc);
    }
  }
}

void LintWorkspace::rule_combinational_loop() {
  const graph::NetGraph& g = *graph_;
  const std::size_t n = g.node_count();
  node_excluded_.assign(n, 0);
  for (std::size_t id = 0; id < n; ++id) {
    const graph::Node& node = g.node(id);
    if (node.type == graph::NodeType::Instance) {
      // Instance port edges are bidirectional (directions unknown), so any
      // instance would read as a trivial 2-cycle.
      node_excluded_[id] = 1;
      continue;
    }
    const bool signal_node =
        node.type == graph::NodeType::Wire || node.type == graph::NodeType::Reg ||
        node.type == graph::NodeType::Input || node.type == graph::NodeType::Output;
    if (!signal_node) continue;
    // Clocked registers legitimately close feedback paths.
    if (const SignalInfo* info = find_signal(node.label)) {
      if (info->seq_assigned) node_excluded_[id] = 1;
    }
  }
  constexpr std::uint32_t preferred =
      graph::type_mask(graph::NodeType::Wire) | graph::type_mask(graph::NodeType::Reg) |
      graph::type_mask(graph::NodeType::Output) |
      graph::type_mask(graph::NodeType::Input);
  const graph::NetGraph::NodeId hit =
      g.find_cycle_node(node_excluded_, preferred, graph_scratch_);
  if (hit == graph::NetGraph::kNoNode) return;
  const util::Symbol label = g.node(hit).label;
  SrcLoc loc = module_->loc;
  if (const SignalInfo* info = find_signal(label)) loc = info->decl_loc;
  emit(RuleId::CombinationalLoop, label, loc);
}

void LintWorkspace::rule_inferred_latch() {
  for (std::size_t b = 0; b < module_->always_blocks.size(); ++b) {
    const AlwaysBlock& block = module_->always_blocks[b];
    if (block.is_sequential() || block.body == nullptr) continue;
    sym_scratch_.clear();
    for (const ProcAssign& pa : proc_assigns_) {
      if (pa.block != b) continue;
      if (std::find(sym_scratch_.begin(), sym_scratch_.end(), pa.target) !=
          sym_scratch_.end()) {
        continue;
      }
      sym_scratch_.push_back(pa.target);
      if (!definitely_assigned(*block.body, pa.target)) {
        emit(RuleId::InferredLatch, pa.target, block.loc);
      }
    }
  }
}

void LintWorkspace::rule_dead_always() {
  for (std::size_t b = 0; b < module_->always_blocks.size(); ++b) {
    if (block_assigns_[b] == 0) {
      emit(RuleId::DeadAlwaysBlock, util::kNoSymbol, module_->always_blocks[b].loc);
    }
  }
}

// ---------------------------------------------------------------------------
// Trojan-signature rules
// ---------------------------------------------------------------------------

// T201: `assign t = <signals> == WIDE_NONZERO_CONST` (possibly nested under
// gating logic) where t is an internal scalar — the cheat-code / time-bomb
// activation shape. A comparator whose own result feeds back into the
// update of the compared signals is a terminating counter (UART baud tick),
// not a rare trigger, and is suppressed.
void LintWorkspace::rule_rare_trigger_comparator() {
  for (const auto& assign : module_->assigns) {
    if (assign.lhs->kind != ExprKind::Identifier) continue;
    const util::Symbol target = assign.lhs->name;
    const SignalInfo* target_info = find_signal(target);
    if (target_info == nullptr || target_info->dir != 0 || target_info->width != 1) {
      continue;
    }
    // Find a qualifying equality anywhere in the rhs.
    struct Search {
      LintWorkspace& ws;
      util::Symbol target;
      bool emitted = false;

      bool feedback(const Expr& subject) const {
        // Does any always block that updates a compared signal also read
        // the comparator result?
        for (const ProcAssign& pa : ws.proc_assigns_) {
          if (!expr_reads_sym(subject, pa.target)) continue;
          const Stmt* body = ws.module_->always_blocks[pa.block].body;
          if (body != nullptr && stmt_reads_sym(*body, target)) return true;
        }
        return false;
      }

      void visit(const Expr& e) {
        if (emitted) return;
        if (e.kind == ExprKind::Binary && e.op == kPEq) {
          const Expr* number = nullptr;
          const Expr* subject = nullptr;
          if (e.operands[0]->kind == ExprKind::Number) {
            number = e.operands[0];
            subject = e.operands[1];
          } else if (e.operands[1]->kind == ExprKind::Number) {
            number = e.operands[1];
            subject = e.operands[0];
          }
          if (number != nullptr && number->value != 0 &&
              effective_width(*number) >= 8 &&
              (subject->kind == ExprKind::Identifier ||
               subject->kind == ExprKind::Concat ||
               subject->kind == ExprKind::Index ||
               subject->kind == ExprKind::Range) &&
              !feedback(*subject)) {
            ws.emit(RuleId::RareTriggerComparator, target, e.loc);
            emitted = true;
            return;
          }
        }
        for (const Expr* child : e.operands) {
          if (child) visit(*child);
        }
      }
    };
    Search search{*this, target};
    search.visit(*assign.rhs);
  }
}

// T202: a wide register whose only updates are reset-to-constant and
// constant increments, where the increments run under at most reset
// conditions — it cannot be stopped from counting — and the register is
// compared against a nonzero magic constant. Watchdogs and phase timers
// escape because their reset arms read the counter (directly or through
// the comparison), and loadable counters have non-counting updates.
void LintWorkspace::rule_free_running_counter() {
  for (const SignalInfo& info : signals_) {
    if (!info.is_reg || info.width < 8 || info.proc_block < 0) continue;
    const auto block = static_cast<std::uint32_t>(info.proc_block);
    if (!module_->always_blocks[block].is_sequential()) continue;

    bool disqualified = false;
    bool has_increment = false;
    for (const ProcAssign& pa : proc_assigns_) {
      if (pa.target != info.name || pa.block != block) continue;
      if (pa.partial) {
        disqualified = true;
        break;
      }
      const Expr& rhs = *pa.rhs;
      if (rhs.kind == ExprKind::Number) {
        // Reset arm: must not be conditioned on the counter's own value
        // (a wrap/phase reset is a terminating counter, not a time bomb).
        for (std::uint32_t c = pa.cond_begin; c < pa.cond_end; ++c) {
          if (expr_reads_sym(*cond_pool_[c], info.name)) disqualified = true;
        }
      } else if (rhs.kind == ExprKind::Binary &&
                 (rhs.op == kPPlus || rhs.op == kPMinus) &&
                 rhs.operands[0]->kind == ExprKind::Identifier &&
                 rhs.operands[0]->name == info.name &&
                 rhs.operands[1]->kind == ExprKind::Number) {
        // Increment arm: free-running means nothing but reset gates it.
        has_increment = true;
        for (std::uint32_t c = pa.cond_begin; c < pa.cond_end; ++c) {
          if (!reads_only_reset_like(*cond_pool_[c], *symbols_)) disqualified = true;
        }
      } else {
        disqualified = true;  // loads, shifts, accumulate-by-signal, ...
      }
      if (disqualified) break;
    }
    if (disqualified || !has_increment) continue;

    // The time-bomb shape needs a magic comparison somewhere downstream.
    bool compared = false;
    for (const auto& assign : module_->assigns) {
      if (contains_eq_magic(*assign.rhs, info.name)) {
        compared = true;
        break;
      }
    }
    for (std::size_t c = 0; !compared && c < cond_pool_.size(); ++c) {
      compared = contains_eq_magic(*cond_pool_[c], info.name);
    }
    if (compared) emit(RuleId::FreeRunningCounter, info.name, info.decl_loc);
  }
}

// T203/T204: the payload tap `assign out = sel ? X : carrier` that every
// inserter payload ends with. Bypass (T203): one arm is a bare internal
// carrier and the other recomputes from it (corrupt/leak XOR). Disable
// gate (T204): one arm is a constant; to tell it from a benign error gate,
// the select must carry trigger evidence — an ==-const comparison or
// sequential state in its driver.
void LintWorkspace::rule_output_muxes() {
  for (const auto& assign : module_->assigns) {
    if (assign.lhs->kind != ExprKind::Identifier) continue;
    const SignalInfo* out_info = find_signal(assign.lhs->name);
    if (out_info == nullptr || out_info->dir != 2) continue;
    if (assign.rhs->kind != ExprKind::Ternary) continue;
    const Expr& sel = *assign.rhs->operands[0];
    const Expr& on_true = *assign.rhs->operands[1];
    const Expr& on_false = *assign.rhs->operands[2];
    if (sel.kind != ExprKind::Identifier) continue;
    const SignalInfo* sel_info = find_signal(sel.name);
    if (sel_info == nullptr || sel_info->dir != 0 || sel_info->width != 1) continue;

    auto internal_carrier = [&](const Expr& e) {
      if (e.kind != ExprKind::Identifier) return false;
      const SignalInfo* info = find_signal(e.name);
      return info != nullptr && info->dir == 0;
    };

    // T203: carrier on one arm, an expression over the carrier on the other.
    if (internal_carrier(on_false) && on_true.kind != ExprKind::Identifier &&
        expr_reads_sym(on_true, on_false.name)) {
      emit(RuleId::OutputBypass, sel.name, assign.loc);
      continue;
    }
    if (internal_carrier(on_true) && on_false.kind != ExprKind::Identifier &&
        expr_reads_sym(on_false, on_true.name)) {
      emit(RuleId::OutputBypass, sel.name, assign.loc);
      continue;
    }

    // T204: one constant arm, one bare internal signal arm.
    const bool disable_shape =
        (on_true.kind == ExprKind::Number && internal_carrier(on_false)) ||
        (on_false.kind == ExprKind::Number && internal_carrier(on_true));
    if (!disable_shape) continue;

    bool evidence = false;
    bool has_driver = false;
    for (const auto& driver : module_->assigns) {
      if (driver.lhs->kind != ExprKind::Identifier || driver.lhs->name != sel.name) {
        continue;
      }
      has_driver = true;
      if (contains_eq_const(*driver.rhs)) {
        evidence = true;
        break;
      }
      // Reads sequential state (an armed/fired trigger register)?
      struct RegRead {
        LintWorkspace& ws;
        bool found = false;
        void visit(const Expr& e) {
          if (found) return;
          if (e.kind == ExprKind::Identifier) {
            const SignalInfo* info = ws.find_signal(e.name);
            found = info != nullptr && info->is_reg;
            return;
          }
          for (const Expr* child : e.operands) {
            if (child) visit(*child);
          }
        }
      };
      RegRead reads{*this};
      reads.visit(*driver.rhs);
      if (reads.found) {
        evidence = true;
        break;
      }
    }
    if (!has_driver && sel_info->is_reg) evidence = true;
    if (evidence) emit(RuleId::OutputDisableGate, sel.name, assign.loc);
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::span<const Finding> LintWorkspace::run(const Module& module,
                                            const graph::NetGraph& graph,
                                            const util::SymbolTable& symbols) {
  if (retained_nodes_ > kMaxRetainedNodes) release_storage();
  retained_nodes_ = std::max(retained_nodes_, graph.node_count());
  module_ = &module;
  graph_ = &graph;
  symbols_ = &symbols;

  findings_.clear();
  signal_index_.clear();
  signals_.clear();
  proc_assigns_.clear();
  cond_pool_.clear();
  cond_stack_.clear();

  collect_declarations();
  scan_module_items();  // emits W106 inline
  rule_signal_accounting();
  rule_combinational_loop();
  rule_inferred_latch();
  rule_dead_always();
  rule_rare_trigger_comparator();
  rule_free_running_counter();
  rule_output_muxes();

  return {findings_.data(), findings_.size()};
}

void LintWorkspace::release_storage() {
  const auto release = [](auto& storage) {
    storage = std::remove_reference_t<decltype(storage)>();
  };
  release(findings_);
  release(signal_index_);
  release(signals_);
  release(proc_assigns_);
  release(cond_pool_);
  release(cond_stack_);
  release(block_assigns_);
  release(sym_scratch_);
  release(node_excluded_);
  release(graph_scratch_);
  retained_nodes_ = 0;
}

LintWorkspace& thread_workspace() {
  thread_local LintWorkspace workspace;
  return workspace;
}

OwnedFinding to_owned(const Finding& finding, const util::SymbolTable& symbols) {
  OwnedFinding owned;
  owned.rule = finding.rule;
  if (finding.module != util::kNoSymbol) {
    owned.module = std::string(symbols.text(finding.module));
  }
  if (finding.subject != util::kNoSymbol) {
    owned.subject = std::string(symbols.text(finding.subject));
  }
  owned.line = finding.line;
  owned.column = finding.column;
  switch (finding.rule) {
    case RuleId::UndrivenNet:
      owned.message = "net '" + owned.subject + "' is read but never driven";
      break;
    case RuleId::MultiplyDrivenNet:
      owned.message = "net '" + owned.subject + "' has multiple drivers";
      break;
    case RuleId::UnusedSignal:
      owned.message = "signal '" + owned.subject + "' is never read";
      break;
    case RuleId::CombinationalLoop:
      owned.message = "combinational feedback loop through '" + owned.subject + "'";
      break;
    case RuleId::InferredLatch:
      owned.message = "'" + owned.subject +
                      "' is not assigned on every path of a combinational block "
                      "(latch inferred)";
      break;
    case RuleId::CaseWithoutDefault:
      owned.message = "case statement has no default item";
      break;
    case RuleId::DeadAlwaysBlock:
      owned.message = "always block assigns no signals";
      break;
    case RuleId::RareTriggerComparator:
      owned.message = "wide equality against a rare constant drives internal net '" +
                      owned.subject + "'";
      break;
    case RuleId::FreeRunningCounter:
      owned.message = "free-running counter '" + owned.subject +
                      "' is compared against a magic constant (time-bomb shape)";
      break;
    case RuleId::OutputBypass:
      owned.message =
          "output mux selects between a carrier and a tampered copy of it "
          "(select '" +
          owned.subject + "')";
      break;
    case RuleId::OutputDisableGate:
      owned.message = "output forced to a constant under internal select '" +
                      owned.subject + "' (disable-gate shape)";
      break;
  }
  return owned;
}

std::uint64_t OwnedFindings::total() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t count : per_rule) sum += count;
  return sum;
}

OwnedFindings to_owned(std::span<const Finding> findings,
                       const util::SymbolTable& symbols) {
  OwnedFindings owned;
  owned.first.reserve(std::min(findings.size(), kMaxOwnedFindings));
  for (const Finding& finding : findings) {
    ++owned.per_rule[static_cast<std::size_t>(finding.rule)];
    if (owned.first.size() < kMaxOwnedFindings) {
      owned.first.push_back(to_owned(finding, symbols));
    }
  }
  return owned;
}

std::string format_finding(const OwnedFinding& finding) {
  const RuleInfo& info = rule_info(finding.rule);
  std::string line = info.code;
  line += ' ';
  line += info.slug;
  line += ' ';
  line += finding.module;
  if (!finding.subject.empty()) {
    line += '.';
    line += finding.subject;
  }
  line += ':';
  line += std::to_string(finding.line);
  line += ':';
  line += std::to_string(finding.column);
  line += ' ';
  line += '[';
  line += to_string(info.severity);
  line += "] ";
  line += finding.message;
  return line;
}

}  // namespace noodle::lint
