#include "feat/tabular.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace noodle::feat {

using verilog::EdgeKind;
using verilog::ExprKind;
using verilog::NetKind;
using verilog::PortDir;
using verilog::StmtKind;
namespace fast = verilog::fast;

namespace {

double lg(double x) { return std::log1p(std::max(0.0, x)); }

// ---------------------------------------------------------------------------
// Operator classification: spelling-level rules, compiled into tables
// indexed by the arena AST's PunctId.
// ---------------------------------------------------------------------------

constexpr bool is_eq_spelling(std::string_view op) {
  return op == "==" || op == "!=" || op == "===" || op == "!==";
}
constexpr bool is_rel_spelling(std::string_view op) {
  return op == "<" || op == "<=" || op == ">" || op == ">=";
}
constexpr bool is_xor_spelling(std::string_view op) {
  return op == "^" || op == "~^" || op == "^~";
}
constexpr bool is_reduction_spelling(std::string_view op) {
  return op == "&" || op == "|" || op == "^" || op == "~&" || op == "~|" || op == "~^";
}

template <bool (*Rule)(std::string_view)>
constexpr auto make_punct_table() {
  std::array<bool, verilog::kPunctSpellings.size() + 1> table{};
  for (std::size_t i = 0; i < verilog::kPunctSpellings.size(); ++i) {
    table[i + 1] = Rule(verilog::kPunctSpellings[i]);
  }
  return table;
}

constexpr auto kIsEqOp = make_punct_table<is_eq_spelling>();
constexpr auto kIsRelOp = make_punct_table<is_rel_spelling>();
constexpr auto kIsXorOp = make_punct_table<is_xor_spelling>();
constexpr auto kIsReductionOp = make_punct_table<is_reduction_spelling>();

// ---------------------------------------------------------------------------
// Traversal (no std::function: featurize must not allocate). Pre-order.
// ---------------------------------------------------------------------------

template <typename Fn>
void walk_expr(const fast::Expr& e, Fn&& fn) {
  fn(e);
  for (const auto& child : e.operands) {
    if (child) walk_expr(*child, fn);
  }
}

template <typename Fn>
void walk_stmt(const fast::Stmt& s, Fn&& fn) {
  fn(s);
  if (s.then_branch) walk_stmt(*s.then_branch, fn);
  if (s.else_branch) walk_stmt(*s.else_branch, fn);
  for (const auto& child : s.body) {
    if (child) walk_stmt(*child, fn);
  }
  for (const auto& item : s.case_items) {
    if (item.body) walk_stmt(*item.body, fn);
  }
  if (s.for_init) walk_stmt(*s.for_init, fn);
  if (s.for_step) walk_stmt(*s.for_step, fn);
}

template <typename Fn>
void walk_module_stmts(const fast::Module& m, Fn&& fn) {
  for (const auto& b : m.always_blocks) {
    if (b.body) walk_stmt(*b.body, fn);
  }
  for (const auto& b : m.initial_blocks) {
    if (b.body) walk_stmt(*b.body, fn);
  }
}

template <typename Fn>
void walk_module_exprs(const fast::Module& m, Fn&& fn) {
  const auto on_expr = [&fn](const fast::Expr& e) { walk_expr(e, fn); };
  for (const auto& p : m.params) {
    if (p.value) on_expr(*p.value);
  }
  for (const auto& n : m.nets) {
    if (n.init) on_expr(*n.init);
  }
  for (const auto& a : m.assigns) {
    if (a.lhs) on_expr(*a.lhs);
    if (a.rhs) on_expr(*a.rhs);
  }
  walk_module_stmts(m, [&](const fast::Stmt& s) {
    if (s.cond) on_expr(*s.cond);
    if (s.lhs) on_expr(*s.lhs);
    if (s.rhs) on_expr(*s.rhs);
    for (const auto& item : s.case_items) {
      for (const auto& label : item.labels) {
        if (label) on_expr(*label);
      }
    }
  });
  for (const auto& inst : m.instances) {
    for (const auto& conn : inst.connections) {
      if (conn.actual) on_expr(*conn.actual);
    }
  }
}

/// Maximum nesting depth of if/case statements under s.
int branch_depth(const fast::Stmt& s) {
  int child_max = 0;
  const auto consider = [&child_max](const fast::Stmt* child) {
    if (child) child_max = std::max(child_max, branch_depth(*child));
  };
  consider(s.then_branch);
  consider(s.else_branch);
  for (const auto& child : s.body) consider(child);
  for (const auto& item : s.case_items) consider(item.body);
  const bool is_branch = s.kind == StmtKind::If || s.kind == StmtKind::Case;
  return child_max + (is_branch ? 1 : 0);
}

struct Counters {
  double if_count = 0, case_count = 0, case_items = 0, for_count = 0;
  double blocking = 0, nonblocking = 0;
  double eq_ops = 0, eq_const_ops = 0, wide_eq_const = 0;
  double rel_ops = 0, xor_ops = 0, reduction_ops = 0, ternary = 0, concat = 0;
  double max_const_width = 0;
};

}  // namespace

void tabular_features(const fast::Module& m, std::span<double> out,
                      TabularScratch& scratch) {
  if (out.size() != kTabularFeatureDim) {
    throw std::invalid_argument("tabular_features: output size != kTabularFeatureDim");
  }
  Counters c;
  scratch.consts.clear();

  // Statement-level counts.
  walk_module_stmts(m, [&c](const fast::Stmt& s) {
    switch (s.kind) {
      case StmtKind::If: c.if_count += 1.0; break;
      case StmtKind::Case:
        c.case_count += 1.0;
        c.case_items += static_cast<double>(s.case_items.size());
        break;
      case StmtKind::For: c.for_count += 1.0; break;
      case StmtKind::BlockingAssign: c.blocking += 1.0; break;
      case StmtKind::NonBlockingAssign: c.nonblocking += 1.0; break;
      default: break;
    }
  });

  // Expression-level counts everywhere expressions occur.
  walk_module_exprs(m, [&c, &scratch](const fast::Expr& e) {
    switch (e.kind) {
      case ExprKind::Number:
        scratch.consts.push_back(e.value);
        c.max_const_width = std::max(c.max_const_width, static_cast<double>(e.width));
        break;
      case ExprKind::Binary: {
        if (kIsEqOp[e.op]) {
          c.eq_ops += 1.0;
          for (const auto& side : e.operands) {
            if (side->kind == ExprKind::Number) {
              c.eq_const_ops += 1.0;
              if (side->width >= 8) c.wide_eq_const += 1.0;
              break;
            }
          }
        } else if (kIsRelOp[e.op]) {
          c.rel_ops += 1.0;
        } else if (kIsXorOp[e.op]) {
          c.xor_ops += 1.0;
        }
        break;
      }
      case ExprKind::Unary:
        if (kIsReductionOp[e.op]) {
          c.reduction_ops += 1.0;
        }
        break;
      case ExprKind::Ternary: c.ternary += 1.0; break;
      case ExprKind::Concat:
      case ExprKind::Replicate: c.concat += 1.0; break;
      default: break;
    }
  });

  // Distinct constants without a node-based set: sort + unique on the
  // scratch pool (same count, no steady-state allocation).
  std::sort(scratch.consts.begin(), scratch.consts.end());
  const double distinct_consts = static_cast<double>(
      std::unique(scratch.consts.begin(), scratch.consts.end()) - scratch.consts.begin());

  // Interface / declaration shape.
  double inputs = 0, outputs = 0, input_bits = 0, output_bits = 0;
  for (const auto& port : m.ports) {
    const double width = port.range ? port.range->width() : 1;
    if (port.dir == PortDir::Input) {
      inputs += 1.0;
      input_bits += width;
    } else if (port.dir == PortDir::Output) {
      outputs += 1.0;
      output_bits += width;
    }
  }
  double wires = 0, regs = 0, reg_bits = 0, wide_regs = 0;
  for (const auto& net : m.nets) {
    const double width = net.range ? net.range->width() : 1;
    if (net.kind == NetKind::Wire) {
      wires += 1.0;
    } else if (net.kind == NetKind::Reg) {
      regs += 1.0;
      reg_bits += width;
      if (width >= 16) wide_regs += 1.0;
    }
  }

  double seq_always = 0, comb_always = 0, posedges = 0;
  double max_depth = 0;
  for (const auto& block : m.always_blocks) {
    if (block.is_sequential()) seq_always += 1.0;
    else comb_always += 1.0;
    for (const auto& item : block.sensitivity) {
      if (item.edge == EdgeKind::Posedge) posedges += 1.0;
    }
    if (block.body) max_depth = std::max(max_depth, static_cast<double>(branch_depth(*block.body)));
  }

  const double always_count = seq_always + comb_always;
  const double total_branches = c.if_count + c.case_count;
  const double total_assignments =
      c.blocking + c.nonblocking + static_cast<double>(m.assigns.size());

  std::size_t next = 0;
  const auto push = [&out, &next](double value) { out[next++] = value; };
  // Interface (0..5)
  push(inputs);
  push(outputs);
  push(lg(input_bits));
  push(lg(output_bits));
  push(lg(wires));
  push(lg(regs));
  // Storage (6..8)
  push(lg(reg_bits));
  push(wide_regs);
  push(static_cast<double>(m.params.size()));
  // Processes (9..13)
  push(seq_always);
  push(comb_always);
  push(posedges);
  push(static_cast<double>(m.initial_blocks.size()));
  push(static_cast<double>(m.instances.size()));
  // Assignments (14..17)
  push(lg(static_cast<double>(m.assigns.size())));
  push(lg(c.blocking));
  push(lg(c.nonblocking));
  push(lg(total_assignments));
  // Branching shape (18..24)
  push(c.if_count);
  push(c.case_count);
  push(lg(c.case_items));
  push(c.for_count);
  push(max_depth);
  push(always_count == 0 ? 0.0 : total_branches / always_count);
  push(total_assignments == 0 ? 0.0 : total_branches / total_assignments);
  // Comparators / operators (25..30)
  push(c.eq_ops);
  push(c.eq_const_ops);
  push(c.wide_eq_const);
  push(c.rel_ops);
  push(c.xor_ops + c.reduction_ops);
  push(c.ternary);
  // Constants (31)
  push(lg(distinct_consts));

  if (next != kTabularFeatureDim) {
    throw std::logic_error("tabular_features: dimension drift");
  }
}

const std::vector<std::string>& tabular_feature_names() {
  static const std::vector<std::string> names = {
      "inputs",            "outputs",          "log_input_bits",
      "log_output_bits",   "log_wires",        "log_regs",
      "log_reg_bits",      "wide_regs",        "params",
      "seq_always",        "comb_always",      "posedges",
      "initial_blocks",    "instances",        "log_assigns",
      "log_blocking",      "log_nonblocking",  "log_total_assigns",
      "if_count",          "case_count",       "log_case_items",
      "for_count",         "max_branch_depth", "branches_per_always",
      "branch_assign_ratio", "eq_ops",         "eq_const_ops",
      "wide_eq_const",     "rel_ops",          "xor_reduction_ops",
      "ternary_ops",       "log_distinct_consts",
  };
  return names;
}

}  // namespace noodle::feat
