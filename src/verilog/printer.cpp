#include "verilog/printer.h"

#include <sstream>

namespace noodle::verilog {

namespace {

int print_precedence(const Expr& e) {
  if (e.kind != ExprKind::Binary) return 100;
  const std::string& op = e.name;
  if (op == "||") return 1;
  if (op == "&&") return 2;
  if (op == "|") return 3;
  if (op == "^" || op == "~^" || op == "^~") return 4;
  if (op == "&") return 5;
  if (op == "==" || op == "!=" || op == "===" || op == "!==") return 6;
  if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
  if (op == "<<" || op == ">>" || op == "<<<" || op == ">>>") return 8;
  if (op == "+" || op == "-") return 9;
  return 10;
}

std::string print_child(const Expr& parent, const Expr& child, bool right_side) {
  const int pp = print_precedence(parent);
  const int cp = print_precedence(child);
  // Parenthesize when the child binds looser, or equally on the right side
  // (operators are left-associative).
  const bool parens =
      child.kind == ExprKind::Binary && (cp < pp || (cp == pp && right_side));
  const std::string text = print_expr(child);
  return parens ? "(" + text + ")" : text;
}

std::string indent_of(int depth) { return std::string(static_cast<std::size_t>(depth) * 2, ' '); }

std::string range_text(const std::optional<BitRange>& range) {
  if (!range) return "";
  std::string text = "[";
  text += std::to_string(range->msb);
  text += ':';
  text += std::to_string(range->lsb);
  text += "] ";
  return text;
}

const char* dir_text(PortDir dir) {
  switch (dir) {
    case PortDir::Input: return "input";
    case PortDir::Output: return "output";
    case PortDir::Inout: return "inout";
  }
  return "input";
}

}  // namespace

std::string print_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Number:
      if (e.width > 0) {
        // Hex for wide constants, decimal for narrow ones: matches the
        // corpus generator's style and keeps literals readable.
        std::ostringstream os;
        if (e.width > 4) {
          os << e.width << "'h" << std::hex << e.value;
        } else {
          os << e.width << "'d" << std::dec << e.value;
        }
        return os.str();
      }
      return std::to_string(e.value);
    case ExprKind::Identifier:
      return e.name;
    case ExprKind::Unary: {
      const Expr& operand = *e.operands[0];
      const bool parens = operand.kind == ExprKind::Binary ||
                          operand.kind == ExprKind::Ternary ||
                          operand.kind == ExprKind::Unary;
      const std::string text = print_expr(operand);
      return e.name + (parens ? "(" + text + ")" : text);
    }
    case ExprKind::Binary:
      return print_child(e, *e.operands[0], false) + " " + e.name + " " +
             print_child(e, *e.operands[1], true);
    case ExprKind::Ternary: {
      auto wrap = [](const Expr& x) {
        const std::string text = print_expr(x);
        return (x.kind == ExprKind::Ternary || x.kind == ExprKind::Binary)
                   ? "(" + text + ")"
                   : text;
      };
      return wrap(*e.operands[0]) + " ? " + wrap(*e.operands[1]) + " : " +
             wrap(*e.operands[2]);
    }
    case ExprKind::Index:
      return print_expr(*e.operands[0]) + "[" + print_expr(*e.operands[1]) + "]";
    case ExprKind::Range:
      return print_expr(*e.operands[0]) + "[" + print_expr(*e.operands[1]) + ":" +
             print_expr(*e.operands[2]) + "]";
    case ExprKind::Concat: {
      std::string out = "{";
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i != 0) out += ", ";
        out += print_expr(*e.operands[i]);
      }
      return out + "}";
    }
    case ExprKind::Replicate: {
      std::string out = "{";
      out += print_expr(*e.operands[0]);
      out += '{';
      out += print_expr(*e.operands[1]);
      out += "}}";
      return out;
    }
  }
  return "/*invalid*/0";
}

std::string print_stmt(const Stmt& s, int indent) {
  const std::string pad = indent_of(indent);
  std::ostringstream os;
  switch (s.kind) {
    case StmtKind::Block:
      os << pad << "begin\n";
      for (const auto& child : s.body) os << print_stmt(*child, indent + 1);
      os << pad << "end\n";
      break;
    case StmtKind::If:
      os << pad << "if (" << print_expr(*s.cond) << ")\n";
      os << print_stmt(*s.then_branch, indent + 1);
      if (s.else_branch) {
        os << pad << "else\n";
        os << print_stmt(*s.else_branch, indent + 1);
      }
      break;
    case StmtKind::Case:
      os << pad << "case (" << print_expr(*s.cond) << ")\n";
      for (const auto& item : s.case_items) {
        os << indent_of(indent + 1);
        if (item.labels.empty()) {
          os << "default:";
        } else {
          for (std::size_t i = 0; i < item.labels.size(); ++i) {
            if (i != 0) os << ", ";
            os << print_expr(*item.labels[i]);
          }
          os << ":";
        }
        os << "\n" << print_stmt(*item.body, indent + 2);
      }
      os << pad << "endcase\n";
      break;
    case StmtKind::For: {
      auto inline_assign = [](const Stmt& a) {
        const char* op = a.kind == StmtKind::NonBlockingAssign ? " <= " : " = ";
        return print_expr(*a.lhs) + op + print_expr(*a.rhs);
      };
      os << pad << "for (" << inline_assign(*s.for_init) << "; " << print_expr(*s.cond)
         << "; " << inline_assign(*s.for_step) << ")\n";
      os << print_stmt(*s.body[0], indent + 1);
      break;
    }
    case StmtKind::BlockingAssign:
      os << pad << print_expr(*s.lhs) << " = " << print_expr(*s.rhs) << ";\n";
      break;
    case StmtKind::NonBlockingAssign:
      os << pad << print_expr(*s.lhs) << " <= " << print_expr(*s.rhs) << ";\n";
      break;
    case StmtKind::Null:
      os << pad << ";\n";
      break;
  }
  return os.str();
}

std::string print_module(const Module& m) {
  std::ostringstream os;
  os << "module " << m.name;

  // Header parameters (non-local only).
  bool any_param = false;
  for (const auto& p : m.params) {
    if (!p.local) {
      any_param = true;
      break;
    }
  }
  if (any_param) {
    os << " #(\n";
    bool first = true;
    for (const auto& p : m.params) {
      if (p.local) continue;
      if (!first) os << ",\n";
      first = false;
      os << "  parameter " << p.name << " = " << print_expr(*p.value);
    }
    os << "\n)";
  }

  os << " (\n";
  for (std::size_t i = 0; i < m.ports.size(); ++i) {
    const PortDecl& port = m.ports[i];
    os << "  " << dir_text(port.dir);
    if (port.net == NetKind::Reg) os << " reg";
    os << " " << range_text(port.range) << port.name;
    if (i + 1 != m.ports.size()) os << ",";
    os << "\n";
  }
  os << ");\n";

  for (const auto& p : m.params) {
    if (p.local) os << "  localparam " << p.name << " = " << print_expr(*p.value) << ";\n";
  }

  for (const auto& net : m.nets) {
    // Reg ports were already declared in the ANSI header.
    bool is_port_reg = false;
    if (net.kind == NetKind::Reg) {
      if (const PortDecl* port = m.find_port(net.name)) {
        is_port_reg = port->net == NetKind::Reg;
      }
    }
    if (is_port_reg) continue;
    switch (net.kind) {
      case NetKind::Wire: os << "  wire "; break;
      case NetKind::Reg: os << "  reg "; break;
      case NetKind::Integer: os << "  integer "; break;
    }
    if (net.kind != NetKind::Integer) os << range_text(net.range);
    os << net.name;
    if (net.init) os << " = " << print_expr(*net.init);
    os << ";\n";
  }

  for (const auto& assign : m.assigns) {
    os << "  assign " << print_expr(*assign.lhs) << " = " << print_expr(*assign.rhs)
       << ";\n";
  }

  for (const auto& block : m.always_blocks) {
    os << "  always @(";
    if (block.star) {
      os << "*";
    } else {
      for (std::size_t i = 0; i < block.sensitivity.size(); ++i) {
        if (i != 0) os << " or ";
        const SensItem& item = block.sensitivity[i];
        if (item.edge == EdgeKind::Posedge) os << "posedge ";
        if (item.edge == EdgeKind::Negedge) os << "negedge ";
        os << item.signal;
      }
    }
    os << ")\n" << print_stmt(*block.body, 2);
  }

  for (const auto& block : m.initial_blocks) {
    os << "  initial\n" << print_stmt(*block.body, 2);
  }

  for (const auto& inst : m.instances) {
    os << "  " << inst.module_name << " " << inst.instance_name << " (\n";
    for (std::size_t i = 0; i < inst.connections.size(); ++i) {
      const PortConnection& conn = inst.connections[i];
      os << "    ";
      if (conn.port.empty()) {
        os << (conn.actual ? print_expr(*conn.actual) : "");
      } else {
        os << "." << conn.port << "(" << (conn.actual ? print_expr(*conn.actual) : "")
           << ")";
      }
      if (i + 1 != inst.connections.size()) os << ",";
      os << "\n";
    }
    os << "  );\n";
  }

  os << "endmodule\n";
  return os.str();
}

std::string print_source(const SourceFile& file) {
  std::string out;
  for (std::size_t i = 0; i < file.modules.size(); ++i) {
    if (i != 0) out += "\n";
    out += print_module(file.modules[i]);
  }
  return out;
}

}  // namespace noodle::verilog
