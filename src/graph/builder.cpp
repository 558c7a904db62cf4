#include "graph/builder.h"

#include <charconv>
#include <string_view>

#include "verilog/symbols.h"

namespace noodle::graph {

using verilog::EdgeKind;
using verilog::ExprKind;
using verilog::NetKind;
using verilog::PortDir;
using verilog::StmtKind;
namespace fast = verilog::fast;

namespace {

/// Lowers one arena module into a NetGraph. Identifiers are already
/// symbols of the graph's intern pool, and operator spellings are PunctIds
/// with fixed symbols, so no label is re-interned.
class Lowering {
 public:
  Lowering(const fast::Module& m, NetGraph& graph, BuildScratch& scratch)
      : module_(m), graph_(graph), scratch_(scratch), symbols_(graph.symbols()) {}

  void run() {
    declare_signals();
    for (const auto& net : module_.nets) {
      if (net.init) {
        const NetGraph::NodeId value = lower_expr(*net.init);
        graph_.add_edge(value, signal(net.name));
      }
    }
    for (const auto& assign : module_.assigns) {
      const NetGraph::NodeId value = lower_expr(*assign.rhs);
      graph_.add_edge(value, lhs_target(*assign.lhs));
    }
    for (const auto& block : module_.always_blocks) lower_always(block);
    for (const auto& inst : module_.instances) lower_instance(inst);
  }

 private:
  void declare_signals() {
    for (const auto& port : module_.ports) {
      NodeType type = NodeType::Wire;
      switch (port.dir) {
        case PortDir::Input: type = NodeType::Input; break;
        case PortDir::Output: type = NodeType::Output; break;
        case PortDir::Inout: type = NodeType::Wire; break;
      }
      const int width = port.range ? port.range->width() : 1;
      const util::Symbol name = port.name;
      scratch_.signals.put(name, graph_.add_node(type, name, width));
    }
    for (const auto& net : module_.nets) {
      const util::Symbol name = net.name;
      if (scratch_.signals.find(name) != nullptr) continue;  // output reg: port wins
      const NodeType type = net.kind == NetKind::Wire ? NodeType::Wire : NodeType::Reg;
      const int width = net.range ? net.range->width() : (net.kind == NetKind::Integer ? 32 : 1);
      scratch_.signals.put(name, graph_.add_node(type, name, width));
    }
  }

  NetGraph::NodeId signal(util::Symbol name) {
    if (const NetGraph::NodeId* id = scratch_.signals.find(name)) return *id;
    // Implicitly declared net (legal Verilog for scalar wires).
    const NetGraph::NodeId id = graph_.add_node(NodeType::Wire, name, 1);
    scratch_.signals.put(name, id);
    return id;
  }

  util::Symbol const_symbol(std::uint64_t value) {
    // Decimal spelling without a heap round trip; steady state interning
    // of an already-seen constant allocates nothing.
    char buffer[24];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return symbols_.intern(std::string_view(buffer, static_cast<std::size_t>(end - buffer)));
  }

  /// The signal node assigned by an lvalue expression (the base identifier
  /// of selects/concats; concat targets fan in to every member).
  NetGraph::NodeId lhs_target(const fast::Expr& lhs) {
    switch (lhs.kind) {
      case ExprKind::Identifier:
        return signal(lhs.name);
      case ExprKind::Index:
      case ExprKind::Range:
        return lhs_target(*lhs.operands[0]);
      case ExprKind::Concat: {
        // Represent a concat target as a Concat node feeding each member.
        const NetGraph::NodeId hub =
            graph_.add_node(NodeType::Concat, verilog::kSymLhsConcat);
        for (const auto& part : lhs.operands) {
          graph_.add_edge(hub, lhs_target(*part));
        }
        return hub;
      }
      default:
        return signal(verilog::kSymBadLhs);
    }
  }

  NetGraph::NodeId lower_expr(const fast::Expr& e) {
    switch (e.kind) {
      case ExprKind::Number:
        return graph_.add_node(NodeType::Const, const_symbol(e.value),
                               e.width > 0 ? e.width : 32);
      case ExprKind::Identifier:
        return signal(e.name);
      case ExprKind::Unary: {
        const NetGraph::NodeId op = graph_.add_node(NodeType::Op, verilog::punct_symbol(e.op));
        graph_.add_edge(lower_expr(*e.operands[0]), op);
        return op;
      }
      case ExprKind::Binary: {
        const NetGraph::NodeId op = graph_.add_node(NodeType::Op, verilog::punct_symbol(e.op));
        graph_.add_edge(lower_expr(*e.operands[0]), op);
        graph_.add_edge(lower_expr(*e.operands[1]), op);
        return op;
      }
      case ExprKind::Ternary: {
        const NetGraph::NodeId mux = graph_.add_node(NodeType::Mux, verilog::kSymTernaryMux);
        graph_.add_edge(lower_expr(*e.operands[0]), mux);
        graph_.add_edge(lower_expr(*e.operands[1]), mux);
        graph_.add_edge(lower_expr(*e.operands[2]), mux);
        return mux;
      }
      case ExprKind::Index:
      case ExprKind::Range: {
        const NetGraph::NodeId select = graph_.add_node(NodeType::Select, verilog::kSymSelect);
        graph_.add_edge(lower_expr(*e.operands[0]), select);
        // Dynamic indices contribute data flow; constant bounds do not.
        for (std::size_t i = 1; i < e.operands.size(); ++i) {
          if (e.operands[i]->kind != ExprKind::Number) {
            graph_.add_edge(lower_expr(*e.operands[i]), select);
          }
        }
        return select;
      }
      case ExprKind::Concat:
      case ExprKind::Replicate: {
        const NetGraph::NodeId concat = graph_.add_node(NodeType::Concat, verilog::kSymConcat);
        for (const auto& part : e.operands) {
          graph_.add_edge(lower_expr(*part), concat);
        }
        return concat;
      }
    }
    return signal(verilog::kSymBadExpr);
  }

  void lower_stmt(const fast::Stmt& s, util::Symbol clock) {
    switch (s.kind) {
      case StmtKind::Block:
        for (const auto& child : s.body) lower_stmt(*child, clock);
        break;
      case StmtKind::If: {
        const NetGraph::NodeId cond = lower_expr(*s.cond);
        scratch_.conditions.push_back(cond);
        lower_stmt(*s.then_branch, clock);
        if (s.else_branch) lower_stmt(*s.else_branch, clock);
        scratch_.conditions.pop_back();
        break;
      }
      case StmtKind::Case: {
        const NetGraph::NodeId subject = lower_expr(*s.cond);
        scratch_.conditions.push_back(subject);
        for (const auto& item : s.case_items) {
          if (item.body) lower_stmt(*item.body, clock);
        }
        scratch_.conditions.pop_back();
        break;
      }
      case StmtKind::For: {
        // Loop bounds are elaboration-time; only the body carries data flow.
        if (s.for_init) lower_stmt(*s.for_init, clock);
        if (s.for_step) lower_stmt(*s.for_step, clock);
        for (const auto& child : s.body) lower_stmt(*child, clock);
        break;
      }
      case StmtKind::BlockingAssign:
      case StmtKind::NonBlockingAssign: {
        const NetGraph::NodeId target = lhs_target(*s.lhs);
        graph_.add_edge(lower_expr(*s.rhs), target);
        for (const NetGraph::NodeId cond : scratch_.conditions) {
          graph_.add_edge(cond, target);  // control dependency (mux select)
        }
        if (clock != util::kNoSymbol) {
          graph_.add_edge(signal(clock), target);  // sequential skeleton
        }
        break;
      }
      case StmtKind::Null:
        break;
    }
  }

  void lower_always(const fast::AlwaysBlock& block) {
    if (!block.body) return;
    util::Symbol clock = util::kNoSymbol;
    for (const auto& item : block.sensitivity) {
      if (item.edge != EdgeKind::None) {
        clock = item.signal;
        break;
      }
    }
    scratch_.conditions.clear();
    lower_stmt(*block.body, clock);
  }

  void lower_instance(const fast::Instance& inst) {
    const NetGraph::NodeId node =
        graph_.add_node(NodeType::Instance, inst.module_name);
    // Without the instantiated module's interface, use the Trust-Hub
    // convention: connections are bidirectionally coupled through the
    // instance so the DFG stays connected.
    for (const auto& conn : inst.connections) {
      if (!conn.actual) continue;
      const NetGraph::NodeId actual = lower_expr(*conn.actual);
      graph_.add_edge(actual, node);
      graph_.add_edge(node, actual);
    }
  }

  const fast::Module& module_;
  NetGraph& graph_;
  BuildScratch& scratch_;
  util::SymbolTable& symbols_;
};

}  // namespace

void build_netgraph(const fast::Module& m, NetGraph& graph,
                    BuildScratch& scratch) {
  graph.clear();
  scratch.signals.clear();
  scratch.conditions.clear();
  Lowering(m, graph, scratch).run();
}

}  // namespace noodle::graph
