#pragma once
// Lowers a parsed Verilog module to its data-flow NetGraph.
//
// Lowering rules:
//  * one node per declared signal (Input/Output/Wire/Reg by declaration),
//  * one node per constant occurrence and per operator occurrence,
//  * `assign lhs = rhs`  =>  rhs-expression subgraph -> lhs signal node,
//  * procedural assignment  =>  rhs subgraph -> lhs, plus a control edge
//    from every enclosing if/case condition node (the implicit mux select),
//  * instances become Instance nodes wired between their actuals
//    (inputs feed the instance; the instance feeds outputs),
//  * edge-triggered blocks add an edge from the clock signal to each
//    assigned register, capturing the sequential skeleton.
//
// It reads the arena AST (fast_ast.h), the one tree analysis reads, and
// reuses the caller's graph and scratch, so it performs zero heap
// allocations in steady state.

#include "graph/netgraph.h"
#include "verilog/fast_ast.h"

namespace noodle::graph {

/// Reusable lowering state: the signal-name index (flat hash on symbol id)
/// and the enclosing-condition stack. Grow-only, one per thread.
struct BuildScratch {
  util::SymbolMap<NetGraph::NodeId> signals;
  std::vector<NetGraph::NodeId> conditions;
};

/// Builds the data-flow graph of one module: clears and rebuilds `graph` in
/// place. `graph` must share the symbol table of the ParserWorkspace that
/// produced `m` (a feat::FeaturizeWorkspace wires this up). Identifiers
/// that were never declared (outside the generated corpus this can happen
/// in hand-written files) get implicit Wire nodes rather than failing,
/// matching how synthesis treats undeclared nets.
void build_netgraph(const verilog::fast::Module& m, NetGraph& graph,
                    BuildScratch& scratch);

}  // namespace noodle::graph
