#pragma once
// Typed data-flow graph (DFG) lowered from a Verilog module — the graph
// modality of NOODLE, mirroring what hw2vec extracts from RTL. Nodes are
// signals, constants, and operator occurrences; directed edges follow data
// flow (operand -> operator -> assigned signal) plus control edges from
// branch conditions to the signals assigned under them.
//
// Node labels are interned symbols (util::SymbolTable) rather than owned
// strings: operator labels land on the fixed ids of the shared verilog
// vocabulary (verilog/symbols.h), so feature extraction classifies them
// with a table lookup, and a graph built inside a feat::FeaturizeWorkspace
// shares the workspace's intern pool. label(id) resolves the spelling for
// printers and debug output. clear() keeps all node/edge capacity, which is
// what makes a reused graph allocation-free in steady state.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "util/intern.h"

namespace noodle::graph {

enum class NodeType {
  Input,     // module input port
  Output,    // module output port
  Wire,      // internal wire
  Reg,       // internal register
  Const,     // literal constant occurrence
  Op,        // unary/binary operator occurrence (label = spelling)
  Mux,       // ternary / conditional
  Concat,    // concatenation / replication
  Select,    // bit/part select
  Instance,  // submodule instance
};

const char* to_string(NodeType type) noexcept;

/// Number of distinct NodeType values (histogram size).
inline constexpr std::size_t kNodeTypeCount = 10;

/// Bit for `type` in a NodeType bitmask (find_cycle_node's preference set).
constexpr std::uint32_t type_mask(NodeType type) noexcept {
  return 1u << static_cast<std::uint32_t>(type);
}

struct Node {
  NodeType type = NodeType::Wire;
  util::Symbol label = util::kNoSymbol;  // resolve via NetGraph::label()
  int width = 1;                         // bit width where known
};

/// Reusable scratch for the graph analyses (BFS frontiers, visit flags,
/// power-iteration vectors). Grow-only; one per thread, like the graphs it
/// serves.
struct AnalysisScratch {
  std::vector<std::uint8_t> seen;
  std::vector<std::size_t> queue;  // BFS ring buffer (head index, no pops)
  std::vector<std::size_t> dist;
  std::vector<double> vec_a;         // blocked-iteration block V (n x 4)
  std::vector<double> vec_b;         // blocked-iteration block A·V
  std::vector<double> sketch_small;  // norms / Gram / Cholesky small scratch
  // CSR image of the symmetrized adjacency A + Aᵀ, materialized once per
  // spectral_sketch call: row i concatenates successors(i) then
  // predecessors(i), so every SpMV is one contiguous sweep instead of a
  // scatter over out_'s vector-of-vectors. Column indices are u32 — the
  // SpMV gathers are bound on index traffic, and module-scale netlists are
  // nowhere near 2^32 nodes (enforced with a range check at build time).
  std::vector<std::size_t> csr_offsets;   // size n + 1
  std::vector<std::uint32_t> csr_adj;     // size 2 · edge_count
};

/// The calling thread's shared AnalysisScratch (created on first use,
/// reused for the thread's lifetime). Backs the allocating convenience
/// overloads of the graph analyses, so casual callers get the same
/// allocation-free steady state as the workspace-threaded hot path.
AnalysisScratch& thread_analysis_scratch() noexcept;

/// Directed multigraph with stable integer node ids.
class NetGraph {
 public:
  using NodeId = std::size_t;

  /// A fresh graph owning a new intern pool seeded with the verilog
  /// vocabulary (so operator labels get their fixed ids).
  NetGraph();

  /// A graph adopting an existing pool (e.g. a FeaturizeWorkspace's). The
  /// pool must already contain the verilog vocabulary at the fixed ids —
  /// ParserWorkspace and the default constructor both guarantee that.
  explicit NetGraph(std::shared_ptr<util::SymbolTable> symbols);

  NodeId add_node(NodeType type, util::Symbol label, int width = 1);
  /// Interns `label` into this graph's pool first.
  NodeId add_node(NodeType type, std::string_view label, int width = 1);

  /// Adds a directed edge src -> dst. Parallel edges are allowed (a signal
  /// can feed the same operator twice); self-loops are allowed (feedback
  /// registers). Throws std::out_of_range on invalid ids.
  void add_edge(NodeId src, NodeId dst);

  /// Removes all nodes and edges but keeps every capacity (adjacency lists
  /// included), so rebuilding a graph of similar size allocates nothing.
  /// The intern pool is untouched — symbols are stable for the pool's life.
  void clear() noexcept;

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  const Node& node(NodeId id) const { return nodes_.at(id); }
  /// The spelling behind a node's interned label.
  std::string_view label(NodeId id) const { return symbols_->text(nodes_.at(id).label); }
  const util::SymbolTable& symbols() const noexcept { return *symbols_; }
  util::SymbolTable& symbols() noexcept { return *symbols_; }
  const std::shared_ptr<util::SymbolTable>& symbols_handle() const noexcept {
    return symbols_;
  }

  const std::vector<NodeId>& successors(NodeId id) const {
    check_id(id);
    return out_[id];
  }
  const std::vector<NodeId>& predecessors(NodeId id) const {
    check_id(id);
    return in_[id];
  }

  std::size_t out_degree(NodeId id) const { return successors(id).size(); }
  std::size_t in_degree(NodeId id) const { return predecessors(id).size(); }

  /// All node ids of a given type.
  std::vector<NodeId> nodes_of_type(NodeType type) const;

  // --- analyses ---
  // Each analysis has a convenience form and a scratch-taking form; the
  // former delegates to the latter through thread_analysis_scratch(), so
  // results are identical by construction and BOTH forms are
  // allocation-free in steady state.

  /// Number of weakly connected components.
  std::size_t component_count() const;
  std::size_t component_count(AnalysisScratch& scratch) const;

  /// Longest shortest-path distance (in edges) from any Input node,
  /// following edge direction; a proxy for logic depth. 0 for graphs
  /// without inputs.
  std::size_t depth_from_inputs() const;
  std::size_t depth_from_inputs(AnalysisScratch& scratch) const;

  /// Histogram of node types, normalized to sum 1 (all zeros when empty).
  std::vector<double> type_histogram() const;
  /// In-place form: writes the histogram into `out` (size kNodeTypeCount).
  void type_histogram(std::span<double> out) const;

  /// Default pass budget for spectral_sketch. 24 blocked passes put the
  /// Ritz values ~30x closer to a dense eigensolve than the v1 deflated
  /// power iteration managed in 50 (asserted in tests/test_graph.cpp), so
  /// the budget buys strictly better estimates at under half the sweeps.
  static constexpr std::size_t kSpectralSketchIterations = 24;

  /// Largest eigenvalue magnitudes of the symmetrized adjacency A + Aᵀ — a
  /// cheap spectral signature of the topology. Computed by blocked subspace
  /// iteration over a CSR adjacency built once per call: one fused CSR pass
  /// per iteration drives a fixed 4-wide block, with periodic Cholesky-QR
  /// orthonormalization and a final Rayleigh-Ritz projection (v2 sketch,
  /// feat::kFeatureVersion 2). `iterations` is a cap: the loop exits early
  /// once every column-norm estimate is stationary to a relative 1e-13 for
  /// two consecutive passes (well-separated spectra exit within a handful
  /// of passes; near-degenerate ones run the full budget). The block is
  /// the whole subspace, so `count` may be at most 4; larger counts throw
  /// std::invalid_argument.
  std::vector<double> spectral_sketch(
      std::size_t count, std::size_t iterations = kSpectralSketchIterations) const;
  /// In-place form: writes `out.size()` (at most 4) eigenvalues.
  void spectral_sketch(std::span<double> out, std::size_t iterations,
                       AnalysisScratch& scratch) const;

  /// Sentinel for "no cycle" from find_cycle_node.
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  /// Searches for a directed cycle that avoids every node whose byte in
  /// `excluded` is nonzero (`excluded` may be empty or node_count() long)
  /// and returns one node on that cycle, preferring a node whose type bit
  /// is set in `preferred_types` (build the mask with type_mask). Returns
  /// kNoNode when the surviving subgraph is acyclic. Used by the lint layer
  /// to report combinational loops against a signal rather than an
  /// operator occurrence.
  NodeId find_cycle_node(std::span<const std::uint8_t> excluded,
                         std::uint32_t preferred_types) const;
  NodeId find_cycle_node(std::span<const std::uint8_t> excluded,
                         std::uint32_t preferred_types,
                         AnalysisScratch& scratch) const;

 private:
  void check_id(NodeId id) const;

  std::shared_ptr<util::SymbolTable> symbols_;
  std::vector<Node> nodes_;
  // Sized to the high-water node count; entries past nodes_.size() are kept
  // empty so clear() can preserve inner-vector capacity.
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::size_t edge_count_ = 0;
};

}  // namespace noodle::graph
