#pragma once
// feat::FeaturizeWorkspace — reusable scratch for the full featurization
// front end: RTL text -> tokens -> arena AST -> NetGraph -> graph + tabular
// feature vectors.
//
// The workspace owns every intermediate: the token buffer, the AST arena,
// the intern pool (shared with the NetGraph so labels need no translation),
// the graph itself, and all analysis scratch. Everything is grow-only, so
// after warm-up a featurize() call performs zero heap allocations — the
// same contract as nn::InferenceWorkspace on the inference side (and it is
// asserted the same way, by the counting-operator-new harness in
// tests/test_featurize_engine.cpp).
//
// Ownership rule: one workspace per thread, never shared. thread_workspace()
// hands out a thread-local instance for worker threads; outputs written
// through featurize() are plain vectors the caller owns, so they may cross
// threads freely.
//
// Feature values are pinned: tests/test_featurize_engine.cpp checks a
// digest of every value over the bundled corpus together with
// kFeatureVersion, and that a warm, reused workspace matches a cold one.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "feat/tabular.h"
#include "graph/builder.h"
#include "graph/features.h"
#include "graph/netgraph.h"
#include "verilog/parser.h"

namespace noodle::feat {

/// Version of the feature definition (graph + tabular vectors jointly).
/// Bumped whenever any feature changes numerically, even within tolerance,
/// so a snapshot fitted on one definition is never silently served against
/// another. History:
///   1 — seed definition (also any pre-versioning snapshot).
///   2 — PR 8: spectral sketch rebuilt as blocked subspace iteration with
///       a Rayleigh-Ritz projection over a CSR adjacency. The [31..33]
///       eigenvalue features shift versus v1 — by design: at the 24-pass
///       budget they track a dense eigensolve ~30x tighter than v1's
///       50-pass deflated power iteration (see tests/test_graph.cpp), so
///       models must be refit rather than served across the bump.
inline constexpr std::uint32_t kFeatureVersion = 2;

class FeaturizeWorkspace {
 public:
  /// Parser state (see verilog::ParserWorkspace::retained_bytes) past which
  /// the next featurize() drops every intermediate and starts from a fresh
  /// state. A corpus design stays far below it; one outsized request (a
  /// legal 1 MiB line) then costs its worker that memory for one request
  /// instead of for the thread's lifetime.
  static constexpr std::size_t kMaxRetainedBytes = std::size_t{1} << 20;

  /// `max_retained_symbols` bounds the intern pool across calls (see
  /// verilog::ParserWorkspace): when exceeded, the pool is reset and
  /// re-seeded before the next parse, so a worker featurizing arbitrarily
  /// diverse RTL holds bounded memory.
  explicit FeaturizeWorkspace(
      std::size_t max_retained_symbols =
          verilog::ParserWorkspace::kDefaultMaxRetainedSymbols);

  FeaturizeWorkspace(const FeaturizeWorkspace&) = delete;
  FeaturizeWorkspace& operator=(const FeaturizeWorkspace&) = delete;

  /// Featurizes one single-module Verilog source: resizes the outputs to
  /// graph::kGraphFeatureDim / kTabularFeatureDim and fills them. Reused
  /// output vectors make the steady state allocation-free. Throws
  /// LexError/ParseError on malformed input (workspace stays reusable).
  void featurize(std::string_view verilog_source, std::vector<double>& graph_out,
                 std::vector<double>& tabular_out);

  /// The graph built by the last featurize() call (valid until the next).
  const graph::NetGraph& last_graph() const noexcept { return state_->graph; }

  /// The arena module parsed by the last featurize() call, or nullptr if
  /// none yet. Arena-resident: valid until the next featurize(). Lets the
  /// lint layer reuse the parse the detector already paid for.
  const verilog::fast::Module* last_module() const noexcept { return module_; }

  /// Introspection for tests/benches.
  const verilog::ParserWorkspace& parser() const noexcept { return state_->parser; }

 private:
  /// Every grow-only intermediate, replaced as a whole when outsized.
  struct State {
    explicit State(std::size_t max_retained_symbols);
    verilog::ParserWorkspace parser;
    graph::NetGraph graph;  // shares parser's intern pool
    graph::BuildScratch build;
    graph::FeatureScratch features;
    TabularScratch tabular;
  };

  std::size_t max_retained_symbols_;
  std::unique_ptr<State> state_;
  const verilog::fast::Module* module_ = nullptr;  // arena-resident
};

/// The calling thread's workspace (created on first use, reused for the
/// thread's lifetime). This is how the batch scan path and the service
/// workers get their one-workspace-per-worker without plumbing.
FeaturizeWorkspace& thread_workspace();

}  // namespace noodle::feat
