#include "feat/featurize.h"

namespace noodle::feat {

FeaturizeWorkspace::State::State(std::size_t max_retained_symbols)
    : parser(max_retained_symbols), graph(parser.symbols()) {}

FeaturizeWorkspace::FeaturizeWorkspace(std::size_t max_retained_symbols)
    : max_retained_symbols_(max_retained_symbols),
      state_(std::make_unique<State>(max_retained_symbols)) {}

void FeaturizeWorkspace::featurize(std::string_view verilog_source,
                                   std::vector<double>& graph_out,
                                   std::vector<double>& tabular_out) {
  // Checked before the parse, not after it: the last parse's module and
  // graph stay valid until this call, as documented.
  if (state_->parser.retained_bytes() > kMaxRetainedBytes) {
    module_ = nullptr;
    state_ = std::make_unique<State>(max_retained_symbols_);
  }
  State& state = *state_;
  const verilog::fast::Module& module = state.parser.parse_single(verilog_source);
  module_ = &module;
  graph::build_netgraph(module, state.graph, state.build);
  graph_out.resize(graph::kGraphFeatureDim);
  graph::graph_features(state.graph, graph_out, state.features);
  tabular_out.resize(kTabularFeatureDim);
  tabular_features(module, tabular_out, state.tabular);
}

FeaturizeWorkspace& thread_workspace() {
  thread_local FeaturizeWorkspace workspace;
  return workspace;
}

}  // namespace noodle::feat
