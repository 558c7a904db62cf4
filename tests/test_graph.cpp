#include "graph/builder.h"
#include "graph/features.h"
#include "graph/netgraph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "data/designgen.h"
#include "verilog/parser.h"

namespace noodle::graph {
namespace {

/// Lowers a single-module source through the arena parse, as featurize
/// does. The graph keeps the parser's symbol table alive.
NetGraph lower(std::string_view source) {
  verilog::ParserWorkspace parser;
  NetGraph graph(parser.symbols());
  BuildScratch scratch;
  build_netgraph(parser.parse_single(source), graph, scratch);
  return graph;
}

TEST(NetGraph, AddNodesAndEdges) {
  NetGraph g;
  const auto a = g.add_node(NodeType::Input, "a");
  const auto b = g.add_node(NodeType::Wire, "b");
  g.add_edge(a, b);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
  EXPECT_EQ(g.successors(a).front(), b);
  EXPECT_EQ(g.predecessors(b).front(), a);
}

TEST(NetGraph, ParallelEdgesAndSelfLoopsAllowed) {
  NetGraph g;
  const auto a = g.add_node(NodeType::Reg, "a");
  g.add_edge(a, a);
  g.add_edge(a, a);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(a), 2u);
}

TEST(NetGraph, EdgeToInvalidNodeThrows) {
  NetGraph g;
  const auto a = g.add_node(NodeType::Wire, "a");
  EXPECT_THROW(g.add_edge(a, a + 1), std::out_of_range);
}

TEST(NetGraph, ComponentCount) {
  NetGraph g;
  const auto a = g.add_node(NodeType::Wire, "a");
  const auto b = g.add_node(NodeType::Wire, "b");
  g.add_node(NodeType::Wire, "c");  // isolated
  g.add_edge(a, b);
  EXPECT_EQ(g.component_count(), 2u);
  EXPECT_EQ(NetGraph{}.component_count(), 0u);
}

TEST(NetGraph, DepthFromInputs) {
  NetGraph g;
  const auto in = g.add_node(NodeType::Input, "in");
  const auto mid = g.add_node(NodeType::Op, "+");
  const auto out = g.add_node(NodeType::Output, "out");
  g.add_edge(in, mid);
  g.add_edge(mid, out);
  EXPECT_EQ(g.depth_from_inputs(), 2u);
}

TEST(NetGraph, DepthZeroWithoutInputs) {
  NetGraph g;
  const auto a = g.add_node(NodeType::Wire, "a");
  const auto b = g.add_node(NodeType::Wire, "b");
  g.add_edge(a, b);
  EXPECT_EQ(g.depth_from_inputs(), 0u);
}

TEST(NetGraph, TypeHistogramNormalized) {
  NetGraph g;
  g.add_node(NodeType::Input, "a");
  g.add_node(NodeType::Input, "b");
  g.add_node(NodeType::Output, "y");
  g.add_node(NodeType::Op, "+");
  const auto hist = g.type_histogram();
  ASSERT_EQ(hist.size(), kNodeTypeCount);
  EXPECT_DOUBLE_EQ(hist[static_cast<std::size_t>(NodeType::Input)], 0.5);
  double total = 0.0;
  for (const double h : hist) total += h;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(NetGraph, SpectralSketchKnownGraph) {
  // Complete bipartite-ish star: center connected to 4 leaves. Symmetrized
  // adjacency of a star K_{1,4} has top eigenvalue 2*sqrt(4)=4 (edges count
  // twice because add_edge adds both directions to the symmetrized matrix).
  NetGraph g;
  const auto center = g.add_node(NodeType::Wire, "c");
  for (int i = 0; i < 4; ++i) {
    const auto leaf = g.add_node(NodeType::Wire, "l");
    g.add_edge(center, leaf);
  }
  const auto spectrum = g.spectral_sketch(2, 200);
  ASSERT_EQ(spectrum.size(), 2u);
  EXPECT_NEAR(spectrum[0], 2.0, 0.05);  // star adjacency eigenvalue sqrt(n)=2
  EXPECT_GE(spectrum[0], spectrum[1] - 1e-9);
}

TEST(NetGraph, SpectralSketchEmptyGraph) {
  const auto spectrum = NetGraph{}.spectral_sketch(3);
  ASSERT_EQ(spectrum.size(), 3u);
  for (const double v : spectrum) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

TEST(Builder, SimpleAssignDataflow) {
  const NetGraph g = lower(
      "module t (input a, input b, output y);\n  assign y = a & b;\nendmodule");
  // Nodes: a, b, y, '&' op.
  EXPECT_EQ(g.node_count(), 4u);
  const auto ops = g.nodes_of_type(NodeType::Op);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(g.in_degree(ops[0]), 2u);
  EXPECT_EQ(g.out_degree(ops[0]), 1u);
}

TEST(Builder, PortTypesMapped) {
  const NetGraph g = lower(
      "module t (input [3:0] a, output y);\n  reg [7:0] r;\n  wire w;\nendmodule");
  EXPECT_EQ(g.nodes_of_type(NodeType::Input).size(), 1u);
  EXPECT_EQ(g.nodes_of_type(NodeType::Output).size(), 1u);
  EXPECT_EQ(g.nodes_of_type(NodeType::Reg).size(), 1u);
  EXPECT_EQ(g.nodes_of_type(NodeType::Wire).size(), 1u);
  // Widths preserved on signal nodes.
  const auto inputs = g.nodes_of_type(NodeType::Input);
  EXPECT_EQ(g.node(inputs[0]).width, 4);
}

TEST(Builder, TernaryBecomesMux) {
  const NetGraph g = lower(
      "module t (input s, input a, input b, output y);\n"
      "  assign y = s ? a : b;\nendmodule");
  const auto muxes = g.nodes_of_type(NodeType::Mux);
  ASSERT_EQ(muxes.size(), 1u);
  EXPECT_EQ(g.in_degree(muxes[0]), 3u);
}

TEST(Builder, ControlDependenciesFromIf) {
  const NetGraph g = lower(
      "module t (input clk, input c, input d, output reg q);\n"
      "  always @(posedge clk)\n"
      "    if (c)\n      q <= d;\n"
      "endmodule");
  // q receives edges from: d (data), c (control), clk (sequential skeleton).
  const auto outputs = g.nodes_of_type(NodeType::Output);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(g.in_degree(outputs[0]), 3u);
}

TEST(Builder, SequentialFeedbackSelfLoop) {
  const NetGraph g = lower(
      "module t (input clk, output reg [3:0] q);\n"
      "  always @(posedge clk) q <= q + 4'd1;\nendmodule");
  // q feeds the adder, which feeds q: a cycle through the op node exists.
  const auto ops = g.nodes_of_type(NodeType::Op);
  ASSERT_EQ(ops.size(), 1u);
  const auto outputs = g.nodes_of_type(NodeType::Output);
  bool q_feeds_add = false;
  for (const auto succ : g.successors(outputs[0])) {
    if (succ == ops[0]) q_feeds_add = true;
  }
  EXPECT_TRUE(q_feeds_add);
}

TEST(Builder, InstanceNodeBidirectional) {
  const NetGraph g = lower(
      "module t (input x, output z);\n  leaf u0 (.a(x), .y(z));\nendmodule");
  const auto instances = g.nodes_of_type(NodeType::Instance);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(g.in_degree(instances[0]), 2u);
  EXPECT_EQ(g.out_degree(instances[0]), 2u);
}

TEST(Builder, ConstantsBecomeConstNodes) {
  const NetGraph g = lower(
      "module t (input [7:0] a, output y);\n  assign y = a == 8'hAB;\nendmodule");
  const auto consts = g.nodes_of_type(NodeType::Const);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(g.node(consts[0]).width, 8);
}

TEST(Builder, UndeclaredIdentifierGetsImplicitWire) {
  EXPECT_NO_THROW(lower(
      "module t (output y);\n  assign y = mystery;\nendmodule"));
}

// ---------------------------------------------------------------------------
// Features
// ---------------------------------------------------------------------------

TEST(GraphFeatures, DimensionAndNames) {
  EXPECT_EQ(graph_feature_names().size(), kGraphFeatureDim);
  std::set<std::string> unique(graph_feature_names().begin(),
                               graph_feature_names().end());
  EXPECT_EQ(unique.size(), kGraphFeatureDim);
}

TEST(GraphFeatures, EmptyGraphIsFiniteZeroish) {
  const auto f = graph_features(NetGraph{});
  ASSERT_EQ(f.size(), kGraphFeatureDim);
  for (const double v : f) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GraphFeatures, DeterministicForSameModule) {
  util::Rng rng_a(4), rng_b(4);
  const auto src_a = data::generate_design(data::DesignFamily::Crc, "d", rng_a);
  const auto src_b = data::generate_design(data::DesignFamily::Crc, "d", rng_b);
  const auto fa = graph_features(lower(src_a));
  const auto fb = graph_features(lower(src_b));
  EXPECT_EQ(fa, fb);
}

TEST(GraphFeatures, HistogramEntriesSumToOne) {
  util::Rng rng(5);
  const auto src = data::generate_design(data::DesignFamily::Alu, "d", rng);
  const auto f = graph_features(lower(src));
  double type_sum = 0.0;
  for (std::size_t i = 0; i < kNodeTypeCount; ++i) type_sum += f[i];
  EXPECT_NEAR(type_sum, 1.0, 1e-9);
}

TEST(GraphFeatures, AllFamiliesProduceFiniteFeatures) {
  for (const auto family : data::all_design_families()) {
    util::Rng rng(11);
    const auto src = data::generate_design(family, "d", rng);
    const auto f = graph_features(lower(src));
    for (const double v : f) {
      EXPECT_TRUE(std::isfinite(v)) << data::to_string(family);
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked spectral sketch vs dense ground truth (feature version 2)
// ---------------------------------------------------------------------------

/// The feature-version-1 sketch, verbatim: deflated power iteration that
/// scatters over the out-adjacency edge by edge, zero-fills w every
/// iteration, and always runs the full iteration budget. The v2 blocked
/// subspace iteration replaces it outright, so this reference exists to
/// QUANTIFY the change rather than to match it: the fixture below measures
/// both implementations against a dense eigensolve and asserts the v2
/// values are far closer to the true spectrum — which is what justifies
/// bumping feat::kFeatureVersion instead of claiming any identity.
std::vector<double> pre_csr_spectral_sketch(const NetGraph& g, std::size_t count,
                                            std::size_t iterations) {
  const std::size_t n = g.node_count();
  std::vector<double> out(count, 0.0);
  if (n == 0 || count == 0) return out;
  std::vector<std::vector<double>> basis(count);
  std::vector<double> v, w;
  for (std::size_t k = 0; k < count; ++k) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = 1.0 + 0.1 * static_cast<double>((i + k + 1) % 7);
    }
    double eigenvalue = 0.0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      for (std::size_t f = 0; f < k; ++f) {
        const std::vector<double>& u = basis[f];
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += v[i] * u[i];
        for (std::size_t i = 0; i < n; ++i) v[i] -= dot * u[i];
      }
      w.assign(n, 0.0);
      for (NetGraph::NodeId src = 0; src < n; ++src) {
        for (const NetGraph::NodeId dst : g.successors(src)) {
          w[dst] += v[src];
          w[src] += v[dst];
        }
      }
      double norm = 0.0;
      for (const double x : w) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-12) {
        eigenvalue = 0.0;
        v.assign(n, 0.0);
        break;
      }
      eigenvalue = norm;
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
    }
    out[k] = eigenvalue;
    basis[k] = v;
  }
  return out;
}

/// Dense cyclic-Jacobi eigensolve of the symmetrized adjacency — the
/// ground truth the sketches estimate. O(n³) per sweep, test-only.
std::vector<double> dense_spectrum_magnitudes(const NetGraph& g, std::size_t count) {
  const std::size_t n = g.node_count();
  std::vector<double> a(n * n, 0.0);
  for (NetGraph::NodeId i = 0; i < n; ++i) {
    for (const NetGraph::NodeId d : g.successors(i)) {
      a[i * n + d] += 1.0;
      a[d * n + i] += 1.0;
    }
  }
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += a[p * n + q] * a[p * n + q];
    }
    if (off < 1e-22) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::abs(apq) < 1e-18) continue;
        const double tau = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
        const double t =
            (tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t i = 0; i < n; ++i) {
          const double aip = a[i * n + p];
          const double aiq = a[i * n + q];
          a[i * n + p] = c * aip - s * aiq;
          a[i * n + q] = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = a[p * n + i];
          const double aqi = a[q * n + i];
          a[p * n + i] = c * api - s * aqi;
          a[q * n + i] = s * api + c * aqi;
        }
      }
    }
  }
  std::vector<double> mags(n);
  for (std::size_t i = 0; i < n; ++i) mags[i] = std::abs(a[i * n + i]);
  std::sort(mags.rbegin(), mags.rend());
  mags.resize(count, 0.0);
  return mags;
}

TEST(SpectralSketch, TracksDenseSpectrumFarTighterThanV1OnGeneratedCorpus) {
  // Every design family at several seeds — the same generator the training
  // corpus uses, so this is the population the version bump must be judged
  // on. The v2 blocked sketch at its default 24-pass budget must beat the
  // v1 deflated power iteration at 50 passes against dense ground truth by
  // a wide aggregate margin (measured ~30x; asserted at 2x for slack), stay
  // small in the mean, and never be catastrophically wrong on any graph.
  double sum_v1 = 0.0;
  double sum_v2 = 0.0;
  double max_v2 = 0.0;
  std::size_t values = 0;
  for (const auto family : data::all_design_families()) {
    for (const std::uint64_t seed : {1u, 7u, 23u, 51u, 104u, 999u}) {
      util::Rng rng(seed);
      const auto src = data::generate_design(family, "d", rng);
      const NetGraph g = lower(src);
      const auto truth = dense_spectrum_magnitudes(g, 3);
      const auto v1 = pre_csr_spectral_sketch(g, 3, 50);
      const auto v2 = g.spectral_sketch(3);
      ASSERT_EQ(v2.size(), truth.size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        sum_v1 += std::abs(v1[i] - truth[i]);
        const double err = std::abs(v2[i] - truth[i]);
        sum_v2 += err;
        max_v2 = std::max(max_v2, err);
        ++values;
      }
    }
  }
  EXPECT_LT(sum_v2, 0.5 * sum_v1) << "v2 aggregate error should crush v1's";
  EXPECT_LT(sum_v2 / static_cast<double>(values), 0.05) << "v2 mean error";
  EXPECT_LT(max_v2, 2.0) << "v2 worst-case error";
}

TEST(SpectralSketch, ConvergenceExitTriggersOnWellSeparatedSpectra) {
  // A star K_{1,4} has a well-separated spectrum, so every column-norm
  // estimate goes stationary long before any reasonable cap — and once the
  // exit triggers, raising the cap cannot change the answer (the break
  // happens at the same pass with the same block, bit for bit). Graphs
  // whose spectra converge slower than the cap are deliberately NOT
  // cap-insensitive; the dense-truth fixture above bounds their error
  // instead.
  NetGraph g;
  const auto center = g.add_node(NodeType::Wire, "c");
  for (int i = 0; i < 4; ++i) {
    g.add_edge(center, g.add_node(NodeType::Wire, "l"));
  }
  const auto at_50 = g.spectral_sketch(2, 50);
  const auto at_4000 = g.spectral_sketch(2, 4000);
  EXPECT_EQ(at_50, at_4000);
}

TEST(SpectralSketch, RejectsMoreEigenvaluesThanTheBlockHolds) {
  // The 4-wide block is the whole subspace; a fifth estimate would have to
  // come from somewhere else, so the sketch refuses instead of inventing one.
  NetGraph g;
  g.add_edge(g.add_node(NodeType::Wire, "a"), g.add_node(NodeType::Wire, "b"));
  EXPECT_EQ(g.spectral_sketch(4).size(), 4u);
  EXPECT_THROW(g.spectral_sketch(5), std::invalid_argument);
  std::vector<double> five(5);
  AnalysisScratch scratch;
  EXPECT_THROW(g.spectral_sketch(five, 24, scratch), std::invalid_argument);
}

TEST(SpectralSketch, ScratchAndConvenienceFormsAgree) {
  // The convenience overload routes through thread_analysis_scratch(), so
  // the two forms must be bit-identical — and a reused scratch must not
  // leak state between differently-shaped graphs.
  util::Rng rng(9);
  AnalysisScratch scratch;
  for (const auto family : data::all_design_families()) {
    const auto src = data::generate_design(family, "d", rng);
    const NetGraph g = lower(src);
    std::vector<double> via_scratch(3, -1.0);
    g.spectral_sketch(via_scratch, 50, scratch);
    EXPECT_EQ(via_scratch, g.spectral_sketch(3, 50)) << data::to_string(family);
  }
}

}  // namespace
}  // namespace noodle::graph
