// The featurization front end's contract: the arena path (string_view
// lexer -> arena AST -> interned NetGraph -> scratch-based extractors,
// driven by feat::FeaturizeWorkspace) produces the pinned feature vectors
// of the bundled corpus, gives a warm, reused workspace the same answer as
// a cold one, preserves lexer line/column information, keeps the intern
// pool stable under growth and collisions, and — the headline — performs
// zero heap allocations in steady state (counted by the global operator new
// override below; this suite is its own executable, so the override is
// scoped to it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/corpus.h"
#include "data/dataset.h"
#include "feat/featurize.h"
#include "feat/tabular.h"
#include "graph/builder.h"
#include "graph/features.h"
#include "util/binary_io.h"
#include "util/intern.h"
#include "verilog/lexer.h"
#include "verilog/parser.h"
#include "verilog/symbols.h"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}

// GCC's -Wmismatched-new-delete heuristic cannot see that these replaced
// operators form a consistent malloc/free pair; the diagnostic is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace noodle {
namespace {

// ---------------------------------------------------------------------------
// Reference: a cold workspace per call. A warm, reused workspace must
// reproduce it bit for bit; the digest pin below fixes its values.
// ---------------------------------------------------------------------------

struct FeaturePair {
  std::vector<double> graph;
  std::vector<double> tabular;
};

FeaturePair workspace_features(feat::FeaturizeWorkspace& ws, const std::string& source) {
  FeaturePair out;
  ws.featurize(source, out.graph, out.tabular);
  return out;
}

FeaturePair reference_features(const std::string& source) {
  feat::FeaturizeWorkspace fresh;
  return workspace_features(fresh, source);
}

void expect_identical(const FeaturePair& want, const FeaturePair& got,
                      const std::string& context) {
  EXPECT_EQ(want.graph, got.graph) << "graph features diverge: " << context;
  EXPECT_EQ(want.tabular, got.tabular) << "tabular features diverge: " << context;
}

const std::vector<data::CircuitSample>& bundled_corpus() {
  static const auto circuits = [] {
    data::CorpusSpec spec;
    spec.design_count = 48;
    spec.infected_fraction = 0.35;
    spec.seed = 20260726;
    return data::build_corpus(spec);
  }();
  return circuits;
}

// ---------------------------------------------------------------------------
// Bit-identity, bundled corpus
// ---------------------------------------------------------------------------

TEST(FeaturizeIdentity, BundledCorpusFeaturesArePinned) {
  // FNV-1a over the IEEE-754 bits of every graph and tabular value of the
  // bundled corpus, in corpus order. Any numeric change to a feature moves
  // it; such a change must also bump kFeatureVersion, so both are pinned
  // here together.
  EXPECT_EQ(feat::kFeatureVersion, 2u);
  std::vector<double> values;
  for (const auto& circuit : bundled_corpus()) {
    const FeaturePair features = reference_features(circuit.verilog);
    values.insert(values.end(), features.graph.begin(), features.graph.end());
    values.insert(values.end(), features.tabular.begin(), features.tabular.end());
  }
  ASSERT_EQ(values.size(), 3456u);
  EXPECT_EQ(util::fnv1a64(values.data(), values.size() * sizeof(double)),
            std::uint64_t{0x7869fe24ace80e18});
}

TEST(FeaturizeIdentity, BitIdenticalAcrossBundledCorpus) {
  feat::FeaturizeWorkspace ws;
  for (const auto& circuit : bundled_corpus()) {
    const FeaturePair want = reference_features(circuit.verilog);
    expect_identical(want, workspace_features(ws, circuit.verilog), circuit.name);

    // The convenience path (thread workspace under data::featurize).
    const data::FeatureSample sample = data::featurize(circuit);
    EXPECT_EQ(want.graph, sample.graph) << circuit.name;
    EXPECT_EQ(want.tabular, sample.tabular) << circuit.name;
    EXPECT_EQ(sample.label,
              circuit.infected ? data::kTrojanInfected : data::kTrojanFree);
  }
}

TEST(FeaturizeIdentity, FeaturizeCorpusMatchesPerCircuit) {
  const auto& circuits = bundled_corpus();
  const data::FeatureDataset dataset = data::featurize_corpus(circuits);
  ASSERT_EQ(dataset.size(), circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const FeaturePair want = reference_features(circuits[i].verilog);
    EXPECT_EQ(dataset.samples[i].graph, want.graph) << circuits[i].name;
    EXPECT_EQ(dataset.samples[i].tabular, want.tabular) << circuits[i].name;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity, pathological RTL
// ---------------------------------------------------------------------------

std::string deeply_nested_expression(int depth) {
  std::string expr = "a";
  for (int i = 0; i < depth; ++i) {
    expr = "(" + expr + (i % 3 == 0 ? " + b" : i % 3 == 1 ? " ^ c" : " & d") + ")";
  }
  return "module deep_expr(input [7:0] a, b, c, d, output [7:0] y);\n"
         "  assign y = " + expr + ";\n"
         "endmodule\n";
}

std::string long_identifier_module() {
  // Identifiers far past any SSO threshold; interning must store them once.
  const std::string big_a(300, 'a');
  const std::string big_b = std::string(250, 'b') + "_$tail";
  return "module long_idents(input [15:0] " + big_a + ", output reg [15:0] " + big_b +
         ");\n"
         "  always @(*) " + big_b + " = " + big_a + " ^ {8{" + big_a + "[1]}};\n"
         "endmodule\n";
}

std::string deeply_nested_statements(int depth) {
  std::string source =
      "module deep_stmt(input clk, input [31:0] s, output reg [31:0] q);\n"
      "  always @(posedge clk) begin\n";
  for (int i = 0; i < depth; ++i) {
    source += "    if (s > " + std::to_string(i) + ") begin\n";
  }
  source += "      q <= s;\n";
  for (int i = 0; i < depth; ++i) {
    source += "    end else q <= " + std::to_string(i) + ";\n";
  }
  source += "  end\nendmodule\n";
  return source;
}

std::string wide_case_module(int items) {
  std::string source =
      "module wide_case(input [15:0] s, output reg [15:0] y);\n"
      "  always @(*)\n    case (s)\n";
  for (int i = 0; i < items; ++i) {
    source += "      16'd" + std::to_string(i * 3) + ", 16'd" + std::to_string(i * 3 + 1) +
              ": y = 16'd" + std::to_string(i) + ";\n";
  }
  source += "      default: case (s[3:0])\n        4'h5: y = 16'hBEEF;\n"
            "        default: y = 16'd0;\n      endcase\n";
  source += "    endcase\nendmodule\n";
  return source;
}

std::string kitchen_sink_module() {
  // Every grammar production the subset supports, in one module.
  return R"(
`timescale 1ns/1ps
module kitchen #(parameter W = 8, parameter D = W * 2) (
    input clk, input rst_n, input signed [W-1:0] a, b,
    output reg [D-1:0] acc, output valid);
  localparam HALF = D / 2;
  wire [W-1:0] mixed = a ^ b;       // comment
  wire [D-1:0] spread;
  reg [HALF-1:0] state;
  integer i;
  assign spread = {mixed, {(W/8){{4'b1010, 4'hF}}}}, valid = |state & ~^spread[HALF-1:2];
  /* block
     comment */
  always @(posedge clk or negedge rst_n)
    if (!rst_n) begin
      acc <= {D{1'b0}};
      state <= 8'h00;
    end else begin
      for (i = 0; i < 4; i = i + 1)
        acc <= acc + {spread[3:0], mixed};
      state <= (state == 8'hA5) ? 8'd0 : state + 8'd1;
    end
  always @(*) ;
  initial begin
    $display("hello %d", 1 + 2);
    $finish;
  end
  sub u0 (.x(mixed[3]), .y(), .z(a[0]));
  sub u1 (mixed[0], valid, b[1]);
endmodule
)";
}

TEST(FeaturizeIdentity, PathologicalRtl) {
  feat::FeaturizeWorkspace ws;
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"deep_expr", deeply_nested_expression(150)},
      {"long_idents", long_identifier_module()},
      {"deep_stmt", deeply_nested_statements(60)},
      {"wide_case", wide_case_module(120)},
      {"kitchen_sink", kitchen_sink_module()},
  };
  for (const auto& [name, source] : cases) {
    SCOPED_TRACE(name);
    const FeaturePair want = reference_features(source);
    expect_identical(want, workspace_features(ws, source), name);
    // And again on the same (already warm) workspace — reuse must not leak
    // state between featurize calls.
    expect_identical(want, workspace_features(ws, source), name);
  }
}

TEST(FeaturizeIdentity, ManyModulesFile) {
  // Each module of a multi-module file featurizes exactly as the same
  // module parsed on its own.
  std::vector<std::string> modules;
  std::string source;
  for (int i = 0; i < 30; ++i) {
    const std::string n = std::to_string(i);
    modules.push_back("module m" + n + "(input [7:0] x_" + n + ", output [7:0] y);\n" +
                      "  assign y = x_" + n + " + 8'd" + n + ";\nendmodule\n");
    source += modules.back();
  }
  verilog::ParserWorkspace pws;
  const verilog::fast::SourceFile& file = pws.parse(source);
  ASSERT_EQ(file.modules.size(), modules.size());

  graph::NetGraph g(pws.symbols());
  graph::BuildScratch build_scratch;
  graph::FeatureScratch feature_scratch;
  feat::TabularScratch tabular_scratch;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    FeaturePair got{std::vector<double>(graph::kGraphFeatureDim),
                    std::vector<double>(feat::kTabularFeatureDim)};
    graph::build_netgraph(file.modules[i], g, build_scratch);
    graph::graph_features(g, got.graph, feature_scratch);
    feat::tabular_features(file.modules[i], got.tabular, tabular_scratch);
    expect_identical(reference_features(modules[i]), got, "module " + std::to_string(i));
  }
}

TEST(FeaturizeIdentity, ParseErrorLeavesWorkspaceReusable) {
  feat::FeaturizeWorkspace ws;
  std::vector<double> g, t;
  EXPECT_THROW(ws.featurize("module broken(input a; endmodule", g, t),
               verilog::ParseError);
  EXPECT_THROW(ws.featurize("module a; endmodule module b; endmodule", g, t),
               verilog::ParseError);
  EXPECT_THROW(ws.featurize("module bad; wire w = 4'bxx01; endmodule", g, t),
               verilog::LexError);
  const std::string good = bundled_corpus().front().verilog;
  expect_identical(reference_features(good), workspace_features(ws, good), "post-error");
}

// ---------------------------------------------------------------------------
// Lexer: line/column preservation under the string_view rewrite
// ---------------------------------------------------------------------------

TEST(LexerPositions, LineAndColumnSurviveViews) {
  const std::string source =
      "module top; // trailing comment\n"
      "  wire /* inline */ w;\n"
      "  /* block\n"
      "     spanning */ assign w = 8'hFF;\n"
      "endmodule";
  const auto tokens = verilog::lex(source);
  struct Want {
    const char* text;
    int line;
    int column;
  };
  const std::vector<Want> want = {
      {"module", 1, 1}, {"top", 1, 8},    {";", 1, 11},   {"wire", 2, 3},
      {"w", 2, 21},     {";", 2, 22},     {"assign", 4, 18}, {"w", 4, 25},
      {"=", 4, 27},     {"8'hFF", 4, 29}, {";", 4, 34},   {"endmodule", 5, 1},
  };
  ASSERT_EQ(tokens.size(), want.size() + 1);  // + End
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tokens[i].text, want[i].text) << "token " << i;
    EXPECT_EQ(tokens[i].line, want[i].line) << "token " << i;
    EXPECT_EQ(tokens[i].column, want[i].column) << "token " << i;
  }
  EXPECT_TRUE(tokens.back().is(verilog::TokenKind::End));
  EXPECT_EQ(tokens.back().line, 5);
}

TEST(LexerPositions, TokensAreViewsIntoTheSource) {
  const std::string source = "module m(input abcdef); endmodule";
  std::vector<verilog::Token> tokens;
  verilog::lex_into(source, tokens);
  const auto* ident = &tokens[4];  // module m ( input abcdef
  ASSERT_EQ(ident->text, "abcdef");
  // Zero-copy contract: identifier text points into the source buffer.
  EXPECT_GE(ident->text.data(), source.data());
  EXPECT_LT(ident->text.data(), source.data() + source.size());

  // Reusing the buffer re-lexes without losing positions.
  const std::string source2 = "//c\nwire x;";
  verilog::lex_into(source2, tokens);
  ASSERT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 6);
}

TEST(LexerPositions, PunctIdsMatchTheTable) {
  const auto tokens = verilog::lex("a <= b << {c, d} === e;");
  for (const auto& tok : tokens) {
    if (tok.is(verilog::TokenKind::Punct)) {
      ASSERT_NE(tok.punct, 0) << tok.text;
      EXPECT_EQ(verilog::kPunctSpellings[tok.punct - 1], tok.text);
    }
  }
}

TEST(LexerPositions, KeywordSetMatchesTheSubset) {
  // The exact reserved-word list of the supported subset (the pre-refactor
  // lexer's table, verbatim). The switch-based recognizer must accept all
  // of these and nothing near them.
  const char* keywords[] = {
      "module",   "endmodule", "input",  "output", "inout",     "wire",
      "reg",      "assign",    "always", "initial", "begin",    "end",
      "if",       "else",      "case",   "casez",  "casex",     "endcase",
      "default",  "for",       "posedge", "negedge", "or",      "parameter",
      "localparam", "integer", "signed", "and",    "not",       "nand",
      "nor",      "xor",       "xnor",   "buf",    "function",  "endfunction",
      "generate", "endgenerate",
  };
  for (const char* kw : keywords) {
    EXPECT_TRUE(verilog::is_verilog_keyword(kw)) << kw;
  }
  for (const char* not_kw : {"", "modul", "modules", "endgener", "endgenerates",
                             "Or", "IF", "wired", "regs", "xnor2", "cased"}) {
    EXPECT_FALSE(verilog::is_verilog_keyword(not_kw)) << not_kw;
  }
}

TEST(LexerPositions, ErrorsKeepCoordinates) {
  try {
    verilog::lex("wire w;\n  /* never closed");
    FAIL() << "expected LexError";
  } catch (const verilog::LexError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
  try {
    verilog::parse_source("module m;\n  wire = 1;\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const verilog::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// ---------------------------------------------------------------------------
// Intern pool: growth, collisions, stability
// ---------------------------------------------------------------------------

TEST(SymbolTable, GrowthKeepsIdsAndSpellingsStable) {
  util::SymbolTable table;
  std::unordered_map<std::string, util::Symbol> reference;
  std::vector<std::string> spellings;
  // Enough strings to force several rehashes; mix of short/long and shared
  // prefixes maximizes bucket collisions along the way.
  for (int i = 0; i < 20000; ++i) {
    std::string s = (i % 3 == 0 ? "sig_" : i % 3 == 1 ? "net$" : "very_long_prefix_");
    s += std::to_string(i * 7919 % 4096);
    if (i % 5 == 0) s += std::string(1 + i % 40, 'x');
    spellings.push_back(std::move(s));
  }
  for (const auto& s : spellings) {
    const util::Symbol id = table.intern(s);
    const auto [it, inserted] = reference.emplace(s, id);
    if (!inserted) {
      EXPECT_EQ(it->second, id) << s;  // re-intern returns the same id
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  // After all growth, every id still resolves to its original spelling and
  // every spelling still finds its original id.
  for (const auto& [s, id] : reference) {
    EXPECT_EQ(table.text(id), s);
    EXPECT_EQ(table.find(s), id);
    EXPECT_EQ(table.intern(s), id);
  }
  EXPECT_EQ(table.find("never_interned"), util::kNoSymbol);
  EXPECT_THROW(table.text(util::kNoSymbol), std::out_of_range);
}

TEST(SymbolTable, PreinternedVocabularyHasFixedIds) {
  util::SymbolTable table;
  verilog::preintern_verilog_symbols(table);
  EXPECT_EQ(table.size(), verilog::kPreinternedSymbolCount);
  for (std::size_t i = 0; i < verilog::kPunctSpellings.size(); ++i) {
    EXPECT_EQ(table.intern(verilog::kPunctSpellings[i]), static_cast<util::Symbol>(i));
  }
  EXPECT_EQ(table.text(verilog::kSymTernaryMux), "?:");
  EXPECT_EQ(table.text(verilog::kSymLhsConcat), "{lhs}");
  // Operator classification dispatches on these fixed ids.
  EXPECT_EQ(graph::op_bucket(table.intern("==")), 0);
  EXPECT_EQ(graph::op_bucket(table.intern("<")), 1);
  EXPECT_EQ(graph::op_bucket(table.intern("^")), 2);
  EXPECT_EQ(graph::op_bucket(table.intern("<<")), 7);
  EXPECT_EQ(graph::op_bucket(table.intern("?")), 9);  // not an operator bucket
}

TEST(SymbolTable, ResetKeepsCapacityAndReissuesIds) {
  util::SymbolTable table;
  verilog::preintern_verilog_symbols(table);
  const util::Symbol a = table.intern("alpha");
  table.intern("beta");
  table.reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("alpha"), util::kNoSymbol);
  verilog::preintern_verilog_symbols(table);  // vocabulary ids come back fixed
  EXPECT_EQ(table.text(verilog::kSymTernaryMux), "?:");
  EXPECT_EQ(table.intern("alpha"), a);  // same insert order -> same dense id
}

TEST(SymbolTable, RetentionLimitBoundsLongLivedWorkers) {
  // A tiny limit makes the trim observable: the pool must never exceed
  // limit + one parse's worth of fresh symbols, and results stay correct
  // across resets.
  feat::FeaturizeWorkspace ws(verilog::kPreinternedSymbolCount + 64);
  std::vector<double> g, t;
  for (int round = 0; round < 20; ++round) {
    // Every round uses a disjoint identifier vocabulary.
    std::string source = "module m(input [7:0] in_" + std::to_string(round) +
                         ", output [7:0] out_" + std::to_string(round) + ");\n";
    for (int w = 0; w < 40; ++w) {
      source += "  wire u" + std::to_string(round) + "_" + std::to_string(w) + ";\n";
    }
    source += "  assign out_" + std::to_string(round) + " = in_" +
              std::to_string(round) + ";\nendmodule\n";
    ws.featurize(source, g, t);
    EXPECT_EQ(std::vector<double>(g), reference_features(source).graph) << round;
    EXPECT_LT(ws.parser().symbols()->size(),
              static_cast<std::size_t>(verilog::kPreinternedSymbolCount) + 200)
        << "intern pool must stay bounded under diverse inputs";
  }
}

TEST(FeaturizeMemory, OutsizedRequestIsNotRetained) {
  // One legal outsized line (tens of thousands of distinct wires) grows
  // every intermediate of the thread's workspace. The next featurize, of
  // an ordinary design, starts from fresh state, so a worker does not keep
  // that memory for its lifetime, and its features stay exact. The same
  // holds when the outsized line fails to parse, or fails to lex after its
  // tokens filled the buffer.
  std::string body = "module big(input a, output y);";
  for (int w = 0; w < 60000; ++w) body += " wire w" + std::to_string(w) + ";";
  const struct {
    std::string source;
    const char* what;
  } outsized_inputs[] = {
      {body + " assign y = a; endmodule", "an outsized design"},
      {body + " assign y = ;", "an outsized parse error"},
      {body + " /* unterminated", "an outsized lex error"},
  };
  const std::string& small = bundled_corpus().front().verilog;
  const FeaturePair want = reference_features(small);

  for (const auto& outsized : outsized_inputs) {
    std::size_t grown_bytes = 0, grown_symbols = 0;
    std::size_t arena_after = 0, retained_after = 0, symbols_after = 0;
    FeaturePair got;
    std::thread worker([&] {
      feat::FeaturizeWorkspace& ws = feat::thread_workspace();
      std::vector<double> g, t;
      try {
        ws.featurize(outsized.source, g, t);
      } catch (const verilog::ParseError&) {
      } catch (const verilog::LexError&) {
      }
      grown_bytes = ws.parser().retained_bytes();
      grown_symbols = ws.parser().symbols()->size();
      got = workspace_features(ws, small);
      arena_after = ws.parser().arena().bytes_reserved();
      retained_after = ws.parser().retained_bytes();
      symbols_after = ws.parser().symbols()->size();
    });
    worker.join();
    EXPECT_GT(grown_bytes, feat::FeaturizeWorkspace::kMaxRetainedBytes) << outsized.what;
    if (&outsized == &outsized_inputs[0]) {
      EXPECT_GT(grown_symbols, verilog::ParserWorkspace::kDefaultMaxRetainedSymbols);
    }
    EXPECT_LE(arena_after, feat::FeaturizeWorkspace::kMaxRetainedBytes) << outsized.what;
    EXPECT_LE(retained_after, feat::FeaturizeWorkspace::kMaxRetainedBytes)
        << outsized.what;
    EXPECT_LE(symbols_after, verilog::ParserWorkspace::kDefaultMaxRetainedSymbols)
        << outsized.what;
    expect_identical(want, got, std::string("after ") + outsized.what);
  }
}

TEST(SymbolMap, PutFindOverwriteAcrossGrowth) {
  util::SymbolMap<std::size_t> map;
  EXPECT_EQ(map.find(7), nullptr);
  for (util::Symbol k = 0; k < 5000; ++k) map.put(k * 3, k);
  EXPECT_EQ(map.size(), 5000u);
  for (util::Symbol k = 0; k < 5000; ++k) {
    const auto* v = map.find(k * 3);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(map.find(1), nullptr);
  map.put(9, 999);  // overwrite
  EXPECT_EQ(*map.find(9), 999u);
  EXPECT_EQ(map.size(), 5000u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(9), nullptr);
  map.put(9, 1);  // reusable after clear
  EXPECT_EQ(*map.find(9), 1u);
}

// ---------------------------------------------------------------------------
// Graph: interned labels, in-place histogram, capacity-preserving clear
// ---------------------------------------------------------------------------

TEST(NetGraphInterning, LabelsResolveAndHistogramMatches) {
  graph::NetGraph g;
  const auto a = g.add_node(graph::NodeType::Input, "a", 4);
  const auto op = g.add_node(graph::NodeType::Op, "==");
  const auto y = g.add_node(graph::NodeType::Output, "y");
  g.add_edge(a, op);
  g.add_edge(op, y);
  EXPECT_EQ(g.label(a), "a");
  EXPECT_EQ(g.label(op), "==");
  EXPECT_EQ(g.node(op).label, verilog::punct_symbol(verilog::punct_id_of("==")));

  const std::vector<double> allocated = g.type_histogram();
  std::vector<double> in_place(graph::kNodeTypeCount, -1.0);
  g.type_histogram(in_place);
  EXPECT_EQ(allocated, in_place);

  g.clear();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  // Labels interned before clear() stay valid (the pool is untouched).
  const auto b = g.add_node(graph::NodeType::Wire, "a");
  EXPECT_EQ(g.label(b), "a");
  EXPECT_THROW(g.node(1), std::out_of_range);
  EXPECT_THROW(g.successors(1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Zero allocations in steady state + workspace reuse across sizes
// ---------------------------------------------------------------------------

TEST(FeaturizeAllocations, SteadyStateIsAllocationFree) {
  feat::FeaturizeWorkspace ws;
  const std::string& source = bundled_corpus().front().verilog;
  std::vector<double> graph_out, tabular_out;
  // Warm-up: grows the token buffer, arena, intern pool, graph, scratch.
  ws.featurize(source, graph_out, tabular_out);
  ws.featurize(source, graph_out, tabular_out);

  const std::size_t before = g_allocation_count.load();
  for (int i = 0; i < 50; ++i) ws.featurize(source, graph_out, tabular_out);
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "steady-state featurize must not touch the heap";
}

TEST(FeaturizeAllocations, SteadyStateAcrossAlternatingSources) {
  feat::FeaturizeWorkspace ws;
  const auto& circuits = bundled_corpus();
  std::vector<double> graph_out, tabular_out;
  // Two different circuits; warm on both, then alternate.
  const std::string& small = circuits[0].verilog;
  const std::string& large = circuits[1].verilog;
  for (int i = 0; i < 2; ++i) {
    ws.featurize(small, graph_out, tabular_out);
    ws.featurize(large, graph_out, tabular_out);
  }
  const std::size_t before = g_allocation_count.load();
  for (int i = 0; i < 20; ++i) {
    ws.featurize(i % 2 == 0 ? small : large, graph_out, tabular_out);
  }
  EXPECT_EQ(g_allocation_count.load() - before, 0u);
}

TEST(FeaturizeAllocations, ReuseAcrossShrinkingAndGrowingSources) {
  // Results after aggressive reuse must match a fresh workspace exactly,
  // whatever order sizes arrive in.
  const std::string small = "module s(input a, output y); assign y = !a; endmodule";
  const std::string big = wide_case_module(80);
  const std::string medium = deeply_nested_expression(40);

  feat::FeaturizeWorkspace reused;
  for (const std::string* source : {&big, &small, &medium, &small, &big, &medium}) {
    expect_identical(reference_features(*source), workspace_features(reused, *source),
                     "shrink/grow reuse");
  }
}

}  // namespace
}  // namespace noodle
