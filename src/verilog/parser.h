#pragma once
// Recursive-descent parser for the supported Verilog-2001 subset:
// modules with ANSI or non-ANSI port declarations, wire/reg/integer nets,
// parameters, continuous assigns, always/initial blocks (begin/end, if/else,
// case/casez, for), module instantiation with named connections, and the
// full synthesizable expression grammar with standard precedence.
//
// Out-of-subset constructs (4-state literals, memories, functions, generate)
// raise ParseError with a source location; the corpus generator never emits
// them, and user-supplied files get a clear diagnostic instead of a silently
// wrong feature vector.
//
// There is one grammar implementation: it parses into the arena AST
// (fast_ast.h) through a reusable ParserWorkspace. The classic owning
// entry points parse_source()/parse_module() are thin wrappers that convert
// the arena tree into the mutable ast.h form for consumers that rewrite RTL.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/intern.h"
#include "verilog/ast.h"
#include "verilog/fast_ast.h"
#include "verilog/token.h"

namespace noodle::verilog {

/// Deepest nesting the parser accepts, as two bounds of the same size.
/// The parser's recursion counts a level for every expression (so for each
/// pair of parentheses), every unary operator and every statement. The
/// tree's height counts the nodes on its longest root-to-leaf path,
/// statements and expressions alike, so it also covers the left-deep trees
/// that loops fold from `a+b+c...` and chained bit selects. Past either
/// bound the parse throws ParseError, so neither the parser nor any
/// recursive walker of the tree (to_owned, graph lowering, tabular
/// features, lint, constant evaluation) can exhaust the stack. The tallest
/// tree over 4096 generated designs is 10 nodes; a 1000-term XOR chain
/// stays legal.
inline constexpr std::size_t kMaxNestingDepth = 1024;

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column);
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Reusable parsing state: token buffer, AST arena, intern pool, and the
/// scratch stacks the parser builds sibling lists on. Grow-only — after the
/// first few parses every subsequent parse of similar-sized RTL performs
/// zero heap allocations. One workspace per thread; never share one across
/// threads, and never let a returned fast::SourceFile/Module outlive the
/// next parse() (it lives in the arena, which parse() resets).
class ParserWorkspace {
 public:
  /// Distinct spellings retained across parses before the intern pool is
  /// reset and re-seeded (at the start of the *next* parse). Bounds the
  /// memory of a long-lived worker featurizing arbitrarily diverse RTL —
  /// without the trim, every net name and constant spelling ever seen
  /// would stay interned forever, and the pool's storage with them (reset
  /// keeps capacity, so the cap is also the pool's steady-state size).
  /// A corpus design interns at most 38 identifiers beside the 48
  /// preinterned ones, so 1 024 is 12x the largest single vocabulary.
  static constexpr std::size_t kDefaultMaxRetainedSymbols = 1u << 10;

  explicit ParserWorkspace(
      std::size_t max_retained_symbols = kDefaultMaxRetainedSymbols);

  ParserWorkspace(const ParserWorkspace&) = delete;
  ParserWorkspace& operator=(const ParserWorkspace&) = delete;

  /// Parses one source file into the arena. The returned reference (and
  /// every node it reaches) is valid until the next parse()/reset() — as
  /// are all symbols minted for it (the retention trim only runs before a
  /// parse, never during one).
  const fast::SourceFile& parse(std::string_view source);

  /// Parses a file expected to contain exactly one module.
  const fast::Module& parse_single(std::string_view source);

  /// The intern pool backing identifier symbols. Pre-seeded with the fixed
  /// verilog vocabulary (symbols.h), shared so a NetGraph can adopt it.
  const std::shared_ptr<util::SymbolTable>& symbols() const noexcept { return symbols_; }

  const util::Arena& arena() const noexcept { return arena_; }

  /// Heap bytes held between parses by the token buffer, the arena and the
  /// intern pool. Grow-only like them, and every structure a parse feeds
  /// (graph, analysis scratch, lint state) grows with them, so it measures
  /// the largest input this workspace has seen.
  std::size_t retained_bytes() const noexcept {
    return tokens_.capacity() * sizeof(Token) + arena_.bytes_reserved() +
           symbols_->bytes_reserved();
  }

  /// Drops every non-vocabulary symbol now (normally automatic via the
  /// retention limit). Invalidates symbols held by anything produced by
  /// earlier parses — the same lifetime rule as the arena itself.
  void reset_symbols();

 private:
  friend class FastParser;

  std::vector<Token> tokens_;
  util::Arena arena_;
  std::shared_ptr<util::SymbolTable> symbols_;

  // Scratch stacks for sibling lists (mark/commit discipline; see parser.cpp).
  std::vector<const fast::Expr*> expr_stack_;
  std::vector<const fast::Stmt*> stmt_stack_;
  std::vector<fast::CaseItem> case_stack_;
  std::vector<fast::SensItem> sens_stack_;
  std::vector<fast::ParamDecl> param_stack_;
  std::vector<fast::PortDecl> port_stack_;
  std::vector<fast::NetDecl> net_stack_;
  std::vector<fast::ContAssign> assign_stack_;
  std::vector<fast::AlwaysBlock> always_stack_;
  std::vector<fast::InitialBlock> initial_stack_;
  std::vector<fast::Instance> inst_stack_;
  std::vector<fast::PortConnection> conn_stack_;
  std::vector<fast::Module> module_stack_;
  std::vector<std::pair<util::Symbol, std::int64_t>> param_values_;
  std::size_t max_retained_symbols_;
};

/// Parses one source file (one or more modules). Throws LexError/ParseError.
SourceFile parse_source(std::string_view source);

/// Parses a file expected to contain exactly one module.
Module parse_module(std::string_view source);

/// Converts an arena tree into the owning ast.h form (deep copy; the result
/// is independent of the workspace).
SourceFile to_owned(const fast::SourceFile& file, const util::SymbolTable& symbols);
Module to_owned(const fast::Module& module, const util::SymbolTable& symbols);

}  // namespace noodle::verilog
