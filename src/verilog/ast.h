#pragma once
// Abstract syntax tree for the supported Verilog subset.
//
// This is the mutable tree for code that rewrites RTL: the corpus builder
// parses generated designs into it, the Trojan inserter and the decoy pass
// rewrite it, the printer turns it back into Verilog text, and sim executes
// it. Nodes are owned via std::unique_ptr and deep-clonable so the inserter
// can derive an infected variant without mutating the original. Analysis
// (graph lowering, the tabular features, lint) reads the arena form in
// fast_ast.h instead.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace noodle::verilog {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  Number,      // 8'hFF, 42
  Identifier,  // foo
  Unary,       // !a, ~a, &a, |a, ^a, -a
  Binary,      // a + b, a == b, ...
  Ternary,     // c ? a : b
  Index,       // a[3]
  Range,       // a[7:0]
  Concat,      // {a, b, c}
  Replicate,   // {4{a}}
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::Number;

  // Number payload.
  std::uint64_t value = 0;
  int width = 0;  // 0 = unsized literal

  // Identifier name, or operator spelling for Unary/Binary ("+", "&&", ...).
  std::string name;

  // Children. Layout by kind:
  //   Unary:     [operand]
  //   Binary:    [lhs, rhs]
  //   Ternary:   [cond, then, else]
  //   Index:     [base, index]
  //   Range:     [base, msb, lsb]
  //   Concat:    [parts...]
  //   Replicate: [count, part]
  std::vector<ExprPtr> operands;

  ExprPtr clone() const;

  // --- Factory helpers (used heavily by the design generators) ---
  static ExprPtr number(std::uint64_t value, int width = 0);
  static ExprPtr ident(std::string name);
  static ExprPtr unary(std::string op, ExprPtr operand);
  static ExprPtr binary(std::string op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr ternary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr index(ExprPtr base, ExprPtr idx);
  static ExprPtr range(ExprPtr base, ExprPtr msb, ExprPtr lsb);
  static ExprPtr concat(std::vector<ExprPtr> parts);
  static ExprPtr replicate(ExprPtr count, ExprPtr part);
};

// ---------------------------------------------------------------------------
// Statements (inside always/initial blocks)
// ---------------------------------------------------------------------------

enum class StmtKind {
  Block,             // begin ... end
  If,                // if (c) s [else s]
  Case,              // case (x) items endcase
  For,               // for (init; cond; step) body
  BlockingAssign,    // a = b;
  NonBlockingAssign, // a <= b;
  Null,              // ;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct CaseItem {
  std::vector<ExprPtr> labels;  // empty => default
  StmtPtr body;

  CaseItem clone() const;
};

struct Stmt {
  StmtKind kind = StmtKind::Null;

  ExprPtr cond;               // If condition / Case subject / For condition
  StmtPtr then_branch;        // If
  StmtPtr else_branch;        // If (may be null)
  std::vector<StmtPtr> body;  // Block children / For body (single element)
  std::vector<CaseItem> case_items;

  ExprPtr lhs;  // assignments; For init/step are stored as child statements
  ExprPtr rhs;
  StmtPtr for_init;  // For: blocking assign
  StmtPtr for_step;  // For: blocking assign

  StmtPtr clone() const;

  static StmtPtr block(std::vector<StmtPtr> stmts);
  static StmtPtr if_stmt(ExprPtr cond, StmtPtr then_branch, StmtPtr else_branch = nullptr);
  static StmtPtr case_stmt(ExprPtr subject, std::vector<CaseItem> items);
  static StmtPtr for_stmt(StmtPtr init, ExprPtr cond, StmtPtr step, StmtPtr body);
  static StmtPtr blocking(ExprPtr lhs, ExprPtr rhs);
  static StmtPtr non_blocking(ExprPtr lhs, ExprPtr rhs);
  static StmtPtr null_stmt();
};

// ---------------------------------------------------------------------------
// Module items
// ---------------------------------------------------------------------------

enum class PortDir { Input, Output, Inout };
enum class NetKind { Wire, Reg, Integer };

/// A declared range like [7:0]; msb/lsb are constant expressions in the
/// supported subset and stored as plain integers after parsing.
struct BitRange {
  int msb = 0;
  int lsb = 0;

  int width() const noexcept { return msb - lsb + 1; }
};

struct PortDecl {
  PortDir dir = PortDir::Input;
  NetKind net = NetKind::Wire;  // `output reg` => Reg
  std::string name;
  std::optional<BitRange> range;
};

struct NetDecl {
  NetKind kind = NetKind::Wire;
  std::string name;
  std::optional<BitRange> range;
  ExprPtr init;  // optional `wire x = expr;`

  NetDecl clone() const;
};

struct ParamDecl {
  bool local = false;  // localparam vs parameter
  std::string name;
  ExprPtr value;

  ParamDecl clone() const;
};

struct ContAssign {
  ExprPtr lhs;
  ExprPtr rhs;

  ContAssign clone() const;
};

enum class EdgeKind { None, Posedge, Negedge };

struct SensItem {
  EdgeKind edge = EdgeKind::None;
  std::string signal;
};

struct AlwaysBlock {
  bool star = false;  // always @(*)
  std::vector<SensItem> sensitivity;
  StmtPtr body;

  AlwaysBlock clone() const;

  /// True when any sensitivity item is edge-triggered (sequential logic).
  bool is_sequential() const noexcept;
};

struct InitialBlock {
  StmtPtr body;

  InitialBlock clone() const;
};

struct PortConnection {
  std::string port;  // formal name
  ExprPtr actual;    // may be null for unconnected .port()
};

struct Instance {
  std::string module_name;
  std::string instance_name;
  std::vector<PortConnection> connections;

  Instance clone() const;
};

struct Module {
  std::string name;
  std::vector<ParamDecl> params;
  std::vector<PortDecl> ports;
  std::vector<NetDecl> nets;
  std::vector<ContAssign> assigns;
  std::vector<AlwaysBlock> always_blocks;
  std::vector<InitialBlock> initial_blocks;
  std::vector<Instance> instances;

  Module clone() const;

  const PortDecl* find_port(const std::string& name) const;
  const NetDecl* find_net(const std::string& name) const;

  /// Width of a named port or net (1 for scalars); 0 if the name is unknown.
  int width_of(const std::string& name) const;
};

/// A source file: one or more modules. The first module is the design top
/// by convention of the corpus generator.
struct SourceFile {
  std::vector<Module> modules;
};

}  // namespace noodle::verilog
